#include "table/ops.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <unordered_map>

#include "common/check.h"

namespace bellwether::table {

namespace {

// String key for hash grouping: type-tagged rendering of each value.
std::string GroupKey(const Table& t, size_t row,
                     const std::vector<size_t>& cols) {
  std::string key;
  for (size_t c : cols) {
    const Value v = t.ValueAt(row, c);
    if (v.is_null()) {
      key += "\x01N";
    } else if (v.is_string()) {
      key += "\x01S" + v.str();
    } else if (v.is_int64()) {
      key += "\x01I" + std::to_string(v.int64());
    } else {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "\x01R%.17g", v.dbl());
      key += buf;
    }
  }
  return key;
}

Result<std::vector<size_t>> ResolveColumns(
    const Table& input, const std::vector<std::string>& columns) {
  std::vector<size_t> idx;
  idx.reserve(columns.size());
  for (const auto& name : columns) {
    auto i = input.schema().FindField(name);
    if (!i.has_value()) {
      return Status::NotFound("column not found: " + name);
    }
    idx.push_back(*i);
  }
  return idx;
}

// Accumulator for one AggSpec within one group.
struct AggState {
  double sum = 0.0;
  int64_t count = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  std::set<std::string> distinct;

  void Accumulate(AggFn fn, const Value& v) {
    if (v.is_null()) return;
    if (fn == AggFn::kCountDistinct) {
      distinct.insert(v.ToString() + (v.is_string() ? "\x01s" : "\x01n"));
      return;
    }
    ++count;
    if (fn == AggFn::kCount) return;
    const double d = v.AsDouble();
    sum += d;
    min = std::min(min, d);
    max = std::max(max, d);
  }

  Value Finish(AggFn fn) const {
    switch (fn) {
      case AggFn::kCount:
        return Value(count);
      case AggFn::kCountDistinct:
        return Value(static_cast<int64_t>(distinct.size()));
      case AggFn::kSum:
        return count > 0 ? Value(sum) : Value::Null();
      case AggFn::kMin:
        return count > 0 ? Value(min) : Value::Null();
      case AggFn::kMax:
        return count > 0 ? Value(max) : Value::Null();
      case AggFn::kAvg:
        return count > 0 ? Value(sum / static_cast<double>(count))
                         : Value::Null();
    }
    return Value::Null();
  }
};

DataType AggOutputType(AggFn fn) {
  return (fn == AggFn::kCount || fn == AggFn::kCountDistinct)
             ? DataType::kInt64
             : DataType::kDouble;
}

}  // namespace

const char* AggFnToString(AggFn fn) {
  switch (fn) {
    case AggFn::kSum:
      return "sum";
    case AggFn::kCount:
      return "count";
    case AggFn::kCountDistinct:
      return "count_distinct";
    case AggFn::kMin:
      return "min";
    case AggFn::kMax:
      return "max";
    case AggFn::kAvg:
      return "avg";
  }
  return "unknown";
}

Table Select(const Table& input, const RowPredicate& pred) {
  std::vector<size_t> keep;
  for (size_t r = 0; r < input.num_rows(); ++r) {
    if (pred(input, r)) keep.push_back(r);
  }
  return input.TakeRows(keep);
}

Result<Table> ProjectDistinct(const Table& input,
                              const std::vector<std::string>& columns) {
  BW_ASSIGN_OR_RETURN(std::vector<size_t> idx,
                      ResolveColumns(input, columns));
  Schema schema;
  for (size_t i : idx) schema.AddField(input.schema().field(i));
  Table out(schema);
  std::set<std::string> seen;
  std::vector<Value> row(idx.size());
  for (size_t r = 0; r < input.num_rows(); ++r) {
    const std::string key = GroupKey(input, r, idx);
    if (!seen.insert(key).second) continue;
    for (size_t k = 0; k < idx.size(); ++k) row[k] = input.ValueAt(r, idx[k]);
    out.AppendRow(row);
  }
  return out;
}

Result<Table> KeyForeignKeyJoin(const Table& fact, const std::string& fact_fk,
                                const Table& reference,
                                const std::string& ref_key) {
  auto fk_idx = fact.schema().FindField(fact_fk);
  if (!fk_idx.has_value()) {
    return Status::NotFound("join: fact FK column not found: " + fact_fk);
  }
  auto key_idx = reference.schema().FindField(ref_key);
  if (!key_idx.has_value()) {
    return Status::NotFound("join: reference key column not found: " +
                            ref_key);
  }

  // Build the hash index over the reference primary key.
  std::unordered_map<std::string, size_t> index;
  index.reserve(reference.num_rows() * 2);
  for (size_t r = 0; r < reference.num_rows(); ++r) {
    const Value v = reference.ValueAt(r, *key_idx);
    if (v.is_null()) continue;
    const std::string key = GroupKey(reference, r, {*key_idx});
    if (!index.emplace(key, r).second) {
      return Status::InvalidArgument(
          "join: duplicate primary key in reference table: " + v.ToString());
    }
  }

  // Output schema: fact columns, then non-key reference columns (renamed with
  // the reference key's prefix if a name collides).
  Schema schema;
  for (const auto& f : fact.schema().fields()) schema.AddField(f);
  std::vector<size_t> ref_cols;
  for (size_t c = 0; c < reference.schema().num_fields(); ++c) {
    if (c == *key_idx) continue;
    Field f = reference.schema().field(c);
    if (schema.FindField(f.name).has_value()) {
      f.name = ref_key + "." + f.name;
    }
    schema.AddField(f);
    ref_cols.push_back(c);
  }

  Table out(schema);
  std::vector<Value> row;
  row.reserve(schema.num_fields());
  for (size_t r = 0; r < fact.num_rows(); ++r) {
    const Value fk = fact.ValueAt(r, *fk_idx);
    if (fk.is_null()) continue;
    auto it = index.find(GroupKey(fact, r, {*fk_idx}));
    if (it == index.end()) continue;
    row.clear();
    for (size_t c = 0; c < fact.num_columns(); ++c) {
      row.push_back(fact.ValueAt(r, c));
    }
    for (size_t c : ref_cols) {
      row.push_back(reference.ValueAt(it->second, c));
    }
    out.AppendRow(row);
  }
  return out;
}

Result<Table> GroupByAggregate(const Table& input,
                               const std::vector<std::string>& group_by,
                               const std::vector<AggSpec>& specs) {
  BW_ASSIGN_OR_RETURN(std::vector<size_t> group_idx,
                      ResolveColumns(input, group_by));
  std::vector<size_t> agg_idx;
  agg_idx.reserve(specs.size());
  for (const auto& s : specs) {
    auto i = input.schema().FindField(s.column);
    if (!i.has_value()) {
      return Status::NotFound("aggregate column not found: " + s.column);
    }
    agg_idx.push_back(*i);
  }

  Schema schema;
  for (size_t i : group_idx) schema.AddField(input.schema().field(i));
  for (const auto& s : specs) {
    schema.AddField(Field{s.output_name, AggOutputType(s.fn)});
  }

  // Ordered map keeps output deterministic.
  struct Group {
    std::vector<Value> keys;
    std::vector<AggState> states;
  };
  std::map<std::string, Group> groups;
  for (size_t r = 0; r < input.num_rows(); ++r) {
    const std::string key = GroupKey(input, r, group_idx);
    auto [it, inserted] = groups.try_emplace(key);
    if (inserted) {
      it->second.states.resize(specs.size());
      it->second.keys.reserve(group_idx.size());
      for (size_t c : group_idx) {
        it->second.keys.push_back(input.ValueAt(r, c));
      }
    }
    for (size_t k = 0; k < specs.size(); ++k) {
      it->second.states[k].Accumulate(specs[k].fn,
                                      input.ValueAt(r, agg_idx[k]));
    }
  }
  // Scalar aggregation of an empty input still produces one row.
  if (group_by.empty() && groups.empty()) {
    groups.try_emplace("").first->second.states.resize(specs.size());
  }

  Table out(schema);
  std::vector<Value> row;
  for (const auto& [key, g] : groups) {
    (void)key;
    row = g.keys;
    for (size_t k = 0; k < specs.size(); ++k) {
      row.push_back(g.states[k].Finish(specs[k].fn));
    }
    out.AppendRow(row);
    row.clear();
  }
  return out;
}

}  // namespace bellwether::table
