#include "core/training_data_gen.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/check.h"
#include "exec/parallel.h"
#include "obs/logger.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "robust/fault_injection.h"
#include "storage/arena.h"
#include "table/ops.h"

namespace bellwether::core {

namespace {

using olap::KeySetCube;
using olap::NumericAgg;
using olap::RegionId;
using olap::RegionItemCube;
using storage::RegionTrainingSet;
using table::AggFn;
using table::DataType;
using table::Table;

// Checks that `schema` has `column` and that its type suits the column's
// role: int64 for ids, coordinates and keys, numeric for values.
enum class ColumnRole { kInt64, kNumeric };

Status CheckColumn(const table::Schema& schema, const std::string& column,
                   const std::string& what, ColumnRole role) {
  const auto idx = schema.FindField(column);
  if (!idx.has_value()) return Status::NotFound(what + " missing: " + column);
  const DataType type = schema.field(*idx).type;
  if (role == ColumnRole::kInt64 && type != DataType::kInt64) {
    return Status::InvalidArgument(what + " must be int64: " + column);
  }
  if (role == ColumnRole::kNumeric && type == DataType::kString) {
    return Status::InvalidArgument(what + " must be numeric: " + column);
  }
  return Status::OK();
}

}  // namespace

Status ValidateSpec(const BellwetherSpec& spec) {
  if (spec.space == nullptr) return Status::InvalidArgument("spec.space");
  if (spec.fact == nullptr) return Status::InvalidArgument("spec.fact");
  if (spec.item_table == nullptr) {
    return Status::InvalidArgument("spec.item_table");
  }
  if (spec.cost == nullptr) return Status::InvalidArgument("spec.cost");
  if (spec.dimension_columns.size() != spec.space->num_dims()) {
    return Status::InvalidArgument(
        "dimension_columns arity must match the region space");
  }
  const table::Schema& fact = spec.fact->schema();
  for (const auto& c : spec.dimension_columns) {
    BW_RETURN_IF_ERROR(
        CheckColumn(fact, c, "fact dimension column", ColumnRole::kInt64));
  }
  BW_RETURN_IF_ERROR(CheckColumn(fact, spec.item_id_column,
                                 "fact item id column", ColumnRole::kInt64));
  BW_RETURN_IF_ERROR(CheckColumn(fact, spec.target_column, "target column",
                                 ColumnRole::kNumeric));
  const table::Schema& items = spec.item_table->schema();
  BW_RETURN_IF_ERROR(CheckColumn(items, spec.item_table_id_column,
                                 "item table id column", ColumnRole::kInt64));
  for (const auto& c : spec.item_feature_columns) {
    BW_RETURN_IF_ERROR(
        CheckColumn(items, c, "item feature column", ColumnRole::kNumeric));
  }
  for (const auto& q : spec.regional_features) {
    if (q.kind == FeatureQuery::Kind::kFactMeasure) {
      BW_RETURN_IF_ERROR(CheckColumn(fact, q.measure_column,
                                     "fact measure column",
                                     ColumnRole::kNumeric));
      continue;
    }
    auto it = spec.references.find(q.reference);
    if (it == spec.references.end()) {
      return Status::NotFound("unknown reference table: " + q.reference);
    }
    BW_RETURN_IF_ERROR(CheckColumn(it->second.table->schema(),
                                   q.measure_column,
                                   "reference measure column",
                                   ColumnRole::kNumeric));
    BW_RETURN_IF_ERROR(
        CheckColumn(fact, q.fk_column, "fact FK column", ColumnRole::kInt64));
  }
  return Status::OK();
}

Result<std::unordered_map<int64_t, size_t>> BuildKeyIndex(
    const Table& ref, const std::string& key_column) {
  auto idx = ref.schema().FindField(key_column);
  if (!idx.has_value()) {
    return Status::NotFound("reference key column missing: " + key_column);
  }
  const auto& col = ref.column(*idx);
  if (col.type() != DataType::kInt64) {
    return Status::InvalidArgument("reference keys must be int64: " +
                                   key_column);
  }
  std::unordered_map<int64_t, size_t> out;
  out.reserve(ref.num_rows() * 2);
  for (size_t r = 0; r < ref.num_rows(); ++r) {
    if (col.IsNull(r)) continue;
    if (!out.emplace(col.Int64At(r), r).second) {
      return Status::InvalidArgument("duplicate reference key");
    }
  }
  return out;
}

namespace {

// Aggregates a set of reference measure values with fn.
double AggregateValues(AggFn fn, const std::vector<double>& vals) {
  if (fn == AggFn::kCount || fn == AggFn::kCountDistinct) {
    return static_cast<double>(vals.size());
  }
  if (vals.empty()) return 0.0;
  NumericAgg agg;
  for (double v : vals) agg.Add(v);
  auto r = agg.Finish(fn);
  return r.value_or(0.0);
}

// Columnar views over fact columns, decoded ONCE before the fill loop.
// The scan previously paid a virtual-shaped type switch (Column::NumericAt /
// Int64At) plus a std::vector<bool> bit probe per cell access per row; the
// views batch that down to a byte-mask load and a raw array load. Double
// columns are aliased zero-copy (null slots hold a 0.0 placeholder, see
// Column::AppendNull); int64 columns read numerically are widened in one
// contiguous pass.
struct NumericColumnView {
  std::vector<uint8_t> nulls;  // 1 = null
  std::vector<double> widened;
  const double* vals = nullptr;

  explicit NumericColumnView(const table::Column& col) {
    const size_t n = col.size();
    nulls.resize(n);
    for (size_t r = 0; r < n; ++r) nulls[r] = col.IsNull(r) ? 1 : 0;
    if (col.type() == DataType::kDouble) {
      vals = col.doubles().data();
    } else {
      BW_CHECK(col.type() == DataType::kInt64);
      widened.resize(n);
      const int64_t* src = col.ints().data();
      for (size_t r = 0; r < n; ++r) {
        widened[r] = static_cast<double>(src[r]);
      }
      vals = widened.data();
    }
  }
  bool IsNull(size_t r) const { return nulls[r] != 0; }
  double At(size_t r) const { return vals[r]; }
};

struct Int64ColumnView {
  std::vector<uint8_t> nulls;  // 1 = null
  const int64_t* vals = nullptr;

  explicit Int64ColumnView(const table::Column& col) {
    BW_CHECK(col.type() == DataType::kInt64);
    const size_t n = col.size();
    nulls.resize(n);
    for (size_t r = 0; r < n; ++r) nulls[r] = col.IsNull(r) ? 1 : 0;
    vals = col.ints().data();
  }
  bool IsNull(size_t r) const { return nulls[r] != 0; }
  int64_t At(size_t r) const { return vals[r]; }
};

// The §4.2 single-OLAP-query pipeline, decomposed into named stages that
// each carry their own trace span. All state accumulated across stages
// lives here; after FindFeasible() it is immutable, so EmitRegionSets can
// assemble region sets on pool workers and stream them into the sink in
// submission (= ascending RegionId) order.
class TrainingDataGenerator {
 public:
  explicit TrainingDataGenerator(const BellwetherSpec& spec)
      : spec_(spec),
        space_(*spec.space),
        fact_(*spec.fact),
        item_table_(*spec.item_table) {}

  Result<TrainingDataProfile> Run(storage::TrainingDataSink* sink) {
    BW_RETURN_IF_ERROR(ValidateSpec(spec_));
    profile_.feature_names = FeatureNames(spec_);
    BW_RETURN_IF_ERROR(BuildItemIndex());
    BW_RETURN_IF_ERROR(PrepareFeatures());
    RankForeignKeys();
    BW_RETURN_IF_ERROR(ScanFactTable());
    RollupCubes();
    BW_RETURN_IF_ERROR(FinishTargets());
    ComputeCoverageAndCosts();
    FindFeasible();
    BW_RETURN_IF_ERROR(EmitRegionSets(sink));
    return std::move(profile_);
  }

 private:
  struct NumericFeature {
    size_t query_index;
    size_t value_col;                                  // column in fact
    const std::unordered_map<int64_t, size_t>* ref_index;  // null for fact
    const table::Column* ref_measure;                  // null for fact
    size_t fk_col;                                     // for reference kinds
    RegionItemCube<NumericAgg> cube;
  };
  struct FkFeature {
    size_t query_index;
    size_t fk_col;
    const std::unordered_map<int64_t, size_t>* ref_index;
    const table::Column* ref_measure;
    // Set by RankForeignKeys. Item i's keys, ranked in ascending key order,
    // occupy [rank_base[i], rank_base[i + 1]) of the per-rank arrays.
    std::vector<int32_t> row_ranks;  // per fact row; -1 when no ranked key
    std::vector<int32_t> rank_base;
    std::vector<double> rank_values;  // reference measure per key
    std::vector<uint8_t> rank_nulls;  // 1 = null measure
    std::optional<KeySetCube> cube;
  };

  // ---- Stage: item dictionary and item-table features ----
  Status BuildItemIndex() {
    obs::TraceSpan span("BuildItemIndex", "datagen");
    const size_t item_id_col =
        item_table_.schema().FieldIndexOrDie(spec_.item_table_id_column);
    std::vector<size_t> item_feat_cols;
    for (const auto& c : spec_.item_feature_columns) {
      item_feat_cols.push_back(item_table_.schema().FieldIndexOrDie(c));
    }
    for (size_t r = 0; r < item_table_.num_rows(); ++r) {
      const auto& idc = item_table_.column(item_id_col);
      if (idc.IsNull(r)) continue;
      const int32_t dense = profile_.items.GetOrAdd(idc.Int64At(r));
      if (dense != static_cast<int32_t>(item_feats_.size())) {
        return Status::InvalidArgument("duplicate item id in item table");
      }
      std::vector<double> f(item_feat_cols.size(), 0.0);
      for (size_t k = 0; k < item_feat_cols.size(); ++k) {
        const auto& col = item_table_.column(item_feat_cols[k]);
        f[k] = col.IsNull(r) ? 0.0 : col.NumericAt(r);
      }
      item_feats_.push_back(std::move(f));
    }
    num_items_ = profile_.items.size();
    if (num_items_ == 0) {
      return Status::FailedPrecondition("item table has no items");
    }
    return Status::OK();
  }

  // ---- Stage: resolve fact columns, key indexes, per-feature cubes ----
  Status PrepareFeatures() {
    obs::TraceSpan span("PrepareFeatures", "datagen");
    fact_item_col_ = fact_.schema().FieldIndexOrDie(spec_.item_id_column);
    for (const auto& c : spec_.dimension_columns) {
      dim_cols_.push_back(fact_.schema().FieldIndexOrDie(c));
    }
    target_col_ = fact_.schema().FieldIndexOrDie(spec_.target_column);

    // Key indexes, one per distinct reference used.
    for (const auto& q : spec_.regional_features) {
      if (q.kind == FeatureQuery::Kind::kFactMeasure) continue;
      if (key_indexes_.count(q.reference)) continue;
      const auto& ref = spec_.references.at(q.reference);
      BW_ASSIGN_OR_RETURN(auto index,
                          BuildKeyIndex(*ref.table, ref.key_column));
      key_indexes_.emplace(q.reference, std::move(index));
    }

    for (size_t qi = 0; qi < spec_.regional_features.size(); ++qi) {
      const auto& q = spec_.regional_features[qi];
      if (q.kind == FeatureQuery::Kind::kFactMeasure) {
        numeric_features_.push_back(
            {qi, fact_.schema().FieldIndexOrDie(q.measure_column), nullptr,
             nullptr, 0, RegionItemCube<NumericAgg>(&space_, num_items_)});
      } else {
        const auto& ref = spec_.references.at(q.reference);
        const table::Column* measure =
            &ref.table->ColumnByName(q.measure_column);
        const size_t fk = fact_.schema().FieldIndexOrDie(q.fk_column);
        if (q.kind == FeatureQuery::Kind::kReferenceMeasure) {
          numeric_features_.push_back(
              {qi, 0, &key_indexes_.at(q.reference), measure, fk,
               RegionItemCube<NumericAgg>(&space_, num_items_)});
        } else {
          fk_features_.push_back(
              {qi, fk, &key_indexes_.at(q.reference), measure, {}, {}, {}, {},
               std::nullopt});
        }
      }
    }
    count_cube_.emplace(&space_, num_items_);
    target_agg_.assign(num_items_, NumericAgg{});

    // Dense item index of every fact row, -1 when null or outside I.
    const Int64ColumnView item_view(fact_.column(fact_item_col_));
    row_items_.assign(fact_.num_rows(), -1);
    for (size_t r = 0; r < fact_.num_rows(); ++r) {
      if (!item_view.IsNull(r)) {
        row_items_[r] = profile_.items.Find(item_view.At(r));
      }
    }
    return Status::OK();
  }

  // ---- Stage: rank each item's distinct foreign keys, size the pi_FK cubes
  // Only keys that occur in the fact table and are in the reference's key
  // index get a rank, so a cube is bounded by the fact table, not by the
  // reference table. The key lookup happens here, once per row.
  void RankForeignKeys() {
    obs::TraceSpan span("RankForeignKeys", "datagen");
    const size_t n = fact_.num_rows();
    // Fact rows grouped by item in row order (a counting sort): item i's
    // rows are item_rows[item_begin[i], item_begin[i + 1]).
    std::vector<size_t> item_begin(num_items_ + 1, 0);
    for (int32_t item : row_items_) {
      if (item >= 0) ++item_begin[item + 1];
    }
    for (int32_t i = 0; i < num_items_; ++i) item_begin[i + 1] += item_begin[i];
    std::vector<size_t> item_rows(item_begin[num_items_]);
    std::vector<size_t> fill(item_begin.begin(), item_begin.end() - 1);
    for (size_t r = 0; r < n; ++r) {
      if (row_items_[r] >= 0) item_rows[fill[row_items_[r]]++] = r;
    }
    constexpr size_t kNoKey = std::numeric_limits<size_t>::max();
    for (auto& ff : fk_features_) {
      const Int64ColumnView fk_view(fact_.column(ff.fk_col));
      std::vector<size_t> ref_rows(n, kNoKey);  // reference row of r's key
      for (size_t r = 0; r < n; ++r) {
        if (row_items_[r] < 0 || fk_view.IsNull(r)) continue;
        const auto it = ff.ref_index->find(fk_view.At(r));
        if (it != ff.ref_index->end()) ref_rows[r] = it->second;
      }
      // Per reference row: the last item that referenced it, and the key's
      // rank within that item.
      std::vector<int32_t> seen_by(ff.ref_measure->size(), -1);
      std::vector<int32_t> rank_of(ff.ref_measure->size(), 0);
      std::vector<std::pair<int64_t, size_t>> keys;  // (key, reference row)
      ff.row_ranks.assign(n, -1);
      ff.rank_base.assign(num_items_ + 1, 0);
      ff.rank_values.clear();
      ff.rank_nulls.clear();
      std::vector<int32_t> keys_per_item(num_items_, 0);
      for (int32_t i = 0; i < num_items_; ++i) {
        const auto first = item_rows.begin() + item_begin[i];
        const auto last = item_rows.begin() + item_begin[i + 1];
        keys.clear();
        for (auto r = first; r != last; ++r) {
          const size_t ref = ref_rows[*r];
          if (ref != kNoKey && seen_by[ref] != i) {
            seen_by[ref] = i;
            keys.emplace_back(fk_view.At(*r), ref);
          }
        }
        std::sort(keys.begin(), keys.end());
        ff.rank_base[i] = static_cast<int32_t>(ff.rank_values.size());
        for (size_t k = 0; k < keys.size(); ++k) {
          const size_t ref = keys[k].second;
          rank_of[ref] = static_cast<int32_t>(k);
          const bool null = ff.ref_measure->IsNull(ref);
          ff.rank_nulls.push_back(null ? 1 : 0);
          ff.rank_values.push_back(null ? 0.0 : ff.ref_measure->NumericAt(ref));
        }
        for (auto r = first; r != last; ++r) {
          if (ref_rows[*r] != kNoKey) ff.row_ranks[*r] = rank_of[ref_rows[*r]];
        }
        keys_per_item[i] = static_cast<int32_t>(keys.size());
      }
      ff.rank_base[num_items_] = static_cast<int32_t>(ff.rank_values.size());
      ff.cube.emplace(&space_, keys_per_item);
    }
  }

  // ---- Stage: single pass over the fact table, with row quarantine ----
  Status ScanFactTable() {
    obs::TraceSpan span("FactTableScan", "datagen");
    obs::DefaultMetrics()
        .GetCounter(obs::kMDatagenFactRowsScanned)
        ->Increment(static_cast<int64_t>(fact_.num_rows()));
    obs::Counter* quarantined_counter =
        obs::DefaultMetrics().GetCounter(obs::kMDatagenRowsQuarantined);

    // Decode every column the fill loop touches into a columnar batch view
    // up front (one pass per column) instead of paying the per-row type
    // switch inside the hot loop.
    const NumericColumnView target_view(fact_.column(target_col_));
    std::vector<Int64ColumnView> dim_views;
    dim_views.reserve(dim_cols_.size());
    for (size_t c : dim_cols_) dim_views.emplace_back(fact_.column(c));
    // Parallel to numeric_features_: the measure view for fact-measure
    // features, the FK view for reference-measure features.
    std::vector<std::optional<NumericColumnView>> measure_views(
        numeric_features_.size());
    std::vector<std::optional<Int64ColumnView>> nf_fk_views(
        numeric_features_.size());
    for (size_t k = 0; k < numeric_features_.size(); ++k) {
      if (numeric_features_[k].ref_index == nullptr) {
        measure_views[k].emplace(
            fact_.column(numeric_features_[k].value_col));
      } else {
        nf_fk_views[k].emplace(fact_.column(numeric_features_[k].fk_col));
      }
    }

    olap::PointCoords point(space_.num_dims());
    for (size_t r = 0; r < fact_.num_rows(); ++r) {
      ++profile_.row_quarantine.rows_seen;
      // Row validation happens before any accumulation, so a quarantined
      // row contributes to no aggregate. On clean data no check fires and
      // the generated training data is bit-identical to the unhardened
      // path. Fault injection stays per-row, in row order.
      Status row_st = Status::OK();
      if (robust::ShouldCorrupt(robust::kFaultDatagenRow)) {
        row_st = Status::InvalidArgument("injected corrupt row");
      } else if (!target_view.IsNull(r) &&
                 !std::isfinite(target_view.At(r))) {
        row_st = Status::InvalidArgument("non-finite target value");
      } else {
        for (size_t k = 0; k < numeric_features_.size(); ++k) {
          if (numeric_features_[k].ref_index != nullptr) continue;
          const NumericColumnView& mv = *measure_views[k];
          if (!mv.IsNull(r) && !std::isfinite(mv.At(r))) {
            row_st = Status::InvalidArgument(
                "non-finite measure in column '" +
                fact_.schema().field(numeric_features_[k].value_col).name +
                "'");
            break;
          }
        }
      }
      if (!row_st.ok()) {
        const std::string context =
            "fact row " + std::to_string(r) + ": " + row_st.message();
        if (spec_.row_policy == robust::RowErrorPolicy::kStrict) {
          return Status(row_st.code(), context);
        }
        profile_.row_quarantine.Quarantine(context);
        quarantined_counter->Increment();
        BW_LOG(obs::LogLevel::kWarn, "datagen") << "quarantined " << context;
        continue;
      }
      const int32_t item = row_items_[r];
      if (item < 0) continue;  // no item, or an item outside I
      bool coords_ok = true;
      for (size_t d = 0; d < dim_views.size(); ++d) {
        if (dim_views[d].IsNull(r)) {
          coords_ok = false;
          break;
        }
        point[d] = static_cast<int32_t>(dim_views[d].At(r));
      }
      if (!coords_ok) continue;
      // Target accumulates over the whole space.
      if (!target_view.IsNull(r)) {
        target_agg_[item].Add(target_view.At(r));
      }
      // The base-cell region id is the same for every cube; encode once per
      // row instead of once per cube per row.
      const RegionId base = space_.Encode(space_.BaseCellOf(point));
      count_cube_->Cell(base, item).Add(1.0);
      for (size_t k = 0; k < numeric_features_.size(); ++k) {
        auto& nf = numeric_features_[k];
        if (nf.ref_index == nullptr) {
          const NumericColumnView& mv = *measure_views[k];
          if (!mv.IsNull(r)) {
            nf.cube.Cell(base, item).Add(mv.At(r));
          }
        } else {
          const Int64ColumnView& fkv = *nf_fk_views[k];
          if (fkv.IsNull(r)) continue;
          auto it = nf.ref_index->find(fkv.At(r));
          if (it == nf.ref_index->end() ||
              nf.ref_measure->IsNull(it->second)) {
            continue;
          }
          nf.cube.Cell(base, item).Add(nf.ref_measure->NumericAt(it->second));
        }
      }
      for (auto& ff : fk_features_) {
        if (ff.row_ranks[r] >= 0) ff.cube->Insert(base, item, ff.row_ranks[r]);
      }
    }
    return Status::OK();
  }

  // ---- Stage: CUBE rollups ----
  void RollupCubes() {
    obs::TraceSpan span("CubeRollup", "datagen");
    count_cube_->Rollup();
    for (auto& nf : numeric_features_) nf.cube.Rollup();
    for (auto& ff : fk_features_) ff.cube->Rollup();
  }

  // ---- Stage: per-item targets ----
  Status FinishTargets() {
    obs::TraceSpan span("FinishTargets", "datagen");
    profile_.targets.assign(num_items_,
                            std::numeric_limits<double>::quiet_NaN());
    for (int32_t i = 0; i < num_items_; ++i) {
      auto v = target_agg_[i].Finish(spec_.target_fn);
      if (v.has_value()) {
        profile_.targets[i] = *v;
        ++num_valid_items_;
      }
    }
    if (num_valid_items_ == 0) {
      return Status::FailedPrecondition("no item has a target value");
    }
    return Status::OK();
  }

  // ---- Stage: coverage and costs ----
  void ComputeCoverageAndCosts() {
    obs::TraceSpan span("CoverageAndCosts", "datagen");
    profile_.region_costs = spec_.cost->region_costs();
    profile_.region_coverage.assign(space_.NumRegions(), 0.0);
    for (RegionId reg = 0; reg < space_.NumRegions(); ++reg) {
      int64_t covered = 0;
      for (int32_t i = 0; i < num_items_; ++i) {
        if (std::isnan(profile_.targets[i])) continue;
        if (count_cube_->Cell(reg, i).count > 0) ++covered;
      }
      profile_.region_coverage[reg] = static_cast<double>(covered) /
                                      static_cast<double>(num_valid_items_);
    }
  }

  // ---- Stage: feasible regions (iceberg) ----
  void FindFeasible() {
    obs::TraceSpan span("FindFeasibleRegions", "datagen");
    profile_.feasible = olap::FindFeasibleRegionsPruned(
        space_, profile_.region_costs, profile_.region_coverage,
        spec_.budget, spec_.min_coverage);
    obs::DefaultMetrics()
        .GetCounter(obs::kMSearchRegionsPrunedCost)
        ->Increment(profile_.feasible.pruned_by_cost);
    obs::DefaultMetrics()
        .GetCounter(obs::kMSearchRegionsPrunedCoverage)
        ->Increment(profile_.feasible.pruned_by_coverage);
  }

  // Assembles one region's training set from the rolled-up cubes. Reads
  // only state frozen before emission starts, so it is safe to run on pool
  // workers.
  RegionTrainingSet BuildRegionSet(RegionId reg) const {
    const int32_t p = static_cast<int32_t>(profile_.feature_names.size());
    // Shells come from the arena (the spill sinks recycle them after the
    // write), so steady-state emission does no buffer allocation at all.
    RegionTrainingSet set = storage::RegionSetArena::Default().Acquire();
    set.region = reg;
    set.num_features = p;
    // Exact reserves: count the region's rows first so a cold shell sizes
    // each buffer exactly once instead of growing geometrically.
    size_t rows = 0;
    for (int32_t i = 0; i < num_items_; ++i) {
      if (std::isnan(profile_.targets[i])) continue;
      if (count_cube_->Cell(reg, i).count > 0) ++rows;
    }
    set.items.reserve(rows);
    set.targets.reserve(rows);
    if (spec_.weight_by_support) set.weights.reserve(rows);
    set.features.reserve(rows * static_cast<size_t>(p));
    std::vector<double> fk_vals;  // per-call scratch
    for (int32_t i = 0; i < num_items_; ++i) {
      if (std::isnan(profile_.targets[i])) continue;
      if (count_cube_->Cell(reg, i).count == 0) continue;  // i not in I_r
      set.items.push_back(i);
      set.targets.push_back(profile_.targets[i]);
      if (spec_.weight_by_support) {
        set.weights.push_back(
            static_cast<double>(count_cube_->Cell(reg, i).count));
      }
      set.features.push_back(1.0);  // intercept
      for (double f : item_feats_[i]) set.features.push_back(f);
      // Regional features, in query order.
      size_t nf_i = 0, ff_i = 0;
      for (size_t qi = 0; qi < spec_.regional_features.size(); ++qi) {
        const auto& q = spec_.regional_features[qi];
        if (q.kind == FeatureQuery::Kind::kFkDistinctMeasure) {
          // The set bits in ascending rank order are the keys in ascending
          // key order, so AggregateValues sees the values in key order.
          const auto& ff = fk_features_[ff_i++];
          const int32_t base = ff.rank_base[i];
          fk_vals.clear();
          ff.cube->ForEachRank(reg, i, [&](int32_t rank) {
            if (!ff.rank_nulls[base + rank]) {
              fk_vals.push_back(ff.rank_values[base + rank]);
            }
          });
          set.features.push_back(AggregateValues(q.fn, fk_vals));
        } else {
          const auto& nf = numeric_features_[nf_i++];
          const auto v = nf.cube.Cell(reg, i).Finish(q.fn);
          set.features.push_back(v.value_or(0.0));
        }
      }
    }
    return set;
  }

  // ---- Stage: stream every feasible region's set into the sink ----
  Status EmitRegionSets(storage::TrainingDataSink* sink) {
    obs::TraceSpan span("EmitRegionSets", "datagen");
    const int32_t num_threads =
        exec::ResolveNumThreads(spec_.exec.num_threads);
    std::unique_ptr<exec::ThreadPool> pool;
    if (num_threads > 1) pool = std::make_unique<exec::ThreadPool>(num_threads);
    int64_t rows_emitted = 0;
    {
      // Sets are appended to the sink strictly in submission order — the
      // ascending RegionId order of feasible.regions — so the emitted
      // stream is bit-identical to the serial loop at any thread count.
      exec::MergeInSubmissionOrder<RegionTrainingSet> reducer(
          pool.get(), /*max_outstanding=*/4 * static_cast<size_t>(num_threads),
          "datagen.emit_batch",
          [&](size_t, RegionTrainingSet set) -> Status {
            rows_emitted += static_cast<int64_t>(set.num_examples());
            return sink->Append(std::move(set));
          });
      for (RegionId reg : profile_.feasible.regions) {
        BW_RETURN_IF_ERROR(
            reducer.Submit([this, reg] { return BuildRegionSet(reg); }));
      }
      BW_RETURN_IF_ERROR(reducer.Finish());
    }
    obs::DefaultMetrics()
        .GetCounter(obs::kMDatagenRegionSetsEmitted)
        ->Increment(static_cast<int64_t>(profile_.feasible.regions.size()));
    obs::DefaultMetrics()
        .GetCounter(obs::kMDatagenTrainingRowsEmitted)
        ->Increment(rows_emitted);
    BW_LOG(obs::LogLevel::kInfo, "datagen")
        .Field("fact_rows", fact_.num_rows())
        .Field("feasible_regions", profile_.feasible.regions.size())
        .Field("pruned_by_cost", profile_.feasible.pruned_by_cost)
        .Field("pruned_by_coverage", profile_.feasible.pruned_by_coverage)
        .Field("training_rows", rows_emitted)
        << "training data generated";
    return Status::OK();
  }

  const BellwetherSpec& spec_;
  const olap::RegionSpace& space_;
  const Table& fact_;
  const Table& item_table_;

  TrainingDataProfile profile_;
  std::vector<std::vector<double>> item_feats_;  // dense index -> features
  int32_t num_items_ = 0;
  int64_t num_valid_items_ = 0;

  size_t fact_item_col_ = 0;
  std::vector<int32_t> row_items_;  // dense item per fact row, -1 if none
  std::vector<size_t> dim_cols_;
  size_t target_col_ = 0;

  std::unordered_map<std::string, std::unordered_map<int64_t, size_t>>
      key_indexes_;
  std::vector<NumericFeature> numeric_features_;
  std::vector<FkFeature> fk_features_;
  std::optional<RegionItemCube<NumericAgg>> count_cube_;
  std::vector<NumericAgg> target_agg_;
};

}  // namespace

std::vector<std::string> FeatureNames(const BellwetherSpec& spec) {
  std::vector<std::string> names;
  names.reserve(1 + spec.item_feature_columns.size() +
                spec.regional_features.size());
  names.push_back("(intercept)");
  for (const auto& c : spec.item_feature_columns) names.push_back(c);
  for (const auto& q : spec.regional_features) names.push_back(q.name);
  return names;
}

int64_t TrainingDataProfile::FindSet(olap::RegionId region) const {
  // Sets are emitted 1:1 with feasible.regions, which FindFeasibleRegions
  // produces in ascending RegionId order (the invariant every sink enforces
  // at Finish time).
  const auto& regs = feasible.regions;
  const auto it = std::lower_bound(regs.begin(), regs.end(), region);
  if (it == regs.end() || *it != region) return -1;
  return static_cast<int64_t>(it - regs.begin());
}

const std::vector<storage::RegionTrainingSet>*
GeneratedTrainingData::memory_sets() const {
  const auto* mem =
      dynamic_cast<const storage::MemoryTrainingData*>(source.get());
  return mem == nullptr ? nullptr : &mem->sets();
}

Result<TrainingDataProfile> GenerateTrainingData(
    const BellwetherSpec& spec, storage::TrainingDataSink* sink) {
  obs::TraceSpan span("GenerateTrainingData", "datagen");
  if (sink == nullptr) {
    return Status::InvalidArgument("GenerateTrainingData: sink is null");
  }
  TrainingDataGenerator generator(spec);
  return generator.Run(sink);
}

Result<GeneratedTrainingData> GenerateTrainingDataInMemory(
    const BellwetherSpec& spec) {
  storage::MemorySink sink;
  BW_ASSIGN_OR_RETURN(TrainingDataProfile profile,
                      GenerateTrainingData(spec, &sink));
  BW_ASSIGN_OR_RETURN(auto source, sink.Finish());
  GeneratedTrainingData out;
  out.profile = std::move(profile);
  out.source = std::move(source);
  return out;
}

namespace {

// Shared tail of the naive per-region and per-cell-set generators: given the
// region-restricted fact rows, evaluate the original-form feature queries
// with plain relational operators and assemble the training set.
Result<RegionTrainingSet> BuildFromFilteredFact(const BellwetherSpec& spec,
                                                const Table& filtered,
                                                RegionId region) {
  const Table& fact = *spec.fact;
  const Table& item_table = *spec.item_table;

  // Item dictionary in item-table order (matches GenerateTrainingData).
  olap::ItemDictionary items;
  const size_t item_id_col =
      item_table.schema().FieldIndexOrDie(spec.item_table_id_column);
  for (size_t r = 0; r < item_table.num_rows(); ++r) {
    if (item_table.column(item_id_col).IsNull(r)) continue;
    items.GetOrAdd(item_table.column(item_id_col).Int64At(r));
  }

  // Targets: aggregate the whole fact table per item.
  BW_ASSIGN_OR_RETURN(
      Table targets_tbl,
      table::GroupByAggregate(fact, {spec.item_id_column},
                              {{spec.target_fn, spec.target_column, "__y"}}));
  std::unordered_map<int64_t, double> target_of;
  for (size_t r = 0; r < targets_tbl.num_rows(); ++r) {
    const auto id = targets_tbl.ValueAt(r, 0);
    const auto y = targets_tbl.ValueAt(r, 1);
    if (id.is_null() || y.is_null()) continue;
    target_of[id.int64()] = y.AsDouble();
  }

  // Per-feature per-item values via the original query forms.
  std::vector<std::unordered_map<int64_t, double>> feature_of(
      spec.regional_features.size());
  for (size_t qi = 0; qi < spec.regional_features.size(); ++qi) {
    const auto& q = spec.regional_features[qi];
    Table result;
    if (q.kind == FeatureQuery::Kind::kFactMeasure) {
      BW_ASSIGN_OR_RETURN(
          result, table::GroupByAggregate(filtered, {spec.item_id_column},
                                          {{q.fn, q.measure_column, "__f"}}));
    } else {
      const auto it = spec.references.find(q.reference);
      if (it == spec.references.end()) {
        return Status::NotFound("unknown reference table: " + q.reference);
      }
      Table join_input = filtered;
      if (q.kind == FeatureQuery::Kind::kFkDistinctMeasure) {
        BW_ASSIGN_OR_RETURN(join_input,
                            table::ProjectDistinct(
                                filtered, {spec.item_id_column, q.fk_column}));
      }
      BW_ASSIGN_OR_RETURN(
          Table joined,
          table::KeyForeignKeyJoin(join_input, q.fk_column,
                                   *it->second.table, it->second.key_column));
      // The joined measure column may have been renamed on collision.
      std::string measure = q.measure_column;
      if (!joined.schema().FindField(measure).has_value()) {
        measure = it->second.key_column + "." + q.measure_column;
      }
      BW_ASSIGN_OR_RETURN(
          result, table::GroupByAggregate(joined, {spec.item_id_column},
                                          {{q.fn, measure, "__f"}}));
    }
    for (size_t r = 0; r < result.num_rows(); ++r) {
      const auto id = result.ValueAt(r, 0);
      const auto v = result.ValueAt(r, 1);
      if (id.is_null()) continue;
      feature_of[qi][id.int64()] = v.is_null() ? 0.0 : v.AsDouble();
    }
  }

  // Items with data in the region, with their row counts (the WLS support
  // weights when spec.weight_by_support).
  BW_ASSIGN_OR_RETURN(
      Table region_items,
      table::GroupByAggregate(filtered, {spec.item_id_column},
                              {{table::AggFn::kCount, spec.item_id_column,
                                "__n"}}));
  std::unordered_map<int64_t, int64_t> in_region;
  for (size_t r = 0; r < region_items.num_rows(); ++r) {
    if (!region_items.ValueAt(r, 0).is_null()) {
      in_region[region_items.ValueAt(r, 0).int64()] =
          region_items.ValueAt(r, 1).int64();
    }
  }

  // Item features.
  std::vector<size_t> item_feat_cols;
  for (const auto& c : spec.item_feature_columns) {
    item_feat_cols.push_back(item_table.schema().FieldIndexOrDie(c));
  }

  RegionTrainingSet set;
  set.region = region;
  set.num_features = static_cast<int32_t>(1 + item_feat_cols.size() +
                                          spec.regional_features.size());
  for (size_t r = 0; r < item_table.num_rows(); ++r) {
    if (item_table.column(item_id_col).IsNull(r)) continue;
    const int64_t id = item_table.column(item_id_col).Int64At(r);
    const auto reg_it = in_region.find(id);
    if (reg_it == in_region.end()) continue;
    auto t = target_of.find(id);
    if (t == target_of.end()) continue;
    set.items.push_back(items.Find(id));
    set.targets.push_back(t->second);
    if (spec.weight_by_support) {
      set.weights.push_back(static_cast<double>(reg_it->second));
    }
    set.features.push_back(1.0);
    for (size_t c : item_feat_cols) {
      const auto& col = item_table.column(c);
      set.features.push_back(col.IsNull(r) ? 0.0 : col.NumericAt(r));
    }
    for (size_t qi = 0; qi < spec.regional_features.size(); ++qi) {
      auto f = feature_of[qi].find(id);
      set.features.push_back(f == feature_of[qi].end() ? 0.0 : f->second);
    }
  }
  return set;
}

}  // namespace

Result<RegionTrainingSet> GenerateRegionTrainingSetNaive(
    const BellwetherSpec& spec, olap::RegionId region) {
  BW_RETURN_IF_ERROR(ValidateSpec(spec));
  std::vector<size_t> dim_cols;
  for (const auto& c : spec.dimension_columns) {
    dim_cols.push_back(spec.fact->schema().FieldIndexOrDie(c));
  }
  const olap::RegionSpace& space = *spec.space;
  olap::PointCoords point(space.num_dims());
  const Table filtered = table::Select(
      *spec.fact, [&](const Table& t, size_t row) {
        for (size_t d = 0; d < dim_cols.size(); ++d) {
          const auto& col = t.column(dim_cols[d]);
          if (col.IsNull(row)) return false;
          point[d] = static_cast<int32_t>(col.Int64At(row));
        }
        return space.RegionContainsPoint(region, point);
      });
  return BuildFromFilteredFact(spec, filtered, region);
}

Result<RegionTrainingSet> GenerateCellSetTrainingSet(
    const BellwetherSpec& spec, const std::vector<int64_t>& finest_cells) {
  BW_RETURN_IF_ERROR(ValidateSpec(spec));
  std::unordered_set<int64_t> cells(finest_cells.begin(), finest_cells.end());
  std::vector<size_t> dim_cols;
  for (const auto& c : spec.dimension_columns) {
    dim_cols.push_back(spec.fact->schema().FieldIndexOrDie(c));
  }
  const olap::RegionSpace& space = *spec.space;
  olap::PointCoords point(space.num_dims());
  const Table filtered = table::Select(
      *spec.fact, [&](const Table& t, size_t row) {
        for (size_t d = 0; d < dim_cols.size(); ++d) {
          const auto& col = t.column(dim_cols[d]);
          if (col.IsNull(row)) return false;
          point[d] = static_cast<int32_t>(col.Int64At(row));
        }
        return cells.count(space.FinestCellOf(point)) > 0;
      });
  return BuildFromFilteredFact(spec, filtered, olap::kInvalidRegion);
}

}  // namespace bellwether::core
