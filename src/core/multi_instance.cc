#include "core/multi_instance.h"

#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <unordered_map>

#include "common/check.h"
#include "core/eval_util.h"
#include "core/training_data_gen.h"
#include "olap/cube.h"

namespace bellwether::core {

namespace {

using olap::NumericAgg;
using table::AggFn;
using table::Table;

// Key of one instance: (dense item index, finest cell id).
using InstanceKey = std::pair<int32_t, int64_t>;

}  // namespace

Result<BagTrainingSet> GenerateBagTrainingSet(const BellwetherSpec& spec,
                                              olap::RegionId region) {
  BW_RETURN_IF_ERROR(ValidateSpec(spec));
  const olap::RegionSpace& space = *spec.space;
  const Table& fact = *spec.fact;
  const Table& item_table = *spec.item_table;

  // Item dictionary + numeric item features + targets over the whole fact.
  olap::ItemDictionary items;
  const size_t item_id_col =
      item_table.schema().FieldIndexOrDie(spec.item_table_id_column);
  std::vector<std::vector<double>> item_feats;
  std::vector<size_t> feat_cols;
  for (const auto& c : spec.item_feature_columns) {
    feat_cols.push_back(item_table.schema().FieldIndexOrDie(c));
  }
  for (size_t r = 0; r < item_table.num_rows(); ++r) {
    if (item_table.column(item_id_col).IsNull(r)) continue;
    items.GetOrAdd(item_table.column(item_id_col).Int64At(r));
    std::vector<double> f;
    for (size_t c : feat_cols) {
      f.push_back(item_table.column(c).IsNull(r)
                      ? 0.0
                      : item_table.column(c).NumericAt(r));
    }
    item_feats.push_back(std::move(f));
  }

  // Resolve fact columns.
  const size_t fact_item_col =
      fact.schema().FieldIndexOrDie(spec.item_id_column);
  std::vector<size_t> dim_cols;
  for (const auto& c : spec.dimension_columns) {
    dim_cols.push_back(fact.schema().FieldIndexOrDie(c));
  }
  const size_t target_col = fact.schema().FieldIndexOrDie(spec.target_column);

  // Reference key indexes.
  std::unordered_map<std::string, std::unordered_map<int64_t, size_t>>
      key_indexes;
  for (const auto& q : spec.regional_features) {
    if (q.kind == FeatureQuery::Kind::kFactMeasure) continue;
    if (key_indexes.count(q.reference)) continue;
    const ReferenceTable& ref = spec.references.at(q.reference);
    BW_ASSIGN_OR_RETURN(auto index, BuildKeyIndex(*ref.table, ref.key_column));
    key_indexes.emplace(q.reference, std::move(index));
  }

  // One pass over the fact table: route rows inside the region to their
  // finest cell and accumulate per-(item, cell) aggregates per feature.
  const size_t num_queries = spec.regional_features.size();
  std::map<InstanceKey, std::vector<NumericAgg>> numeric;
  // Per instance and pi_FK query: the distinct keys, ascending.
  std::map<InstanceKey, std::vector<std::set<int64_t>>> fk_sets;
  std::vector<NumericAgg> target_agg(items.size());
  olap::PointCoords point(space.num_dims());
  for (size_t r = 0; r < fact.num_rows(); ++r) {
    if (fact.column(fact_item_col).IsNull(r)) continue;
    const int32_t item = items.Find(fact.column(fact_item_col).Int64At(r));
    if (item < 0) continue;
    bool ok = true;
    for (size_t d = 0; d < dim_cols.size(); ++d) {
      if (fact.column(dim_cols[d]).IsNull(r)) {
        ok = false;
        break;
      }
      point[d] = static_cast<int32_t>(fact.column(dim_cols[d]).Int64At(r));
    }
    if (!ok) continue;
    if (!fact.column(target_col).IsNull(r)) {
      target_agg[item].Add(fact.column(target_col).NumericAt(r));
    }
    if (!space.RegionContainsPoint(region, point)) continue;
    const InstanceKey key{item, space.FinestCellOf(point)};
    auto& nagg = numeric[key];
    if (nagg.empty()) nagg.resize(num_queries);
    auto fk_it = fk_sets.end();
    for (size_t qi = 0; qi < num_queries; ++qi) {
      const auto& q = spec.regional_features[qi];
      switch (q.kind) {
        case FeatureQuery::Kind::kFactMeasure: {
          const auto& col = fact.ColumnByName(q.measure_column);
          if (!col.IsNull(r)) nagg[qi].Add(col.NumericAt(r));
          break;
        }
        case FeatureQuery::Kind::kReferenceMeasure: {
          const auto& fkc = fact.ColumnByName(q.fk_column);
          if (fkc.IsNull(r)) break;
          const auto& index = key_indexes.at(q.reference);
          auto hit = index.find(fkc.Int64At(r));
          if (hit == index.end()) break;
          const auto& measure =
              spec.references.at(q.reference).table->ColumnByName(
                  q.measure_column);
          if (!measure.IsNull(hit->second)) {
            nagg[qi].Add(measure.NumericAt(hit->second));
          }
          break;
        }
        case FeatureQuery::Kind::kFkDistinctMeasure: {
          const auto& fkc = fact.ColumnByName(q.fk_column);
          if (fkc.IsNull(r)) break;
          if (key_indexes.at(q.reference).count(fkc.Int64At(r)) == 0) break;
          if (fk_it == fk_sets.end()) {
            fk_it = fk_sets.try_emplace(key).first;
            if (fk_it->second.empty()) fk_it->second.resize(num_queries);
          }
          fk_it->second[qi].insert(fkc.Int64At(r));
          break;
        }
      }
    }
  }

  // Assemble the bags (items in dictionary order; cells ascending — the
  // std::map iteration order).
  BagTrainingSet out;
  out.region = region;
  out.num_features = static_cast<int32_t>(1 + feat_cols.size() + num_queries);
  std::map<int32_t, InstanceBag> bag_of;
  for (const auto& [key, nagg] : numeric) {
    const auto [item, cell] = key;
    auto [it, inserted] = bag_of.try_emplace(item);
    InstanceBag& bag = it->second;
    if (inserted) {
      bag.item = item;
      bag.num_features = out.num_features;
    }
    bag.instances.push_back(1.0);  // intercept
    for (double f : item_feats[item]) bag.instances.push_back(f);
    for (size_t qi = 0; qi < num_queries; ++qi) {
      const auto& q = spec.regional_features[qi];
      if (q.kind == FeatureQuery::Kind::kFkDistinctMeasure) {
        auto fs = fk_sets.find(key);
        double v = 0.0;
        if (fs != fk_sets.end() && !fs->second[qi].empty()) {
          if (q.fn == AggFn::kCount || q.fn == AggFn::kCountDistinct) {
            v = static_cast<double>(fs->second[qi].size());
          } else {
            NumericAgg agg;
            const auto& measure =
                spec.references.at(q.reference).table->ColumnByName(
                    q.measure_column);
            const auto& index = key_indexes.at(q.reference);
            for (int64_t fk : fs->second[qi]) {
              auto hit = index.find(fk);
              if (hit != index.end() && !measure.IsNull(hit->second)) {
                agg.Add(measure.NumericAt(hit->second));
              }
            }
            v = agg.Finish(q.fn).value_or(0.0);
          }
        }
        bag.instances.push_back(v);
      } else {
        bag.instances.push_back(nagg[qi].Finish(q.fn).value_or(0.0));
      }
    }
  }
  for (auto& [item, bag] : bag_of) {
    const auto target = target_agg[item].Finish(spec.target_fn);
    if (!target.has_value()) continue;
    out.bags.push_back(std::move(bag));
    out.targets.push_back(*target);
  }
  return out;
}

std::vector<double> MeanEmbeddingModel::Embed(const InstanceBag& bag) {
  std::vector<double> mean(bag.num_features, 0.0);
  const size_t n = bag.num_instances();
  if (n == 0) return mean;
  for (size_t k = 0; k < n; ++k) {
    const double* x = bag.instance(k);
    for (int32_t j = 0; j < bag.num_features; ++j) mean[j] += x[j];
  }
  for (double& v : mean) v /= static_cast<double>(n);
  return mean;
}

Result<MeanEmbeddingModel> MeanEmbeddingModel::Fit(
    const BagTrainingSet& data) {
  if (data.bags.empty()) {
    return Status::FailedPrecondition("no bags to fit on");
  }
  regression::Dataset embedded(data.num_features);
  for (size_t i = 0; i < data.bags.size(); ++i) {
    embedded.Add(Embed(data.bags[i]), data.targets[i]);
  }
  BW_ASSIGN_OR_RETURN(regression::LinearModel model,
                      regression::FitLeastSquares(embedded));
  return MeanEmbeddingModel(std::move(model));
}

Result<double> MeanEmbeddingModel::Predict(const InstanceBag& bag) const {
  if (bag.num_instances() == 0) {
    return Status::FailedPrecondition("cannot predict from an empty bag");
  }
  return model_.Predict(Embed(bag));
}

Result<regression::ErrorStats> CrossValidateBags(const BagTrainingSet& data,
                                                 int32_t folds, Rng* rng) {
  regression::Dataset embedded(data.num_features);
  for (size_t i = 0; i < data.bags.size(); ++i) {
    embedded.Add(MeanEmbeddingModel::Embed(data.bags[i]), data.targets[i]);
  }
  return regression::CrossValidationError(embedded, folds, rng);
}

Result<MiSearchResult> RunMultiInstanceSearch(const BellwetherSpec& spec,
                                              const MiSearchOptions& options) {
  const olap::RegionSpace& space = *spec.space;
  const int64_t num_items = spec.item_table->num_rows();
  MiSearchResult result;
  double best = std::numeric_limits<double>::infinity();
  BagTrainingSet best_set;
  for (olap::RegionId r = 0; r < space.NumRegions(); ++r) {
    if (spec.cost->RegionCost(r) > spec.budget) continue;
    BW_ASSIGN_OR_RETURN(BagTrainingSet set, GenerateBagTrainingSet(spec, r));
    const double coverage = num_items > 0
                                ? static_cast<double>(set.bags.size()) /
                                      static_cast<double>(num_items)
                                : 0.0;
    if (coverage < spec.min_coverage) continue;
    if (static_cast<int32_t>(set.bags.size()) < options.min_bags) continue;
    Rng rng(RegionSeed(options.seed, r));
    auto err = CrossValidateBags(set, options.cv_folds, &rng);
    if (!err.ok()) continue;
    result.scores.emplace_back(r, err->rmse);
    if (err->rmse < best) {
      best = err->rmse;
      result.bellwether = r;
      result.error = *err;
      best_set = std::move(set);
    }
  }
  if (result.found()) {
    BW_ASSIGN_OR_RETURN(result.model, MeanEmbeddingModel::Fit(best_set));
  }
  return result;
}

}  // namespace bellwether::core
