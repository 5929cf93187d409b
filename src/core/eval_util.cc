#include "core/eval_util.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

namespace bellwether::core {

double TrainingErrorOfStats(const regression::RegressionSuffStats& stats,
                            int32_t min_examples) {
  if (stats.num_examples() < std::max<int64_t>(min_examples, 2)) {
    return std::numeric_limits<double>::infinity();
  }
  auto rmse = stats.TrainingRmse();
  return rmse.ok() ? *rmse : std::numeric_limits<double>::infinity();
}

regression::Dataset ToDataset(const storage::RegionTrainingSet& set,
                              const std::vector<uint8_t>* item_mask) {
  regression::Dataset data(set.num_features);
  data.Reserve(set.num_examples());
  std::vector<double> row(set.num_features);
  for (size_t i = 0; i < set.num_examples(); ++i) {
    const int32_t item = set.items[i];
    if (item_mask != nullptr &&
        (static_cast<size_t>(item) >= item_mask->size() ||
         (*item_mask)[item] == 0)) {
      continue;
    }
    row.assign(set.row(i), set.row(i) + set.num_features);
    if (set.weighted()) {
      data.AddWeighted(row, set.targets[i], set.weight(i));
    } else {
      data.Add(row, set.targets[i]);
    }
  }
  return data;
}

Status ModelArityMismatch(size_t model_features, size_t row_features) {
  return Status::FailedPrecondition(
      "model has " + std::to_string(model_features) +
      " coefficients but the region's feature rows have " +
      std::to_string(row_features));
}

int64_t FindItemRow(const storage::RegionTrainingSet& set, int32_t item) {
  auto it = std::lower_bound(set.items.begin(), set.items.end(), item);
  if (it == set.items.end() || *it != item) return -1;
  return it - set.items.begin();
}

RegionFeatureLookup::RegionFeatureLookup(
    const std::vector<storage::RegionTrainingSet>* sets)
    : sets_(sets) {
  region_index_.reserve(sets->size());
  for (size_t i = 0; i < sets->size(); ++i) {
    region_index_.emplace_back((*sets)[i].region, i);
  }
  std::sort(region_index_.begin(), region_index_.end());
}

const double* RegionFeatureLookup::Find(int64_t region, int32_t item,
                                        size_t* num_features) const {
  auto it = std::lower_bound(region_index_.begin(), region_index_.end(),
                             std::make_pair(region, size_t{0}));
  if (it == region_index_.end() || it->first != region) return nullptr;
  const auto& set = (*sets_)[it->second];
  const int64_t row = FindItemRow(set, item);
  if (row < 0) return nullptr;
  if (num_features != nullptr) {
    *num_features = static_cast<size_t>(set.num_features);
  }
  return set.row(static_cast<size_t>(row));
}

double RegionFeatureLookup::TargetOf(int64_t region, int32_t item) const {
  auto it = std::lower_bound(region_index_.begin(), region_index_.end(),
                             std::make_pair(region, size_t{0}));
  if (it == region_index_.end() || it->first != region) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  const auto& set = (*sets_)[it->second];
  const int64_t row = FindItemRow(set, item);
  if (row < 0) return std::numeric_limits<double>::quiet_NaN();
  return set.targets[static_cast<size_t>(row)];
}

uint64_t RegionSeed(uint64_t base_seed, int64_t region) {
  // splitmix-style mix of the two inputs.
  uint64_t z = base_seed + 0x9E3779B97F4A7C15ULL * (static_cast<uint64_t>(region) + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace bellwether::core
