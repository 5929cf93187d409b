#include "core/eval_util.h"

#include <algorithm>
#include <limits>
#include <string>

#include "common/check.h"

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

RegionFeatureLookup::RegionFeatureLookup(
    const std::vector<storage::RegionTrainingSet>* sets)
    : sets_(sets), set_rows_(sets->size()) {
  constexpr size_t kMaxIndex = std::numeric_limits<int32_t>::max();
  BW_CHECK(sets->size() <= kMaxIndex);
  int64_t max_region = -1;
  for (const auto& set : *sets) max_region = std::max(max_region, set.region);
  set_of_region_.assign(static_cast<size_t>(max_region + 1), -1);
  // The first set of each region and its item range, so the row table is
  // allocated once at its final size.
  size_t num_rows = 0;
  for (size_t i = 0; i < sets->size(); ++i) {
    const storage::RegionTrainingSet& set = (*sets)[i];
    if (set.region < 0 || set_of_region_[set.region] >= 0) continue;
    set_of_region_[set.region] = static_cast<int32_t>(i);
    if (set.items.empty()) continue;
    BW_CHECK(set.num_examples() <= kMaxIndex);
    const auto [lo, hi] =
        std::minmax_element(set.items.begin(), set.items.end());
    SetRows& rows = set_rows_[i];
    rows.first_item = *lo;
    rows.span = static_cast<uint32_t>(int64_t{*hi} - *lo + 1);
    rows.offset = num_rows;
    num_rows += rows.span;
  }
  row_of_.assign(num_rows, -1);
  for (size_t i = 0; i < sets->size(); ++i) {
    const SetRows& rows = set_rows_[i];
    if (rows.span == 0) continue;
    const std::vector<int32_t>& items = (*sets)[i].items;
    for (size_t r = items.size(); r-- > 0;) {
      row_of_[rows.offset +
              static_cast<size_t>(int64_t{items[r]} - rows.first_item)] =
          static_cast<int32_t>(r);  // backwards, so the first row wins
    }
  }
}

double RegionFeatureLookup::TargetOf(int64_t region, int32_t item) const {
  const storage::RegionTrainingSet* set = nullptr;
  const int32_t row = RowOf(region, item, &set);
  if (row < 0) return std::numeric_limits<double>::quiet_NaN();
  return set->targets[static_cast<size_t>(row)];
}

uint64_t RegionSeed(uint64_t base_seed, int64_t region) {
  // splitmix-style mix of the two inputs.
  uint64_t z = base_seed + 0x9E3779B97F4A7C15ULL * (static_cast<uint64_t>(region) + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace bellwether::core
