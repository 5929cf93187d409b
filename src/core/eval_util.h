#ifndef BELLWETHER_CORE_EVAL_UTIL_H_
#define BELLWETHER_CORE_EVAL_UTIL_H_

#include <cstdint>
#include <vector>

#include "regression/dataset.h"
#include "regression/linear_model.h"
#include "storage/training_data.h"

namespace bellwether::core {

/// Training-set RMSE of a (region, subset) model from its sufficient
/// statistic, or +infinity when the model is ineligible (fewer than
/// `min_examples` examples) or numerically unfit. The deterministic error
/// measure both tree builders and all three cube builders optimize, so the
/// equivalence lemmas hold exactly.
double TrainingErrorOfStats(const regression::RegressionSuffStats& stats,
                            int32_t min_examples);

/// Builds a regression dataset from a region training set. When `item_mask`
/// is non-null, only rows whose item index has a non-zero mask entry are
/// included (used by item-centric cross-validation and by the tree/cube
/// algorithms to restrict a region's data to an item subset).
regression::Dataset ToDataset(const storage::RegionTrainingSet& set,
                              const std::vector<uint8_t>* item_mask = nullptr);

/// Deterministic per-region RNG seed so error estimates do not depend on the
/// order in which regions are evaluated.
uint64_t RegionSeed(uint64_t base_seed, int64_t region);

/// The error of applying a model of `model_features` coefficients to a
/// feature row of `row_features` values (a model file written for other
/// data). Kept out of line and cold, so the prediction paths that check
/// for it only branch.
[[gnu::cold]] Status ModelArityMismatch(size_t model_features,
                                        size_t row_features);

/// Random access to the regional feature vector phi_{i,r} of an item, over
/// materialized region training sets. Used at prediction time: after a
/// bellwether region is chosen for a new item, its regional features are
/// fetched from that region's data. Two dense tables make a lookup two
/// loads: region -> set, and per set (item - its first item) -> row. Each
/// set's items must be ascending. When several sets share a region the
/// first one is used, and within a set an item's first row; sets with a
/// negative region are not indexed. Costs 4 bytes per region id up to the
/// largest, plus 4 per (region, item in its set's item range).
class RegionFeatureLookup {
 public:
  /// `sets` must outlive the lookup.
  explicit RegionFeatureLookup(
      const std::vector<storage::RegionTrainingSet>* sets);

  /// Feature row of `item` in `region`, or nullptr when the item has no data
  /// there (or the region is not materialized). When `num_features` is
  /// non-null, a found row's length (its set's arity) is stored there.
  const double* Find(int64_t region, int32_t item,
                     size_t* num_features = nullptr) const {
    const storage::RegionTrainingSet* set = nullptr;
    const int32_t row = RowOf(region, item, &set);
    if (row < 0) return nullptr;
    if (num_features != nullptr) {
      *num_features = static_cast<size_t>(set->num_features);
    }
    return set->row(static_cast<size_t>(row));
  }

  /// Target of `item` in `region`'s set, or NaN.
  double TargetOf(int64_t region, int32_t item) const;

 private:
  struct SetRows {
    int32_t first_item = 0;
    uint32_t span = 0;  // last item - first item + 1; 0 when not indexed
    size_t offset = 0;  // into row_of_
  };

  // Row of `item` in `region`'s set, which is stored in *set, or -1.
  int32_t RowOf(int64_t region, int32_t item,
                const storage::RegionTrainingSet** set) const {
    if (region < 0 || static_cast<uint64_t>(region) >= set_of_region_.size()) {
      return -1;
    }
    const int32_t s = set_of_region_[static_cast<size_t>(region)];
    if (s < 0) return -1;
    const SetRows& rows = set_rows_[static_cast<size_t>(s)];
    const uint64_t k = static_cast<uint64_t>(static_cast<int64_t>(item) -
                                             rows.first_item);
    if (k >= rows.span) return -1;
    *set = &(*sets_)[static_cast<size_t>(s)];
    return row_of_[rows.offset + k];
  }

  const std::vector<storage::RegionTrainingSet>* sets_;
  std::vector<int32_t> set_of_region_;  // region -> index into *sets_, or -1
  std::vector<SetRows> set_rows_;       // per set
  std::vector<int32_t> row_of_;         // (set, item) -> row, or -1
};

}  // namespace bellwether::core

#endif  // BELLWETHER_CORE_EVAL_UTIL_H_
