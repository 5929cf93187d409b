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

/// Row index of `item` within `set.items` (which is ascending), or -1.
int64_t FindItemRow(const storage::RegionTrainingSet& set, int32_t item);

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
/// fetched from that region's data.
class RegionFeatureLookup {
 public:
  /// `sets` must outlive the lookup.
  explicit RegionFeatureLookup(
      const std::vector<storage::RegionTrainingSet>* sets);

  /// Feature row of `item` in `region`, or nullptr when the item has no data
  /// there (or the region is not materialized). When `num_features` is
  /// non-null, a found row's length (its set's arity) is stored there.
  const double* Find(int64_t region, int32_t item,
                     size_t* num_features = nullptr) const;

  /// Target of `item` in `region`'s set, or NaN.
  double TargetOf(int64_t region, int32_t item) const;

 private:
  const std::vector<storage::RegionTrainingSet>* sets_;
  std::vector<std::pair<int64_t, size_t>> region_index_;  // sorted by region
};

}  // namespace bellwether::core

#endif  // BELLWETHER_CORE_EVAL_UTIL_H_
