#ifndef BELLWETHER_CORE_BELLWETHER_CUBE_H_
#define BELLWETHER_CORE_BELLWETHER_CUBE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/eval_util.h"
#include "exec/thread_pool.h"
#include "obs/report.h"
#include "olap/region.h"
#include "regression/error.h"
#include "regression/linear_model.h"
#include "storage/training_data.h"
#include "table/table.h"

namespace bellwether::core {

/// Identifier of a cube subset of items (a combination of item-hierarchy
/// nodes, paper §6.1). Encoded by an all-hierarchical RegionSpace over the
/// item hierarchies.
using SubsetId = olap::RegionId;

/// One item hierarchy: a categorical item-table column whose values are the
/// leaf labels of a tree (e.g. Category: All -> Hardware -> Desktop).
struct ItemHierarchy {
  std::string column;
  olap::HierarchicalDimension dim;
};

/// The lattice of cube subsets induced by the item hierarchies, with the
/// leaf coordinates of every item. The subsets containing an item depend
/// only on its base subset, so they are enumerated once per distinct base
/// subset (a "base slot") at Create.
class ItemSubsetSpace {
 public:
  /// Items are the rows of `item_table` (dense index = row). Every value of
  /// a hierarchy column must be a leaf label of that hierarchy.
  static Result<std::shared_ptr<ItemSubsetSpace>> Create(
      const table::Table& item_table, std::vector<ItemHierarchy> hierarchies);

  const olap::RegionSpace& space() const { return *space_; }
  size_t num_hierarchies() const { return hierarchies_.size(); }
  const ItemHierarchy& hierarchy(size_t h) const { return hierarchies_[h]; }
  int32_t num_items() const { return static_cast<int32_t>(coords_.size()); }
  int64_t NumSubsets() const { return space_->NumRegions(); }

  /// Leaf coordinates of an item (one leaf NodeId per hierarchy).
  const olap::PointCoords& ItemCoords(int32_t item) const {
    return coords_[item];
  }

  bool SubsetContainsItem(SubsetId subset, int32_t item) const {
    return space_->RegionContainsPoint(subset, coords_[item]);
  }

  /// Dense index of the item's base subset among the items' distinct base
  /// subsets, in order of first appearance.
  int32_t BaseSlotOf(int32_t item) const { return base_slot_[item]; }
  int32_t num_base_slots() const {
    return static_cast<int32_t>(slot_begin_.size()) - 1;
  }

  /// Every cube subset containing the items of a base slot (the cross
  /// product of per-hierarchy ancestor chains), in ascending SubsetId.
  std::span<const SubsetId> SlotSubsets(int32_t slot) const {
    return {slot_subsets_.data() + slot_begin_[slot],
            slot_subsets_.data() + slot_begin_[slot + 1]};
  }

  /// Every cube subset containing the item, in ascending SubsetId.
  std::span<const SubsetId> ContainingSubsets(int32_t item) const {
    return SlotSubsets(base_slot_[item]);
  }

  /// The base subset of an item (its leaf combination).
  SubsetId BaseSubsetOf(int32_t item) const {
    return space_->Encode(space_->BaseCellOf(coords_[item]));
  }

  std::string SubsetLabel(SubsetId subset) const {
    return space_->RegionLabel(subset);
  }

  /// Per-hierarchy node depth of a subset's coordinates.
  std::vector<int32_t> SubsetDepths(SubsetId subset) const;

 private:
  ItemSubsetSpace() = default;
  std::vector<ItemHierarchy> hierarchies_;
  std::unique_ptr<olap::RegionSpace> space_;
  std::vector<olap::PointCoords> coords_;
  std::vector<int32_t> base_slot_;     // item -> base slot
  std::vector<size_t> slot_begin_;     // base slot -> offset, plus the end
  std::vector<SubsetId> slot_subsets_;  // concatenated, ascending per slot
};

/// One cell of a bellwether cube: a significant cube subset with its
/// bellwether region and model.
struct CubeCell {
  SubsetId subset = olap::kInvalidRegion;
  int32_t subset_size = 0;  // |S|, number of items
  bool has_model = false;
  olap::RegionId region = olap::kInvalidRegion;
  double error = 0.0;  // training-set RMSE (construction-time measure, §6.4)
  regression::LinearModel model;
  /// Degradation tier that produced `model` (kNone for a healthy fit).
  regression::FitDegradation degradation = regression::FitDegradation::kNone;
  /// True when no region produced a finite error for the subset and the
  /// region was chosen by the most-examples fallback instead of min-error.
  bool fallback_pick = false;
  /// Cross-validated error of the bellwether model, for the confidence-bound
  /// prediction rule (filled when CubeBuildConfig::compute_cv_stats).
  regression::ErrorStats cv;
  bool has_cv = false;
};

/// Construction parameters.
struct CubeBuildConfig {
  /// Size threshold K: only subsets with at least this many items get a
  /// cell ("significant subsets", §6.2).
  int32_t min_subset_size = 30;
  int32_t min_examples_per_model = 5;
  /// Post-pass: compute k-fold CV error stats of each cell's model.
  bool compute_cv_stats = true;
  int32_t cv_folds = 10;
  uint64_t seed = 17;
  /// Parallel region scoring (the single-scan builder and
  /// BellwetherState::ApplyDelta; the naive and optimized builders are
  /// reference implementations and stay serial). Per-region statistics are
  /// computed on workers and merged in scan order, so the cube is
  /// bit-identical to the serial build for every thread count.
  exec::BellwetherExecOptions exec;
};

/// A prediction made through the cube.
struct CubePrediction {
  double value = 0.0;
  SubsetId subset = olap::kInvalidRegion;
  olap::RegionId region = olap::kInvalidRegion;
  double upper_confidence_bound = 0.0;
  /// Candidates with a lower bound that were passed over because their
  /// bellwether region has no row for the item (the fallback depth).
  int32_t candidates_skipped = 0;
};

/// A row of the rollup/drilldown cross-tabulation (§6.2).
struct CrossTabRow {
  std::string subset_label;
  std::string region_label;
  double error = 0.0;
  int32_t subset_size = 0;
};

/// Build-time telemetry of a cube construction, mirrored into the process
/// MetricsRegistry. `data_passes` counts logical passes over the entire
/// training data: the single-scan and optimized builders perform exactly
/// one (Lemma 2 / Theorem 1), the naive builder one per significant subset.
struct CubeBuildTelemetry {
  int64_t data_passes = 0;
  int64_t significant_subsets = 0;
  int64_t cells_materialized = 0;
  int64_t ridge_refits = 0;       // cell fits recovered by the ridge tier
  int64_t mean_fallbacks = 0;     // cell fits degraded to the mean model
  int64_t fallback_picks = 0;     // cells placed by the most-examples fallback
  double build_seconds = 0.0;
};

/// The bellwether cube: {<S, r_S>} for every significant cube subset S.
class BellwetherCube {
 public:
  /// `cell_of` maps each SubsetId to its index in `cells`, or -1. Compiles
  /// the prediction path: per base slot, the model-bearing cells of the
  /// subsets containing it.
  BellwetherCube(std::shared_ptr<const ItemSubsetSpace> subsets,
                 std::vector<int64_t> cell_of, std::vector<CubeCell> cells);

  const ItemSubsetSpace& subsets() const { return *subsets_; }
  const std::vector<CubeCell>& cells() const { return cells_; }

  /// Cell of a subset, or nullptr when the subset is not significant.
  const CubeCell* FindCell(SubsetId subset) const {
    if (subset < 0 || static_cast<size_t>(subset) >= cell_of_.size() ||
        cell_of_[subset] < 0) {
      return nullptr;
    }
    return &cells_[cell_of_[subset]];
  }

  /// Predicts the target of an item: among the cells of the cube subsets
  /// containing the item, pick the model with the lowest upper `confidence`
  /// bound of error (§6.2), fetch the item's features from its bellwether
  /// region, apply the model. Candidates are tried in ascending (bound,
  /// subset) order, NaN bounds last; cells whose region lacks data for the
  /// item are skipped. kFailedPrecondition when the chosen cell's model
  /// length is not the region's feature arity.
  Result<CubePrediction> PredictItem(int32_t item,
                                     const RegionFeatureLookup& lookup,
                                     double confidence = 0.95) const;

  /// Cross-tab rows of all significant subsets at the given per-hierarchy
  /// depths (rollup/drilldown view).
  std::vector<CrossTabRow> CrossTab(
      const std::vector<int32_t>& level_depths,
      const olap::RegionSpace* region_space) const;

  const CubeBuildTelemetry& build_telemetry() const { return telemetry_; }
  void set_build_telemetry(const CubeBuildTelemetry& t) { telemetry_ = t; }

  /// Flight-recorder document of the build (config fingerprint, logical
  /// subset/cell counts, robustness events, build wall time as a phase).
  /// Logical sections are bit-identical across thread counts.
  const obs::RunReport& build_report() const { return build_report_; }
  void set_build_report(obs::RunReport r) { build_report_ = std::move(r); }

 private:
  std::shared_ptr<const ItemSubsetSpace> subsets_;
  std::vector<int64_t> cell_of_;  // SubsetId -> index into cells_, or -1
  std::vector<CubeCell> cells_;
  // Per base slot, the indices into cells_ of the model-bearing cells of
  // its containing subsets, ascending by subset: slot s owns
  // candidates_[candidate_begin_[s], candidate_begin_[s + 1]).
  std::vector<int32_t> candidate_begin_;
  std::vector<int32_t> candidates_;
  CubeBuildTelemetry telemetry_;
  obs::RunReport build_report_;
};

// The three cube builders return kInvalidArgument when `subsets` is null.

/// Naive algorithm (§6.2): one basic bellwether search per significant
/// subset, each issuing per-region reads against the source.
Result<BellwetherCube> BuildBellwetherCubeNaive(
    storage::TrainingDataSource* source,
    std::shared_ptr<const ItemSubsetSpace> subsets,
    const CubeBuildConfig& config,
    const std::vector<uint8_t>* item_mask = nullptr);

/// Single-scan algorithm (§6.3, Fig. 7): one sequential scan; per region,
/// builds a model for each significant subset independently. Identical
/// output to the naive algorithm (Lemma 2).
Result<BellwetherCube> BuildBellwetherCubeSingleScan(
    storage::TrainingDataSource* source,
    std::shared_ptr<const ItemSubsetSpace> subsets,
    const CubeBuildConfig& config,
    const std::vector<uint8_t>* item_mask = nullptr);

/// Optimized algorithm (§6.4, Theorem 1): one sequential scan; per region,
/// accumulates the regression sufficient statistics only at the *base*
/// subsets and rolls them up through the item-hierarchy lattice (the
/// algebraic-aggregate data-cube computation). Identical output again.
Result<BellwetherCube> BuildBellwetherCubeOptimized(
    storage::TrainingDataSource* source,
    std::shared_ptr<const ItemSubsetSpace> subsets,
    const CubeBuildConfig& config,
    const std::vector<uint8_t>* item_mask = nullptr);

}  // namespace bellwether::core

#endif  // BELLWETHER_CORE_BELLWETHER_CUBE_H_
