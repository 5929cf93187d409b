#ifndef BELLWETHER_CORE_BELLWETHER_TREE_H_
#define BELLWETHER_CORE_BELLWETHER_TREE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/eval_util.h"
#include "exec/thread_pool.h"
#include "obs/report.h"
#include "olap/region.h"
#include "regression/linear_model.h"
#include "storage/training_data.h"
#include "table/table.h"

namespace bellwether::core {

/// Per-item view of the item-table columns a tree can split on. Dense item
/// index i corresponds to row i of the item table.
class ItemSplitFeatures {
 public:
  /// `split_columns` may be numeric (int64/double) or categorical (string).
  static Result<std::shared_ptr<ItemSplitFeatures>> Create(
      const table::Table& item_table,
      const std::vector<std::string>& split_columns);

  size_t num_columns() const { return numeric_.size(); }
  int32_t num_items() const { return num_items_; }
  bool IsNumeric(size_t col) const { return is_numeric_[col]; }
  const std::string& ColumnName(size_t col) const { return names_[col]; }

  /// Numeric value of item (precondition: numeric column).
  double NumericValue(size_t col, int32_t item) const {
    return numeric_[col][item];
  }
  /// Category index of item (precondition: categorical column); -1 = null.
  int32_t CategoryOf(size_t col, int32_t item) const {
    return category_[col][item];
  }
  int32_t NumCategories(size_t col) const {
    return static_cast<int32_t>(categories_[col].size());
  }
  const std::string& CategoryLabel(size_t col, int32_t cat) const {
    return categories_[col][cat];
  }

 private:
  ItemSplitFeatures() = default;
  int32_t num_items_ = 0;
  std::vector<std::string> names_;
  std::vector<bool> is_numeric_;
  std::vector<std::vector<double>> numeric_;     // per column (numeric)
  std::vector<std::vector<int32_t>> category_;   // per column (categorical)
  std::vector<std::vector<std::string>> categories_;
};

/// A splitting criterion (paper §5.1): <A_k> for categorical A_k, or
/// <A_k, b> for numeric A_k with threshold b.
struct SplitCriterion {
  int32_t column = -1;       // index into the builder's split columns
  bool is_numeric = false;
  double threshold = 0.0;    // numeric only: partition 0 is value < b
  int32_t num_partitions = 0;

  /// Partition index of an item, or -1 (null categorical value).
  int32_t PartitionOf(const ItemSplitFeatures& feats, int32_t item) const {
    if (is_numeric) {
      return feats.NumericValue(column, item) < threshold ? 0 : 1;
    }
    return feats.CategoryOf(column, item);
  }
};

/// A node of a bellwether tree. Every node (not only leaves) carries the
/// bellwether region and model of its item subset; internal nodes use it for
/// goodness computation, and prediction falls back to it when routing cannot
/// continue (e.g. an unseen category).
struct TreeNode {
  int32_t depth = 0;
  int32_t num_items = 0;
  // Bellwether payload for the node's item subset.
  bool has_model = false;
  olap::RegionId region = olap::kInvalidRegion;
  double error = 0.0;  // training-set RMSE used during construction
  regression::LinearModel model;
  /// Degradation tier that produced `model` (kNone for a healthy fit).
  regression::FitDegradation degradation = regression::FitDegradation::kNone;
  // Split (empty children = leaf).
  SplitCriterion split;
  double goodness = 0.0;
  std::vector<int32_t> children;  // node indices; parallel to partitions

  bool is_leaf() const { return children.empty(); }
};

/// Build-time telemetry of a tree construction, mirrored into the process
/// MetricsRegistry. `data_passes` counts logical passes over the entire
/// training data: the RainForest builder performs exactly one per tree
/// level (Lemma 1), while the naive builder performs one per (node,
/// candidate criterion) plus one per node.
struct TreeBuildTelemetry {
  int64_t data_passes = 0;
  int64_t region_reads = 0;          // random Read() calls (naive builder)
  int64_t nodes_created = 0;
  int64_t levels = 0;
  int64_t candidates_evaluated = 0;  // (node, criterion) pairs scored
  /// Most sufficient statistics accumulated by one pass: RainForest counts
  /// a level's node statistics plus their columns' value-bucket statistics
  /// (T + 1 per numeric column with T thresholds, one per category); naive
  /// counts one node statistic, or one column's buckets.
  int64_t suff_stats_peak = 0;
  int64_t ridge_refits = 0;     // node fits recovered by the ridge tier
  int64_t mean_fallbacks = 0;   // node fits degraded to the mean model
  double build_seconds = 0.0;
};

/// The bellwether tree (paper §5): routes an item by its item-table features
/// to a leaf, whose bellwether region/model predicts the item's target.
class BellwetherTree {
 public:
  BellwetherTree(std::shared_ptr<const ItemSplitFeatures> features,
                 std::vector<TreeNode> nodes)
      : features_(std::move(features)), nodes_(std::move(nodes)) {}

  const std::vector<TreeNode>& nodes() const { return nodes_; }
  const TreeNode& root() const { return nodes_[0]; }
  const ItemSplitFeatures& features() const { return *features_; }

  /// Number of levels (root-only tree = 1).
  int32_t NumLevels() const;
  int32_t NumLeaves() const;

  /// Routes an item down the tree; returns the index of the deepest node
  /// with a usable model on the path (normally a leaf).
  int32_t RouteItem(int32_t item) const;

  /// Predicts the target of `item`: routes to a node, fetches the item's
  /// regional features from that node's bellwether region, applies the
  /// model. kNotFound when the item has no data in the region;
  /// kFailedPrecondition when the model's length is not the region's
  /// feature arity (a model file written for other data).
  Result<double> PredictItem(int32_t item,
                             const RegionFeatureLookup& lookup) const;

  /// Multi-line rendering for debugging / the examples. When `space` is
  /// given, bellwether regions print as labels (e.g. "[1-8, MD]") instead
  /// of raw region ids.
  std::string ToString(const olap::RegionSpace* space = nullptr) const;

  const TreeBuildTelemetry& build_telemetry() const { return telemetry_; }
  void set_build_telemetry(const TreeBuildTelemetry& t) { telemetry_ = t; }

  /// Flight-recorder document of the build (config fingerprint, logical
  /// pass/node counts, build wall time as a phase). Logical sections are
  /// bit-identical across thread counts.
  const obs::RunReport& build_report() const { return build_report_; }
  void set_build_report(obs::RunReport r) { build_report_ = std::move(r); }

 private:
  std::shared_ptr<const ItemSplitFeatures> features_;
  std::vector<TreeNode> nodes_;
  TreeBuildTelemetry telemetry_;
  obs::RunReport build_report_;
};

/// Construction parameters shared by the naive and RainForest builders.
struct TreeBuildConfig {
  std::vector<std::string> split_columns;
  /// Termination: do not split nodes with fewer items than this.
  int32_t min_items = 30;
  /// Maximum tree depth (paper's experiments use 7).
  int32_t max_depth = 7;
  /// Cap on numeric thresholds per column per node (paper: "points at a
  /// small number (e.g., 50) of the percentiles").
  int32_t max_numeric_split_points = 50;
  /// A (region, subset) model needs at least this many examples.
  int32_t min_examples_per_model = 5;
  /// Do not apply a split whose goodness is not strictly positive.
  bool require_positive_goodness = true;
  /// Parallel per-level statistics collection (RainForest builder only; the
  /// naive builder is the reference implementation and stays serial). Each
  /// region's sufficient statistics are computed on a worker and folded into
  /// the level state in scan order, so the tree is bit-identical to the
  /// serial build for every thread count.
  exec::BellwetherExecOptions exec;
};

/// Builds the tree with the naive algorithm of Fig. 4: one pass over the
/// entire training data per (node, splitting criterion), issued as random
/// region reads against the source. Each pass accumulates the criterion's
/// column buckets and scores them as the RainForest builder does. When
/// `item_mask` is non-null, only masked items participate.
Result<BellwetherTree> BuildBellwetherTreeNaive(
    storage::TrainingDataSource* source, const table::Table& item_table,
    const TreeBuildConfig& config,
    const std::vector<uint8_t>* item_mask = nullptr);

/// Builds the tree with the RainForest-style algorithm of Fig. 4: one
/// sequential scan of the entire training data per tree level, collecting
/// the sufficient statistic {<MinError[v,c,p], Size[v,c,p]>}. Each row is
/// added to its node's statistic and to one value bucket per candidate
/// column; a threshold's sides are merges of the buckets (Theorem 1).
/// Produces a tree identical to the naive builder's (Lemma 1).
Result<BellwetherTree> BuildBellwetherTreeRainForest(
    storage::TrainingDataSource* source, const table::Table& item_table,
    const TreeBuildConfig& config,
    const std::vector<uint8_t>* item_mask = nullptr);

}  // namespace bellwether::core

#endif  // BELLWETHER_CORE_BELLWETHER_TREE_H_
