#include "core/bellwether_tree.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <set>
#include <utility>

#include "common/check.h"
#include "common/stopwatch.h"
#include "exec/parallel.h"
#include "obs/logger.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace bellwether::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

using regression::RegressionSuffStats;
using storage::RegionTrainingSet;

// Best (minimum-error) region for an item subset, tracked across a scan.
// Both builders score a region by TrainingErrorOfStats (eval_util), which is
// deterministic, so Lemma 1 holds exactly; cross-validated errors would
// depend on the order the folds consume the RNG.
struct BellwetherPick {
  double error = kInf;
  olap::RegionId region = olap::kInvalidRegion;
  RegressionSuffStats stats;  // statistics of the winning region

  bool found() const { return region != olap::kInvalidRegion; }

  void Offer(double err, olap::RegionId r, const RegressionSuffStats& s) {
    if (err < error) {
      error = err;
      region = r;
      stats = s;
    }
  }
};

// Candidate splitting criteria of a node, a deterministic function of the
// node's item subset (so both builders produce identical candidates).
std::vector<SplitCriterion> GenerateCandidates(
    const ItemSplitFeatures& feats, const std::vector<int32_t>& items,
    const TreeBuildConfig& config) {
  std::vector<SplitCriterion> out;
  for (size_t col = 0; col < feats.num_columns(); ++col) {
    if (feats.IsNumeric(col)) {
      std::set<double> distinct;
      for (int32_t i : items) distinct.insert(feats.NumericValue(col, i));
      if (distinct.size() < 2) continue;
      std::vector<double> sorted(distinct.begin(), distinct.end());
      std::vector<double> thresholds;
      thresholds.reserve(sorted.size() - 1);
      for (size_t k = 0; k + 1 < sorted.size(); ++k) {
        thresholds.push_back((sorted[k] + sorted[k + 1]) / 2.0);
      }
      if (static_cast<int32_t>(thresholds.size()) >
          config.max_numeric_split_points) {
        // Keep thresholds at evenly spaced percentiles (paper §5.1).
        std::vector<double> picked;
        const size_t m = thresholds.size();
        const int32_t cap = config.max_numeric_split_points;
        for (int32_t k = 0; k < cap; ++k) {
          const size_t idx = static_cast<size_t>(
              (static_cast<double>(k) + 0.5) * static_cast<double>(m) / cap);
          picked.push_back(thresholds[std::min(idx, m - 1)]);
        }
        picked.erase(std::unique(picked.begin(), picked.end()), picked.end());
        thresholds = std::move(picked);
      }
      for (double b : thresholds) {
        SplitCriterion c;
        c.column = static_cast<int32_t>(col);
        c.is_numeric = true;
        c.threshold = b;
        c.num_partitions = 2;
        out.push_back(c);
      }
    } else {
      // One criterion per categorical column; useless when the subset holds
      // fewer than two distinct categories.
      std::set<int32_t> seen;
      for (int32_t i : items) {
        const int32_t cat = feats.CategoryOf(col, i);
        if (cat >= 0) seen.insert(cat);
        if (seen.size() >= 2) break;
      }
      if (seen.size() < 2) continue;
      SplitCriterion c;
      c.column = static_cast<int32_t>(col);
      c.is_numeric = false;
      c.num_partitions = feats.NumCategories(col);
      out.push_back(c);
    }
  }
  return out;
}

// The value buckets of one split column at one node: RainForest's AVC-set,
// with Theorem 1's statistic in place of class counts. Every candidate of
// the column sends an item to a side that depends only on the item's
// bucket, so each row is added to one bucket statistic per column instead
// of one side statistic per candidate. A numeric column's bucket k holds
// the values v with thresholds[k-1] <= v < thresholds[k] (T thresholds,
// T + 1 buckets); a categorical column's bucket k is category k.
struct ColumnBuckets {
  size_t first_candidate = 0;  // the column's candidates are contiguous
  size_t num_candidates = 0;
  bool is_numeric = false;
  int32_t column = -1;
  int32_t num_buckets = 0;
  std::vector<double> thresholds;  // numeric: ascending, one per candidate
  int32_t first_slot = 0;  // RainForest: the buckets' slots in the level

  // Partition errors ScoreColumnCandidates writes for all the candidates.
  size_t num_errors() const {
    return is_numeric ? 2 * num_candidates : static_cast<size_t>(num_buckets);
  }

  // Bucket of an item, or -1 for a null category. Candidate t's side 0
  // (value < thresholds[t]) is exactly the buckets 0..t, as
  // SplitCriterion::PartitionOf routes it: upper_bound counts the
  // thresholds <= v, which is also right for repeated thresholds (the
  // bucket between them stays empty) and for NaN (last bucket, side 1).
  int32_t BucketOf(const ItemSplitFeatures& feats, int32_t item) const {
    if (!is_numeric) return feats.CategoryOf(column, item);
    return static_cast<int32_t>(
        std::upper_bound(thresholds.begin(), thresholds.end(),
                         feats.NumericValue(column, item)) -
        thresholds.begin());
  }
};

// Groups a node's candidates by column. GenerateCandidates emits a numeric
// column's thresholds in ascending order and a categorical column as one
// candidate whose partitions are its categories.
std::vector<ColumnBuckets> BucketColumns(
    const std::vector<SplitCriterion>& candidates) {
  std::vector<ColumnBuckets> out;
  for (size_t c = 0; c < candidates.size(); ++c) {
    const SplitCriterion& crit = candidates[c];
    if (out.empty() || out.back().column != crit.column) {
      ColumnBuckets col;
      col.first_candidate = c;
      col.is_numeric = crit.is_numeric;
      col.column = crit.column;
      col.num_buckets = crit.is_numeric ? 1 : crit.num_partitions;
      out.push_back(std::move(col));
    }
    ColumnBuckets& col = out.back();
    ++col.num_candidates;
    if (crit.is_numeric) {
      col.thresholds.push_back(crit.threshold);
      ++col.num_buckets;
    }
  }
  return out;
}

// Scores the column's candidates [first, last) from its bucket statistics,
// writing each candidate's partition errors in turn to `errors`. A numeric
// threshold t's side 0 merges buckets 0..t in ascending order and its side
// 1 merges buckets T..t+1 in descending order, whatever [first, last) is:
// both builders call this, so Lemma 1 holds bit for bit. `side` is scratch
// of the buckets' arity.
void ScoreColumnCandidates(const ColumnBuckets& col,
                           const RegressionSuffStats* buckets, size_t first,
                           size_t last, int32_t min_examples,
                           RegressionSuffStats* side, double* errors) {
  if (!col.is_numeric) {
    for (int32_t p = 0; p < col.num_buckets; ++p) {
      errors[p] = TrainingErrorOfStats(buckets[p], min_examples);
    }
    return;
  }
  side->Reset();
  for (size_t k = 0; k < first; ++k) side->Merge(buckets[k]);
  for (size_t t = first; t < last; ++t) {
    side->Merge(buckets[t]);
    errors[2 * (t - first)] = TrainingErrorOfStats(*side, min_examples);
  }
  side->Reset();
  for (size_t k = col.thresholds.size(); k > last; --k) {
    side->Merge(buckets[k]);
  }
  for (size_t t = last; t-- > first;) {
    side->Merge(buckets[t + 1]);
    errors[2 * (t - first) + 1] = TrainingErrorOfStats(*side, min_examples);
  }
}

// Adds each row of a region's set, in row order, to the statistics its
// item's `stride` slots name (-1 skips a slot; a first slot of -1 skips the
// row). Flattened because RegressionSuffStats::Add is meant to inline into
// its caller's row loop, and GCC at -O2 keeps it out of line inside the
// large level-scan lambda.
[[gnu::flatten]] void AccumulateLevelRows(const RegionTrainingSet& set,
                                          const int32_t* item_slots,
                                          size_t stride,
                                          RegressionSuffStats* stats) {
  for (size_t row = 0; row < set.num_examples(); ++row) {
    const int32_t* slots =
        &item_slots[static_cast<size_t>(set.items[row]) * stride];
    if (slots[0] < 0) continue;
    const double* x = set.row(row);
    const double y = set.targets[row];
    const double w = set.weight(row);
    for (size_t k = 0; k < stride; ++k) {
      if (slots[k] >= 0) stats[slots[k]].Add(x, y, w);
    }
  }
}

// Goodness(c) = |S| Error(h_r|S) - sum_p |S_p| Error(h_rp|S_p), with -inf
// when some non-empty partition has no trainable model in any region.
double ComputeGoodness(double node_error, int64_t node_size,
                       const std::vector<double>& partition_min_error,
                       const std::vector<int64_t>& partition_sizes) {
  double split_term = 0.0;
  for (size_t p = 0; p < partition_sizes.size(); ++p) {
    if (partition_sizes[p] == 0) continue;
    if (partition_min_error[p] == kInf) return -kInf;
    split_term +=
        static_cast<double>(partition_sizes[p]) * partition_min_error[p];
  }
  return static_cast<double>(node_size) * node_error - split_term;
}

// Work item during construction.
struct PendingNode {
  int32_t node_index;
  std::vector<int32_t> items;
};

// Shared post-scan logic: finalize a node's payload and decide the split.
// Returns the chosen candidate index or -1 (leaf).
int32_t FinalizeNode(const ItemSplitFeatures& feats,
                     const TreeBuildConfig& config, const PendingNode& work,
                     const BellwetherPick& self,
                     const std::vector<SplitCriterion>& candidates,
                     const std::vector<std::vector<double>>& min_error,
                     TreeNode* node, TreeBuildTelemetry* telemetry) {
  node->num_items = static_cast<int32_t>(work.items.size());
  if (self.found() && self.error < kInf) {
    // Graceful degradation: a healthy fit is bit-identical to the plain
    // Fit() path; an ill-conditioned node yields a flagged degraded model
    // instead of a model-less node.
    auto fit = self.stats.FitWithFallback();
    if (fit.ok()) {
      node->has_model = true;
      node->region = self.region;
      node->error = self.error;
      node->model = std::move(fit.value().model);
      node->degradation = fit.value().degradation;
      if (node->degradation == regression::FitDegradation::kRidge) {
        ++telemetry->ridge_refits;
      } else if (node->degradation ==
                 regression::FitDegradation::kMeanFallback) {
        ++telemetry->mean_fallbacks;
      }
    }
  }
  if (!node->has_model) return -1;
  if (candidates.empty()) return -1;

  double best_goodness = -kInf;
  int32_t best = -1;
  std::vector<int64_t> sizes;
  for (size_t c = 0; c < candidates.size(); ++c) {
    sizes.assign(candidates[c].num_partitions, 0);
    for (int32_t i : work.items) {
      const int32_t p = candidates[c].PartitionOf(feats, i);
      if (p >= 0) ++sizes[p];
    }
    const double g = ComputeGoodness(node->error, node->num_items,
                                     min_error[c], sizes);
    if (g > best_goodness) {
      best_goodness = g;
      best = static_cast<int32_t>(c);
    }
  }
  if (best < 0) return -1;
  if (config.require_positive_goodness && !(best_goodness > 0.0)) return -1;
  node->split = candidates[best];
  node->goodness = best_goodness;
  return best;
}

}  // namespace

Result<std::shared_ptr<ItemSplitFeatures>> ItemSplitFeatures::Create(
    const table::Table& item_table,
    const std::vector<std::string>& split_columns) {
  auto out = std::shared_ptr<ItemSplitFeatures>(new ItemSplitFeatures());
  out->num_items_ = static_cast<int32_t>(item_table.num_rows());
  for (const auto& name : split_columns) {
    auto idx = item_table.schema().FindField(name);
    if (!idx.has_value()) {
      return Status::NotFound("split column not found: " + name);
    }
    const auto& col = item_table.column(*idx);
    out->names_.push_back(name);
    const bool numeric = col.type() != table::DataType::kString;
    out->is_numeric_.push_back(numeric);
    out->numeric_.emplace_back();
    out->category_.emplace_back();
    out->categories_.emplace_back();
    if (numeric) {
      auto& vals = out->numeric_.back();
      vals.resize(item_table.num_rows(), 0.0);
      for (size_t r = 0; r < item_table.num_rows(); ++r) {
        vals[r] = col.IsNull(r) ? 0.0 : col.NumericAt(r);
      }
    } else {
      auto& cats = out->categories_.back();
      auto& of = out->category_.back();
      of.resize(item_table.num_rows(), -1);
      for (size_t r = 0; r < item_table.num_rows(); ++r) {
        if (col.IsNull(r)) continue;
        const std::string& s = col.StringAt(r);
        auto it = std::find(cats.begin(), cats.end(), s);
        if (it == cats.end()) {
          of[r] = static_cast<int32_t>(cats.size());
          cats.push_back(s);
        } else {
          of[r] = static_cast<int32_t>(it - cats.begin());
        }
      }
    }
  }
  return out;
}

int32_t BellwetherTree::NumLevels() const {
  // Count only nodes reachable from the root.
  int32_t levels = 0;
  std::vector<int32_t> stack{0};
  while (!stack.empty()) {
    const TreeNode& n = nodes_[stack.back()];
    stack.pop_back();
    levels = std::max(levels, n.depth + 1);
    for (int32_t c : n.children) stack.push_back(c);
  }
  return levels;
}

int32_t BellwetherTree::NumLeaves() const {
  int32_t leaves = 0;
  std::vector<int32_t> stack{0};
  while (!stack.empty()) {
    const TreeNode& n = nodes_[stack.back()];
    stack.pop_back();
    if (n.is_leaf()) {
      ++leaves;
    } else {
      for (int32_t c : n.children) stack.push_back(c);
    }
  }
  return leaves;
}

int32_t BellwetherTree::RouteItem(int32_t item) const {
  int32_t cur = 0;
  int32_t best_with_model = nodes_[0].has_model ? 0 : -1;
  while (!nodes_[cur].is_leaf()) {
    const int32_t p = nodes_[cur].split.PartitionOf(*features_, item);
    if (p < 0 || p >= static_cast<int32_t>(nodes_[cur].children.size())) {
      break;
    }
    cur = nodes_[cur].children[p];
    if (nodes_[cur].has_model) best_with_model = cur;
  }
  // Fall back to the deepest ancestor carrying a model (covers empty-child
  // partitions and model-less leaves).
  if (!nodes_[cur].has_model) return best_with_model;
  return cur;
}

Result<double> BellwetherTree::PredictItem(
    int32_t item, const RegionFeatureLookup& lookup) const {
  const int32_t node = RouteItem(item);
  if (node < 0) {
    return Status::FailedPrecondition("no node on the path has a model");
  }
  const TreeNode& n = nodes_[node];
  size_t num_features = 0;
  const double* x = lookup.Find(n.region, item, &num_features);
  if (x == nullptr) {
    return Status::NotFound("item has no data in the bellwether region");
  }
  if (n.model.num_features() != num_features) [[unlikely]] {
    return ModelArityMismatch(n.model.num_features(), num_features);
  }
  return n.model.Predict(x);
}

std::string BellwetherTree::ToString(const olap::RegionSpace* space) const {
  std::string out;
  // DFS with indentation.
  struct Frame {
    int32_t node;
    int32_t indent;
    std::string edge;
  };
  std::vector<Frame> stack{{0, 0, ""}};
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    const TreeNode& n = nodes_[f.node];
    out.append(2 * f.indent, ' ');
    if (!f.edge.empty()) out += f.edge + " -> ";
    if (n.has_model) {
      out += "region=" + (space != nullptr ? space->RegionLabel(n.region)
                                           : std::to_string(n.region)) +
             " err=" + std::to_string(n.error) +
             " items=" + std::to_string(n.num_items);
    } else {
      out += "(no model) items=" + std::to_string(n.num_items);
    }
    if (!n.is_leaf()) {
      out += " split on " + features_->ColumnName(n.split.column);
      if (n.split.is_numeric) {
        out += " < " + std::to_string(n.split.threshold);
      }
    }
    out += "\n";
    if (!n.is_leaf()) {
      for (size_t p = n.children.size(); p-- > 0;) {
        std::string edge;
        if (n.split.is_numeric) {
          edge = p == 0 ? "yes" : "no";
        } else {
          edge = features_->CategoryLabel(n.split.column,
                                          static_cast<int32_t>(p));
        }
        stack.push_back(
            {n.children[p], f.indent + 1, edge});
      }
    }
  }
  return out;
}

namespace {

std::vector<int32_t> RootItems(const ItemSplitFeatures& feats,
                               const std::vector<uint8_t>* item_mask) {
  std::vector<int32_t> items;
  for (int32_t i = 0; i < feats.num_items(); ++i) {
    if (item_mask != nullptr && (static_cast<size_t>(i) >= item_mask->size() ||
                                 (*item_mask)[i] == 0)) {
      continue;
    }
    items.push_back(i);
  }
  return items;
}

// Registry counters mirrored alongside the per-build TreeBuildTelemetry;
// resolved once and cached (registry pointers are stable).
struct TreeMetrics {
  obs::Counter* naive_passes;
  obs::Counter* rf_passes;
  obs::Counter* nodes_created;
  obs::Gauge* suff_stats_peak;
  obs::Histogram* level_scan_seconds;
};

const TreeMetrics& Metrics() {
  static const TreeMetrics m{
      obs::DefaultMetrics().GetCounter(obs::kMTreeNaiveScans),
      obs::DefaultMetrics().GetCounter(obs::kMTreeRfScans),
      obs::DefaultMetrics().GetCounter(obs::kMTreeNodesCreated),
      obs::DefaultMetrics().GetGauge(obs::kMTreeSuffStatsPeak),
      obs::DefaultMetrics().GetHistogram(obs::kMTreeLevelScanSeconds,
                                         obs::LatencyBucketsSeconds())};
  return m;
}

// Builds the children of `node_index` once a split was chosen; appends the
// new PendingNodes to `next`.
void ExpandChildren(const ItemSplitFeatures& feats, PendingNode&& work,
                    std::vector<TreeNode>* nodes, int32_t node_index,
                    std::deque<PendingNode>* next) {
  // Copy: push_back below reallocates the node vector.
  const SplitCriterion c = (*nodes)[node_index].split;
  const int32_t depth = (*nodes)[node_index].depth;
  std::vector<std::vector<int32_t>> partitions(c.num_partitions);
  for (int32_t i : work.items) {
    const int32_t p = c.PartitionOf(feats, i);
    if (p >= 0) partitions[p].push_back(i);
  }
  for (auto& part : partitions) {
    TreeNode child;
    child.depth = depth + 1;
    child.num_items = static_cast<int32_t>(part.size());
    const int32_t child_index = static_cast<int32_t>(nodes->size());
    (*nodes)[node_index].children.push_back(child_index);
    nodes->push_back(std::move(child));
    next->push_back(PendingNode{child_index, std::move(part)});
  }
}

// Fills the flight-recorder document on a finished tree. The config section
// deliberately omits config.exec.num_threads: logical sections (and the
// fingerprint) must match between serial and parallel builds.
void FillTreeReport(std::string_view name, const TreeBuildConfig& config,
                    const TreeBuildTelemetry& t, BellwetherTree* tree) {
  obs::RunReport r{std::string(name)};
  std::string cols;
  for (const auto& c : config.split_columns) {
    if (!cols.empty()) cols += ",";
    cols += c;
  }
  r.SetConfig("tree.split_columns", cols);
  r.SetConfig("tree.min_items", static_cast<int64_t>(config.min_items));
  r.SetConfig("tree.max_depth", static_cast<int64_t>(config.max_depth));
  r.SetConfig("tree.max_numeric_split_points",
              static_cast<int64_t>(config.max_numeric_split_points));
  r.SetConfig("tree.min_examples_per_model",
              static_cast<int64_t>(config.min_examples_per_model));
  r.SetConfig("tree.require_positive_goodness",
              static_cast<int64_t>(config.require_positive_goodness ? 1 : 0));
  r.SetCount("tree.data_passes", t.data_passes);
  r.SetCount("tree.region_reads", t.region_reads);
  r.SetCount("tree.nodes_created", t.nodes_created);
  r.SetCount("tree.levels", t.levels);
  r.SetCount("tree.candidates_evaluated", t.candidates_evaluated);
  r.SetCount("tree.suff_stats_peak", t.suff_stats_peak);
  r.SetCount("tree.ridge_refits", t.ridge_refits);
  r.SetCount("tree.mean_fallbacks", t.mean_fallbacks);
  r.AddPhase("tree.build", t.build_seconds);
  tree->set_build_report(std::move(r));
}

}  // namespace

Result<BellwetherTree> BuildBellwetherTreeNaive(
    storage::TrainingDataSource* source, const table::Table& item_table,
    const TreeBuildConfig& config, const std::vector<uint8_t>* item_mask) {
  obs::TraceSpan span("BuildBellwetherTreeNaive", "tree");
  Stopwatch build_watch;
  TreeBuildTelemetry telemetry;
  BW_ASSIGN_OR_RETURN(
      std::shared_ptr<ItemSplitFeatures> feats,
      ItemSplitFeatures::Create(item_table, config.split_columns));
  const int32_t num_items = feats->num_items();

  std::vector<TreeNode> nodes;
  nodes.emplace_back();
  std::deque<PendingNode> queue;
  queue.push_back(PendingNode{0, RootItems(*feats, item_mask)});

  // Scratch: item -> bucket in the column being evaluated (-1 for a null
  // category, -2 when the item is not in the node).
  std::vector<int32_t> membership(num_items, 0);

  const size_t num_sets = source->num_region_sets();
  while (!queue.empty()) {
    PendingNode work = std::move(queue.front());
    queue.pop_front();
    TreeNode& node = nodes[work.node_index];
    node.num_items = static_cast<int32_t>(work.items.size());

    std::fill(membership.begin(), membership.end(), -2);
    for (int32_t i : work.items) membership[i] = -1;

    // 1. The node's own bellwether: one pass over the entire training data.
    BellwetherPick self;
    int32_t p_features = 0;
    ++telemetry.data_passes;
    telemetry.suff_stats_peak = std::max<int64_t>(telemetry.suff_stats_peak, 1);
    for (size_t s = 0; s < num_sets; ++s) {
      BW_ASSIGN_OR_RETURN(RegionTrainingSet set, source->Read(s));
      ++telemetry.region_reads;
      p_features = set.num_features;
      RegressionSuffStats stats(set.num_features);
      for (size_t row = 0; row < set.num_examples(); ++row) {
        if (membership[set.items[row]] != -2) {
          stats.Add(set.row(row), set.targets[row], set.weight(row));
        }
      }
      self.Offer(TrainingErrorOfStats(stats, config.min_examples_per_model),
                 set.region, stats);
    }

    // 2. Candidate evaluation: one pass per splitting criterion (the naive
    //    algorithm's l*m scans), each accumulating its column's buckets.
    std::vector<SplitCriterion> candidates;
    std::vector<std::vector<double>> min_error;
    const bool active =
        node.depth < config.max_depth &&
        node.num_items >= config.min_items && self.found();
    if (active) {
      candidates = GenerateCandidates(*feats, work.items, config);
      min_error.resize(candidates.size());
      RegressionSuffStats side(p_features);
      std::vector<double> errors;
      for (const ColumnBuckets& col : BucketColumns(candidates)) {
        for (int32_t i : work.items) membership[i] = col.BucketOf(*feats, i);
        std::vector<RegressionSuffStats> buckets(
            col.num_buckets, RegressionSuffStats(p_features));
        telemetry.suff_stats_peak = std::max<int64_t>(
            telemetry.suff_stats_peak, col.num_buckets);
        for (size_t t = 0; t < col.num_candidates; ++t) {
          std::vector<double>& min_err = min_error[col.first_candidate + t];
          min_err.assign(candidates[col.first_candidate + t].num_partitions,
                         kInf);
          errors.resize(min_err.size());
          ++telemetry.data_passes;
          ++telemetry.candidates_evaluated;
          for (size_t s = 0; s < num_sets; ++s) {
            BW_ASSIGN_OR_RETURN(RegionTrainingSet set, source->Read(s));
            ++telemetry.region_reads;
            for (auto& st : buckets) st.Reset();
            for (size_t row = 0; row < set.num_examples(); ++row) {
              const int32_t b = membership[set.items[row]];
              if (b >= 0) {
                buckets[b].Add(set.row(row), set.targets[row],
                               set.weight(row));
              }
            }
            ScoreColumnCandidates(col, buckets.data(), t, t + 1,
                                  config.min_examples_per_model, &side,
                                  errors.data());
            for (size_t p = 0; p < min_err.size(); ++p) {
              min_err[p] = std::min(min_err[p], errors[p]);
            }
          }
        }
      }
    }

    const int32_t chosen = FinalizeNode(*feats, config, work, self,
                                        candidates, min_error, &node,
                                        &telemetry);
    if (chosen >= 0) {
      ExpandChildren(*feats, std::move(work), &nodes, work.node_index,
                     &queue);
    }
  }
  BellwetherTree tree(std::move(feats), std::move(nodes));
  telemetry.nodes_created = static_cast<int64_t>(tree.nodes().size());
  telemetry.levels = tree.NumLevels();
  telemetry.build_seconds = build_watch.ElapsedSeconds();
  Metrics().naive_passes->Increment(telemetry.data_passes);
  Metrics().nodes_created->Increment(telemetry.nodes_created);
  Metrics().suff_stats_peak->SetMax(
      static_cast<double>(telemetry.suff_stats_peak));
  BW_LOG(obs::LogLevel::kInfo, "tree")
      .Field("passes", telemetry.data_passes)
      .Field("nodes", telemetry.nodes_created)
      .Field("levels", telemetry.levels)
      .Field("seconds", telemetry.build_seconds)
      << "naive tree built";
  tree.set_build_telemetry(telemetry);
  FillTreeReport("tree_naive", config, telemetry, &tree);
  return tree;
}

Result<BellwetherTree> BuildBellwetherTreeRainForest(
    storage::TrainingDataSource* source, const table::Table& item_table,
    const TreeBuildConfig& config, const std::vector<uint8_t>* item_mask) {
  obs::TraceSpan span("BuildBellwetherTreeRainForest", "tree");
  Stopwatch build_watch;
  TreeBuildTelemetry telemetry;
  BW_ASSIGN_OR_RETURN(
      std::shared_ptr<ItemSplitFeatures> feats,
      ItemSplitFeatures::Create(item_table, config.split_columns));
  const int32_t num_items = feats->num_items();
  const int32_t num_threads = exec::ResolveNumThreads(config.exec.num_threads);

  std::vector<TreeNode> nodes;
  nodes.emplace_back();
  std::deque<PendingNode> level;
  level.push_back(PendingNode{0, RootItems(*feats, item_mask)});

  // Per level-position evaluation state. The region's statistics of a
  // level sit in one flat vector: node v's own statistic at `self_slot`,
  // then the buckets of each of its candidate columns.
  struct NodeEval {
    std::vector<SplitCriterion> candidates;
    std::vector<ColumnBuckets> columns;
    int32_t self_slot = 0;
    int32_t first_error = 0;  // self, then each candidate's partitions
    BellwetherPick self;
    std::vector<std::vector<double>> min_error;  // [cand][partition]
  };
  // One region's statistics and errors for every node of the level.
  struct RegionLevelStats {
    olap::RegionId region = olap::kInvalidRegion;
    int32_t num_features = -1;  // arity the statistics are sized for
    std::vector<RegressionSuffStats> stats;  // [slot]
    RegressionSuffStats side;                // ScoreColumnCandidates scratch
    std::vector<double> errors;              // NodeEval::first_error layout
  };

  while (!level.empty()) {
    const size_t width = level.size();
    std::vector<NodeEval> evals(width);
    // Statistic slots of an item at this level: its node's, then one
    // bucket per split column (-1: no candidate on that column, or a null
    // category); a first entry of -1 means the item is in no node.
    const size_t stride = 1 + feats->num_columns();
    std::vector<int32_t> item_slots(static_cast<size_t>(num_items) * stride,
                                    -1);
    int32_t num_slots = 0;
    int32_t num_errors = 0;
    for (size_t v = 0; v < width; ++v) {
      const PendingNode& work = level[v];
      TreeNode& node = nodes[work.node_index];
      NodeEval& e = evals[v];
      node.num_items = static_cast<int32_t>(work.items.size());
      if (node.depth < config.max_depth &&
          node.num_items >= config.min_items) {
        e.candidates = GenerateCandidates(*feats, work.items, config);
        e.columns = BucketColumns(e.candidates);
        e.min_error.resize(e.candidates.size());
        for (size_t c = 0; c < e.candidates.size(); ++c) {
          e.min_error[c].assign(e.candidates[c].num_partitions, kInf);
        }
      }
      e.self_slot = num_slots++;
      e.first_error = num_errors++;
      for (ColumnBuckets& col : e.columns) {
        col.first_slot = num_slots;
        num_slots += col.num_buckets;
        num_errors += static_cast<int32_t>(col.num_errors());
      }
      for (int32_t i : work.items) {
        int32_t* slots = &item_slots[static_cast<size_t>(i) * stride];
        slots[0] = e.self_slot;
        for (const ColumnBuckets& col : e.columns) {
          const int32_t b = col.BucketOf(*feats, i);
          if (b >= 0) slots[1 + col.column] = col.first_slot + b;
        }
      }
      telemetry.candidates_evaluated +=
          static_cast<int64_t>(e.candidates.size());
    }

    // One sequential scan of the entire training data for the whole level.
    obs::TraceSpan level_span("RainForestLevelScan", "tree");
    Stopwatch level_watch;
    ++telemetry.data_passes;
    telemetry.suff_stats_peak =
        std::max<int64_t>(telemetry.suff_stats_peak, num_slots);

    // A region's level statistics: each row is added, in row order, to its
    // node's statistic and to one bucket per candidate column; then every
    // node's error and every candidate's partition errors.
    const auto compute = [&evals, &item_slots, &config, stride, num_slots,
                          num_errors](const RegionTrainingSet& set,
                                      RegionLevelStats* r) {
      r->region = set.region;
      if (r->num_features != set.num_features) {
        r->num_features = set.num_features;
        r->stats.assign(num_slots, RegressionSuffStats(set.num_features));
        r->side = RegressionSuffStats(set.num_features);
        r->errors.assign(num_errors, kInf);
      } else {
        for (auto& st : r->stats) st.Reset();
      }
      AccumulateLevelRows(set, item_slots.data(), stride, r->stats.data());
      for (const NodeEval& e : evals) {
        r->errors[e.first_error] = TrainingErrorOfStats(
            r->stats[e.self_slot], config.min_examples_per_model);
        double* errors = &r->errors[e.first_error + 1];
        for (const ColumnBuckets& col : e.columns) {
          ScoreColumnCandidates(col, &r->stats[col.first_slot], 0,
                                col.num_candidates,
                                config.min_examples_per_model, &r->side,
                                errors);
          errors += col.num_errors();
        }
      }
      return r;
    };

    // Each region is computed by one task (inline without a pool) and
    // folded into the level state in scan order: the same Offer()/min()
    // sequence for every thread count, so the tree is bit-identical. The
    // buffers and the level state outlive the pool, whose destructor drains
    // any task still queued when the scan fails.
    exec::FreeList<RegionLevelStats> buffers;
    std::unique_ptr<exec::ThreadPool> pool;
    if (num_threads > 1) pool = std::make_unique<exec::ThreadPool>(num_threads);
    exec::MergeInSubmissionOrder<RegionLevelStats*> reducer(
        pool.get(), /*max_outstanding=*/2 * static_cast<size_t>(num_threads),
        "tree.level_scan", [&](size_t, RegionLevelStats* r) -> Status {
          for (NodeEval& e : evals) {
            e.self.Offer(r->errors[e.first_error], r->region,
                         r->stats[e.self_slot]);
            const double* errors = &r->errors[e.first_error + 1];
            for (auto& min_err : e.min_error) {
              for (double& m : min_err) m = std::min(m, *errors++);
            }
          }
          buffers.Release(r);
          return Status::OK();
        });
    BW_RETURN_IF_ERROR(
        source->Scan([&](const RegionTrainingSet& set) -> Status {
          RegionLevelStats* r = buffers.Acquire();
          if (reducer.parallel()) {
            // The visited set is only valid during this callback; the task
            // owns a copy.
            return reducer.Submit(
                [compute, r, copy = set]() { return compute(copy, r); });
          }
          return reducer.Submit([&]() { return compute(set, r); });
        }));
    BW_RETURN_IF_ERROR(reducer.Finish());
    level_span.End();
    Metrics().level_scan_seconds->Observe(level_watch.ElapsedSeconds());

    // Finalize the level and build the next one.
    std::deque<PendingNode> next;
    for (size_t v = 0; v < width; ++v) {
      PendingNode work = std::move(level[v]);
      NodeEval& e = evals[v];
      const int32_t chosen =
          FinalizeNode(*feats, config, work, e.self, e.candidates,
                       e.min_error, &nodes[work.node_index], &telemetry);
      if (chosen >= 0) {
        ExpandChildren(*feats, std::move(work), &nodes, work.node_index,
                       &next);
      }
    }
    level = std::move(next);
  }
  BellwetherTree tree(std::move(feats), std::move(nodes));
  telemetry.nodes_created = static_cast<int64_t>(tree.nodes().size());
  telemetry.levels = tree.NumLevels();
  telemetry.build_seconds = build_watch.ElapsedSeconds();
  Metrics().rf_passes->Increment(telemetry.data_passes);
  Metrics().nodes_created->Increment(telemetry.nodes_created);
  Metrics().suff_stats_peak->SetMax(
      static_cast<double>(telemetry.suff_stats_peak));
  BW_LOG(obs::LogLevel::kInfo, "tree")
      .Field("passes", telemetry.data_passes)
      .Field("nodes", telemetry.nodes_created)
      .Field("levels", telemetry.levels)
      .Field("seconds", telemetry.build_seconds)
      << "rainforest tree built";
  tree.set_build_telemetry(telemetry);
  FillTreeReport("tree_rainforest", config, telemetry, &tree);
  return tree;
}

}  // namespace bellwether::core
