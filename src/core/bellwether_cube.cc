#include "core/bellwether_cube.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "common/check.h"
#include "common/random.h"
#include "core/cube_build_internal.h"
#include "exec/parallel.h"
#include "obs/logger.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace bellwether::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

using olap::HierarchicalDimension;
using olap::NodeId;
using regression::RegressionSuffStats;
using storage::RegionTrainingSet;

// Registry counters mirrored alongside the per-build CubeBuildTelemetry;
// resolved once and cached (registry pointers are stable).
struct CubeMetrics {
  obs::Counter* naive_passes;
  obs::Counter* single_scan_passes;
  obs::Counter* optimized_passes;
  obs::Counter* significant;
  obs::Counter* cells;
};

const CubeMetrics& Metrics() {
  static const CubeMetrics m{
      obs::DefaultMetrics().GetCounter(obs::kMCubeNaiveScans),
      obs::DefaultMetrics().GetCounter(obs::kMCubeSingleScanScans),
      obs::DefaultMetrics().GetCounter(obs::kMCubeOptimizedScans),
      obs::DefaultMetrics().GetCounter(obs::kMCubeSignificantSubsets),
      obs::DefaultMetrics().GetCounter(obs::kMCubeCellsMaterialized)};
  return m;
}

// In-place lattice rollup of per-subset sufficient statistics: child node
// merges into parent, one hierarchy at a time (the data-cube computation of
// Observation 1 / Theorem 1).
void RollupSubsetStats(const olap::RegionSpace& space,
                       std::vector<RegressionSuffStats>* stats) {
  const size_t nd = space.num_dims();
  std::vector<int32_t> cards(nd);
  std::vector<int64_t> strides(nd, 1);
  for (size_t d = 0; d < nd; ++d) {
    cards[d] = olap::DimensionCardinality(space.dim(d));
  }
  for (size_t d = nd - 1; d-- > 0;) strides[d] = strides[d + 1] * cards[d + 1];
  const int64_t total = space.NumRegions();
  for (size_t d = 0; d < nd; ++d) {
    const auto& h = std::get<HierarchicalDimension>(space.dim(d));
    const int64_t stride = strides[d];
    const int64_t block = stride * cards[d];
    for (NodeId n : h.NodesBottomUp()) {
      if (n == h.root()) continue;
      const NodeId parent = h.parent(n);
      for (int64_t hi = 0; hi < total; hi += block) {
        for (int64_t lo = 0; lo < stride; ++lo) {
          RegressionSuffStats& src = (*stats)[hi + n * stride + lo];
          if (src.empty()) continue;
          (*stats)[hi + parent * stride + lo].Merge(src);
        }
      }
    }
  }
}

}  // namespace

namespace internal {

std::vector<int32_t> SubsetSizes(const ItemSubsetSpace& subsets,
                                 const std::vector<uint8_t>* item_mask) {
  std::vector<int32_t> sizes(subsets.NumSubsets(), 0);
  for (int32_t i = 0; i < subsets.num_items(); ++i) {
    if (item_mask != nullptr && (static_cast<size_t>(i) >= item_mask->size() ||
                                 (*item_mask)[i] == 0)) {
      continue;
    }
    for (SubsetId s : subsets.ContainingSubsets(i)) ++sizes[s];
  }
  return sizes;
}

std::vector<SubsetId> SignificantSubsets(const std::vector<int32_t>& sizes,
                                         int32_t min_size) {
  std::vector<SubsetId> out;
  for (size_t s = 0; s < sizes.size(); ++s) {
    if (sizes[s] >= std::max(min_size, 1)) {
      out.push_back(static_cast<SubsetId>(s));
    }
  }
  return out;
}

bool ItemMasked(const std::vector<uint8_t>* item_mask, int32_t item) {
  return item_mask != nullptr &&
         (static_cast<size_t>(item) >= item_mask->size() ||
          (*item_mask)[item] == 0);
}

std::vector<std::vector<int32_t>> ContainingSignificant(
    const ItemSubsetSpace& subsets, const std::vector<SubsetId>& significant,
    const std::vector<uint8_t>* item_mask) {
  // Dense SubsetId -> significant index (or -1).
  std::vector<int64_t> sig_index(subsets.NumSubsets(), -1);
  for (size_t k = 0; k < significant.size(); ++k) {
    sig_index[significant[k]] = static_cast<int64_t>(k);
  }
  std::vector<std::vector<int32_t>> containing(subsets.num_items());
  for (int32_t i = 0; i < subsets.num_items(); ++i) {
    if (ItemMasked(item_mask, i)) continue;
    for (SubsetId s : subsets.ContainingSubsets(i)) {
      if (sig_index[s] >= 0) {
        containing[i].push_back(static_cast<int32_t>(sig_index[s]));
      }
    }
  }
  return containing;
}

void FoldRows(const RegionTrainingSet& set,
              const std::vector<std::vector<int32_t>>& containing,
              RowLists* lists, std::vector<RegressionSuffStats>* stats) {
  lists->Build(stats->size(), [&](auto&& emit) {
    for (size_t row = 0; row < set.num_examples(); ++row) {
      for (int32_t k : containing[set.items[row]]) {
        emit(static_cast<size_t>(k), row);
      }
    }
  });
  AddListedRows(set, *lists, stats->data());
}

RegionRowsVisitor SourceRowsVisitor(storage::TrainingDataSource* source) {
  // region -> source index, sorted once; shared so the visitor is copyable.
  auto region_index =
      std::make_shared<std::vector<std::pair<olap::RegionId, size_t>>>();
  const auto ids = source->RegionIds();
  region_index->reserve(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    region_index->emplace_back(ids[i], i);
  }
  std::sort(region_index->begin(), region_index->end());
  return [source, region_index](
             olap::RegionId region,
             const std::function<Status(const RegionTrainingSet&)>& fn)
             -> Status {
    auto it = std::lower_bound(region_index->begin(), region_index->end(),
                               std::make_pair(region, size_t{0}));
    if (it == region_index->end() || it->first != region) {
      return Status::OK();  // region not materialized: cell goes without CV
    }
    BW_ASSIGN_OR_RETURN(RegionTrainingSet set, source->Read(it->second));
    return fn(set);
  };
}

Result<CubeCell> BuildCubeCell(SubsetId sid, int32_t subset_size,
                               const Pick& pick, const CubeBuildConfig& config,
                               const std::vector<uint8_t>* item_mask,
                               const ItemSubsetSpace& subsets,
                               const RegionRowsVisitor& rows) {
  CubeCell cell;
  cell.subset = sid;
  cell.subset_size = subset_size;
  if (pick.region != olap::kInvalidRegion && pick.error < kCubeInf) {
    // Graceful degradation: a healthy fit is bit-identical to the plain
    // Fit() path; an ill-conditioned pick yields a flagged degraded model
    // instead of a model-less cell.
    auto fit = pick.stats.FitWithFallback();
    if (fit.ok()) {
      cell.has_model = true;
      cell.region = pick.region;
      cell.error = pick.error;
      cell.model = std::move(fit.value().model);
      cell.degradation = fit.value().degradation;
    }
  }
  if (!cell.has_model && pick.fallback_region != olap::kInvalidRegion &&
      pick.fallback_examples > 0) {
    // No region produced a finite error for this subset; fall back to the
    // region with the most examples so the cell still answers queries,
    // clearly flagged (error = inf, fallback_pick = true).
    auto fit = pick.fallback_stats.FitWithFallback();
    if (fit.ok()) {
      cell.has_model = true;
      cell.fallback_pick = true;
      cell.region = pick.fallback_region;
      cell.error = kCubeInf;
      cell.model = std::move(fit.value().model);
      cell.degradation = fit.value().degradation;
    }
  }
  if (cell.has_model && config.compute_cv_stats && rows != nullptr) {
    BW_RETURN_IF_ERROR(
        rows(cell.region, [&](const RegionTrainingSet& set) -> Status {
          std::vector<uint32_t> list;
          for (size_t r = 0; r < set.num_examples(); ++r) {
            const int32_t item = set.items[r];
            if (ItemMasked(item_mask, item)) continue;
            if (!subsets.SubsetContainsItem(sid, item)) continue;
            list.push_back(static_cast<uint32_t>(r));
          }
          Rng rng(RegionSeed(config.seed ^ static_cast<uint64_t>(sid),
                             cell.region));
          auto cv = regression::CrossValidationError(RowsOf(set, &list),
                                                     config.cv_folds, &rng);
          if (cv.ok()) {
            cell.cv = *cv;
            cell.has_cv = true;
          }
          return Status::OK();
        }));
  }
  return cell;
}

Result<BellwetherCube> AssembleCube(
    std::string_view builder_name,
    std::shared_ptr<const ItemSubsetSpace> subsets,
    const CubeBuildConfig& config, std::vector<CubeCell> cells,
    CubeBuildTelemetry telemetry, const Stopwatch& build_watch) {
  std::vector<int64_t> cell_of(subsets->NumSubsets(), -1);
  for (size_t i = 0; i < cells.size(); ++i) {
    cell_of[cells[i].subset] = static_cast<int64_t>(i);
  }
  // The degradation counters are a pure function of the finished cells, so
  // recounting here keeps them correct no matter how the cells were derived
  // (fresh scan, or a mix of re-derived and cached cells on the incremental
  // path).
  telemetry.ridge_refits = 0;
  telemetry.mean_fallbacks = 0;
  telemetry.fallback_picks = 0;
  for (const CubeCell& cell : cells) {
    if (cell.fallback_pick) ++telemetry.fallback_picks;
    if (cell.degradation == regression::FitDegradation::kRidge) {
      ++telemetry.ridge_refits;
    } else if (cell.degradation == regression::FitDegradation::kMeanFallback) {
      ++telemetry.mean_fallbacks;
    }
  }
  telemetry.significant_subsets = static_cast<int64_t>(cells.size());
  telemetry.cells_materialized = static_cast<int64_t>(cells.size());
  telemetry.build_seconds = build_watch.ElapsedSeconds();
  Metrics().significant->Increment(telemetry.significant_subsets);
  Metrics().cells->Increment(telemetry.cells_materialized);
  BW_LOG(obs::LogLevel::kInfo, "cube")
      .Field("passes", telemetry.data_passes)
      .Field("significant", telemetry.significant_subsets)
      .Field("cells", telemetry.cells_materialized)
      .Field("seconds", telemetry.build_seconds)
      << "cube built";
  BellwetherCube cube(std::move(subsets), std::move(cell_of),
                      std::move(cells));
  cube.set_build_telemetry(telemetry);
  // Flight-recorder document. Config deliberately omits
  // config.exec.num_threads: logical sections (and the fingerprint) must
  // match serial and parallel builds of the same cube.
  obs::RunReport report{std::string(builder_name)};
  report.SetConfig("cube.min_subset_size",
                   static_cast<int64_t>(config.min_subset_size));
  report.SetConfig("cube.min_examples_per_model",
                   static_cast<int64_t>(config.min_examples_per_model));
  report.SetConfig("cube.compute_cv_stats",
                   static_cast<int64_t>(config.compute_cv_stats ? 1 : 0));
  report.SetConfig("cube.cv_folds", static_cast<int64_t>(config.cv_folds));
  report.SetConfig("cube.seed", static_cast<int64_t>(config.seed));
  report.SetCount("cube.data_passes", telemetry.data_passes);
  report.SetCount("cube.significant_subsets", telemetry.significant_subsets);
  report.SetCount("cube.cells_materialized", telemetry.cells_materialized);
  report.SetCount("cube.ridge_refits", telemetry.ridge_refits);
  report.SetCount("cube.mean_fallbacks", telemetry.mean_fallbacks);
  report.SetCount("cube.fallback_picks", telemetry.fallback_picks);
  report.AddPhase("cube.build", telemetry.build_seconds);
  cube.set_build_report(std::move(report));
  return cube;
}

}  // namespace internal

namespace {

// Converts per-subset picks into the final cube: the cell-derivation and
// assembly phases back-to-back, for the builders that hold their picks in a
// local vector. The CV post-pass reads rows back from `source`.
Result<BellwetherCube> FinalizeCube(
    std::string_view builder_name, storage::TrainingDataSource* source,
    std::shared_ptr<const ItemSubsetSpace> subsets,
    const CubeBuildConfig& config, const std::vector<uint8_t>* item_mask,
    const std::vector<int32_t>& sizes,
    const std::vector<SubsetId>& significant,
    std::vector<internal::Pick> picks, CubeBuildTelemetry telemetry,
    const Stopwatch& build_watch) {
  internal::RegionRowsVisitor rows;
  if (config.compute_cv_stats) {
    rows = internal::SourceRowsVisitor(source);
  }
  std::vector<CubeCell> cells;
  cells.reserve(significant.size());
  for (size_t k = 0; k < significant.size(); ++k) {
    const SubsetId sid = significant[k];
    BW_ASSIGN_OR_RETURN(
        CubeCell cell,
        internal::BuildCubeCell(sid, sizes[sid], picks[k], config, item_mask,
                                *subsets, rows));
    cells.push_back(std::move(cell));
  }
  return internal::AssembleCube(builder_name, std::move(subsets), config,
                                std::move(cells), telemetry, build_watch);
}

}  // namespace

Result<std::shared_ptr<ItemSubsetSpace>> ItemSubsetSpace::Create(
    const table::Table& item_table, std::vector<ItemHierarchy> hierarchies) {
  if (hierarchies.empty()) {
    return Status::InvalidArgument("need at least one item hierarchy");
  }
  auto out = std::shared_ptr<ItemSubsetSpace>(new ItemSubsetSpace());
  std::vector<olap::Dimension> dims;
  std::vector<size_t> cols;
  for (const auto& ih : hierarchies) {
    auto idx = item_table.schema().FindField(ih.column);
    if (!idx.has_value()) {
      return Status::NotFound("item hierarchy column missing: " + ih.column);
    }
    if (item_table.schema().field(*idx).type != table::DataType::kString) {
      return Status::InvalidArgument(
          "item hierarchy column must be string labels: " + ih.column);
    }
    cols.push_back(*idx);
    dims.emplace_back(ih.dim);
  }
  out->hierarchies_ = std::move(hierarchies);
  out->space_ = std::make_unique<olap::RegionSpace>(std::move(dims));
  out->coords_.resize(item_table.num_rows());
  for (size_t r = 0; r < item_table.num_rows(); ++r) {
    olap::PointCoords& pc = out->coords_[r];
    pc.resize(cols.size());
    for (size_t h = 0; h < cols.size(); ++h) {
      const auto& col = item_table.column(cols[h]);
      if (col.IsNull(r)) {
        return Status::InvalidArgument("null item hierarchy label (item " +
                                       std::to_string(r) + ")");
      }
      BW_ASSIGN_OR_RETURN(NodeId n,
                          out->hierarchies_[h].dim.FindNode(col.StringAt(r)));
      if (!out->hierarchies_[h].dim.IsLeaf(n)) {
        return Status::InvalidArgument(
            "item hierarchy label is not a leaf: " + col.StringAt(r));
      }
      pc[h] = n;
    }
  }
  // Base slots in order of first appearance, each with its containing
  // subsets enumerated once.
  const olap::RegionSpace& space = *out->space_;
  std::vector<int32_t> slot_of_base(space.NumRegions(), -1);
  out->base_slot_.resize(out->coords_.size());
  out->slot_begin_.push_back(0);
  for (size_t r = 0; r < out->coords_.size(); ++r) {
    int32_t& slot = slot_of_base[out->BaseSubsetOf(static_cast<int32_t>(r))];
    if (slot < 0) {
      slot = out->num_base_slots();
      const size_t begin = out->slot_subsets_.size();
      space.ForEachContainingRegion(out->coords_[r], [&](SubsetId s) {
        out->slot_subsets_.push_back(s);
      });
      std::sort(out->slot_subsets_.begin() + begin, out->slot_subsets_.end());
      out->slot_begin_.push_back(out->slot_subsets_.size());
    }
    out->base_slot_[r] = slot;
  }
  return out;
}

std::vector<int32_t> ItemSubsetSpace::SubsetDepths(SubsetId subset) const {
  const olap::RegionCoords coords = space_->Decode(subset);
  std::vector<int32_t> depths(coords.size());
  for (size_t h = 0; h < coords.size(); ++h) {
    depths[h] = hierarchies_[h].dim.depth(coords[h]);
  }
  return depths;
}

BellwetherCube::BellwetherCube(std::shared_ptr<const ItemSubsetSpace> subsets,
                               std::vector<int64_t> cell_of,
                               std::vector<CubeCell> cells)
    : subsets_(std::move(subsets)),
      cell_of_(std::move(cell_of)),
      cells_(std::move(cells)) {
  BW_CHECK(cells_.size() <=
           static_cast<size_t>(std::numeric_limits<int32_t>::max()));
  const int32_t num_slots = subsets_->num_base_slots();
  candidate_begin_.reserve(static_cast<size_t>(num_slots) + 1);
  candidate_begin_.push_back(0);
  for (int32_t slot = 0; slot < num_slots; ++slot) {
    for (SubsetId s : subsets_->SlotSubsets(slot)) {
      const CubeCell* cell = FindCell(s);
      if (cell == nullptr || !cell->has_model) continue;
      candidates_.push_back(static_cast<int32_t>(cell_of_[s]));
    }
    candidate_begin_.push_back(static_cast<int32_t>(candidates_.size()));
  }
}

namespace {

// The order in which PredictItem tries candidates: ascending bound, NaN
// bounds after all others, ties broken by ascending subset. A strict total
// order over one item's candidates, whose subsets are distinct.
bool CandidateBefore(double a_bound, SubsetId a_subset, double b_bound,
                     SubsetId b_subset) {
  const bool a_nan = std::isnan(a_bound);
  const bool b_nan = std::isnan(b_bound);
  if (a_nan != b_nan) return b_nan;
  if (!a_nan && a_bound != b_bound) return a_bound < b_bound;
  return a_subset < b_subset;
}

}  // namespace

Result<CubePrediction> BellwetherCube::PredictItem(
    int32_t item, const RegionFeatureLookup& lookup,
    double confidence) const {
  const int32_t slot = subsets_->BaseSlotOf(item);
  const int32_t* const first = candidates_.data() + candidate_begin_[slot];
  const int32_t* const last = candidates_.data() + candidate_begin_[slot + 1];
  // The quantile is computed on first need: only cells with a CV spread
  // use it, so a confidence outside (0, 1) fails only where it matters.
  double z = 0.0;
  bool have_z = false;
  const auto bound_of = [&](const CubeCell& cell) {
    if (!cell.has_cv) return cell.error;
    if (!cell.cv.HasSpread()) return cell.cv.rmse;
    if (!have_z) {
      z = regression::NormalQuantileTwoSided(confidence);
      have_z = true;
    }
    return cell.cv.UpperBoundAt(z);
  };
  // Selection over the short list: each round takes the least candidate
  // ordered after the one tried before it.
  const CubeCell* tried = nullptr;
  double tried_bound = 0.0;
  int32_t skipped = 0;
  for (;;) {
    const CubeCell* best = nullptr;
    double best_bound = 0.0;
    for (const int32_t* c = first; c != last; ++c) {
      const CubeCell& cell = cells_[*c];
      const double bound = bound_of(cell);
      if (tried != nullptr &&
          !CandidateBefore(tried_bound, tried->subset, bound, cell.subset)) {
        continue;
      }
      if (best == nullptr ||
          CandidateBefore(bound, cell.subset, best_bound, best->subset)) {
        best = &cell;
        best_bound = bound;
      }
    }
    if (best == nullptr) break;
    size_t num_features = 0;
    const double* x = lookup.Find(best->region, item, &num_features);
    if (x != nullptr) {
      if (best->model.num_features() != num_features) [[unlikely]] {
        return ModelArityMismatch(best->model.num_features(), num_features);
      }
      CubePrediction out;
      out.value = best->model.Predict(x);
      out.subset = best->subset;
      out.region = best->region;
      out.upper_confidence_bound = best_bound;
      out.candidates_skipped = skipped;
      return out;
    }
    ++skipped;  // no data for the item in that region
    tried = best;
    tried_bound = best_bound;
  }
  return Status::NotFound(
      "no candidate bellwether region has data for the item");
}

std::vector<CrossTabRow> BellwetherCube::CrossTab(
    const std::vector<int32_t>& level_depths,
    const olap::RegionSpace* region_space) const {
  std::vector<CrossTabRow> rows;
  for (const CubeCell& cell : cells_) {
    if (subsets_->SubsetDepths(cell.subset) != level_depths) continue;
    CrossTabRow row;
    row.subset_label = subsets_->SubsetLabel(cell.subset);
    row.subset_size = cell.subset_size;
    if (cell.has_model) {
      row.error = cell.error;
      row.region_label = region_space != nullptr
                             ? region_space->RegionLabel(cell.region)
                             : std::to_string(cell.region);
    } else {
      row.error = kInf;
      row.region_label = "(none)";
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

Result<BellwetherCube> BuildBellwetherCubeNaive(
    storage::TrainingDataSource* source,
    std::shared_ptr<const ItemSubsetSpace> subsets,
    const CubeBuildConfig& config, const std::vector<uint8_t>* item_mask) {
  obs::TraceSpan span("BuildBellwetherCubeNaive", "cube");
  Stopwatch build_watch;
  CubeBuildTelemetry telemetry;
  const std::vector<int32_t> sizes =
      internal::SubsetSizes(*subsets, item_mask);
  const std::vector<SubsetId> significant =
      internal::SignificantSubsets(sizes, config.min_subset_size);
  std::vector<internal::Pick> picks(significant.size());
  const size_t num_sets = source->num_region_sets();

  std::vector<uint8_t> member(subsets->num_items(), 0);
  std::vector<uint32_t> list;
  for (size_t k = 0; k < significant.size(); ++k) {
    const SubsetId sid = significant[k];
    ++telemetry.data_passes;
    for (int32_t i = 0; i < subsets->num_items(); ++i) {
      member[i] = !internal::ItemMasked(item_mask, i) &&
                  subsets->SubsetContainsItem(sid, i);
    }
    // One basic bellwether search for this subset: read every region.
    for (size_t s = 0; s < num_sets; ++s) {
      BW_ASSIGN_OR_RETURN(RegionTrainingSet set, source->Read(s));
      list.clear();
      for (size_t row = 0; row < set.num_examples(); ++row) {
        if (member[set.items[row]]) list.push_back(static_cast<uint32_t>(row));
      }
      RegressionSuffStats stats(set.num_features);
      stats.AddRows(RowsOf(set, &list));
      picks[k].Offer(
          TrainingErrorOfStats(stats, config.min_examples_per_model),
          set.region, stats);
    }
  }
  Metrics().naive_passes->Increment(telemetry.data_passes);
  return FinalizeCube("cube_naive", source, std::move(subsets), config, item_mask, sizes,
                      significant, std::move(picks), telemetry, build_watch);
}

Result<BellwetherCube> BuildBellwetherCubeSingleScan(
    storage::TrainingDataSource* source,
    std::shared_ptr<const ItemSubsetSpace> subsets,
    const CubeBuildConfig& config, const std::vector<uint8_t>* item_mask) {
  obs::TraceSpan span("BuildBellwetherCubeSingleScan", "cube");
  if (subsets == nullptr) {
    return Status::InvalidArgument("null item subset space");
  }
  Stopwatch build_watch;
  CubeBuildTelemetry telemetry;
  const std::vector<int32_t> sizes =
      internal::SubsetSizes(*subsets, item_mask);
  const std::vector<SubsetId> significant =
      internal::SignificantSubsets(sizes, config.min_subset_size);
  const std::vector<std::vector<int32_t>> containing =
      internal::ContainingSignificant(*subsets, significant, item_mask);
  std::vector<internal::Pick> picks(significant.size());

  // Each region's per-subset <MinError, Size> accumulators are computed by
  // one task (inline without a pool) and offered to the picks in scan order:
  // the same Offer() sequence for every thread count, so cube cells are
  // bit-identical. The buffers outlive the pool, whose destructor drains any
  // task still queued when the scan fails.
  struct RegionCubeStats {
    olap::RegionId region = olap::kInvalidRegion;
    std::vector<RegressionSuffStats> stats;  // per significant subset
    std::vector<double> error;
    RowLists lists;  // per significant subset
  };
  const auto compute = [&significant, &containing, &config](
                           const RegionTrainingSet& set, RegionCubeStats* r) {
    r->region = set.region;
    if (r->stats.empty() ||
        r->stats[0].num_features() != static_cast<size_t>(set.num_features)) {
      r->stats.assign(significant.size(),
                      RegressionSuffStats(set.num_features));
      r->error.resize(significant.size());
    } else {
      for (RegressionSuffStats& s : r->stats) s.Reset();
    }
    internal::FoldRows(set, containing, &r->lists, &r->stats);
    for (size_t k = 0; k < significant.size(); ++k) {
      r->error[k] =
          TrainingErrorOfStats(r->stats[k], config.min_examples_per_model);
    }
    return r;
  };
  exec::FreeList<RegionCubeStats> buffers;
  const int32_t num_threads = exec::ResolveNumThreads(config.exec.num_threads);
  std::unique_ptr<exec::ThreadPool> pool;
  if (num_threads > 1) pool = std::make_unique<exec::ThreadPool>(num_threads);
  exec::MergeInSubmissionOrder<RegionCubeStats*> reducer(
      pool.get(), /*max_outstanding=*/2 * static_cast<size_t>(num_threads),
      "cube.scan_merge", [&](size_t, RegionCubeStats* r) -> Status {
        for (size_t k = 0; k < significant.size(); ++k) {
          picks[k].Offer(r->error[k], r->region, r->stats[k]);
        }
        buffers.Release(r);
        return Status::OK();
      });
  BW_RETURN_IF_ERROR(
      source->Scan([&](const RegionTrainingSet& set) -> Status {
        RegionCubeStats* r = buffers.Acquire();
        if (reducer.parallel()) {
          // The visited set is only valid during this callback; the task
          // owns a copy.
          return reducer.Submit(
              [compute, r, copy = set]() { return compute(copy, r); });
        }
        return reducer.Submit([&]() { return compute(set, r); });
      }));
  BW_RETURN_IF_ERROR(reducer.Finish());
  telemetry.data_passes = 1;
  Metrics().single_scan_passes->Increment(1);
  return FinalizeCube("cube_single_scan", source, std::move(subsets), config,
                      item_mask, sizes, significant, std::move(picks),
                      telemetry, build_watch);
}

Result<BellwetherCube> BuildBellwetherCubeOptimized(
    storage::TrainingDataSource* source,
    std::shared_ptr<const ItemSubsetSpace> subsets,
    const CubeBuildConfig& config, const std::vector<uint8_t>* item_mask) {
  obs::TraceSpan span("BuildBellwetherCubeOptimized", "cube");
  Stopwatch build_watch;
  CubeBuildTelemetry telemetry;
  const std::vector<int32_t> sizes =
      internal::SubsetSizes(*subsets, item_mask);
  const std::vector<SubsetId> significant =
      internal::SignificantSubsets(sizes, config.min_subset_size);
  std::vector<internal::Pick> picks(significant.size());

  // Per item: its base subset (leaf coordinate combination).
  std::vector<SubsetId> base_of(subsets->num_items());
  for (int32_t i = 0; i < subsets->num_items(); ++i) {
    base_of[i] = subsets->BaseSubsetOf(i);
  }

  const size_t num_subsets = static_cast<size_t>(subsets->NumSubsets());
  std::vector<RegressionSuffStats> lattice(num_subsets);
  RowLists lists;
  BW_RETURN_IF_ERROR(source->Scan([&](const RegionTrainingSet& set)
                                      -> Status {
    for (auto& s : lattice) {
      if (!s.empty()) s.Reset();
    }
    // Theorem 1: accumulate g(.) at the base subsets only...
    lists.Build(num_subsets, [&](auto&& emit) {
      for (size_t row = 0; row < set.num_examples(); ++row) {
        const int32_t item = set.items[row];
        if (!internal::ItemMasked(item_mask, item)) emit(base_of[item], row);
      }
    });
    for (size_t s = 0; s < num_subsets; ++s) {
      if (lists.size(s) > 0 && lattice[s].num_features() == 0) {
        lattice[s] = RegressionSuffStats(set.num_features);
      }
    }
    AddListedRows(set, lists, lattice.data());
    // ...then combine with q(.) (element-wise sums) up the lattice.
    RollupSubsetStats(subsets->space(), &lattice);
    for (size_t k = 0; k < significant.size(); ++k) {
      picks[k].Offer(TrainingErrorOfStats(lattice[significant[k]],
                                          config.min_examples_per_model),
                     set.region, lattice[significant[k]]);
    }
    return Status::OK();
  }));
  telemetry.data_passes = 1;
  Metrics().optimized_passes->Increment(1);
  return FinalizeCube("cube_optimized", source, std::move(subsets), config, item_mask, sizes,
                      significant, std::move(picks), telemetry, build_watch);
}

}  // namespace bellwether::core
