#include "core/bellwether_state.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/checksummed_io.h"
#include "common/fingerprint.h"
#include "common/stopwatch.h"
#include "core/eval_util.h"
#include "core/model_io.h"
#include "core/search_internal.h"
#include "exec/parallel.h"
#include "obs/logger.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "regression/suff_stats_io.h"
#include "robust/fault_injection.h"
#include "storage/arena.h"

namespace bellwether::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Smallest encoding of one region in the state file: id, touched count,
// and the header of an empty rows record. Bounds the region count by the
// bytes left before the loader trusts it.
constexpr uint64_t kMinRegionBytes = 8 + 8 + (8 + 4 + 8 + 1);

using regression::RegressionSuffStats;
using storage::RegionTrainingSet;

// Registry counters for the incremental-maintenance path; resolved once and
// cached (registry pointers are stable).
struct StateMetrics {
  obs::Counter* delta_batches;
  obs::Counter* delta_rows;
  obs::Counter* rederived;
  obs::Counter* reused;
};

const StateMetrics& Metrics() {
  static const StateMetrics m{
      obs::DefaultMetrics().GetCounter(obs::kMStateDeltaBatches),
      obs::DefaultMetrics().GetCounter(obs::kMStateDeltaRows),
      obs::DefaultMetrics().GetCounter(obs::kMStateCellsRederived),
      obs::DefaultMetrics().GetCounter(obs::kMStateCellsReused)};
  return m;
}

// Appends src's rows to dst in ingest order. When exactly one side carries
// explicit weights, the other side's implicit 1.0 weights are materialized
// so RegionTrainingSet::weight(i) returns the same value either way — the
// accumulators already folded these rows with those exact weights.
void AppendRows(RegionTrainingSet* dst, const RegionTrainingSet& src) {
  const size_t old_n = dst->num_examples();
  const size_t add_n = src.num_examples();
  const bool need_weights = dst->weighted() || src.weighted();
  dst->items.insert(dst->items.end(), src.items.begin(), src.items.end());
  dst->features.insert(dst->features.end(), src.features.begin(),
                       src.features.end());
  dst->targets.insert(dst->targets.end(), src.targets.begin(),
                      src.targets.end());
  if (need_weights) {
    if (dst->weights.size() != old_n) dst->weights.assign(old_n, 1.0);
    if (src.weighted()) {
      dst->weights.insert(dst->weights.end(), src.weights.begin(),
                          src.weights.end());
    } else {
      dst->weights.insert(dst->weights.end(), add_n, 1.0);
    }
  }
}

}  // namespace

Result<std::unique_ptr<BellwetherState>> BellwetherState::Init(
    std::shared_ptr<const ItemSubsetSpace> subsets, Options options,
    const std::vector<uint8_t>* item_mask) {
  if (subsets == nullptr) {
    return Status::InvalidArgument("null item subset space");
  }
  auto state = std::unique_ptr<BellwetherState>(new BellwetherState());
  state->subsets_ = std::move(subsets);
  state->options_ = std::move(options);
  if (item_mask != nullptr) {
    state->has_mask_ = true;
    state->item_mask_ = *item_mask;
  }
  const ItemSubsetSpace& space = *state->subsets_;
  const CubeBuildConfig& config = state->options_.config;
  const std::vector<uint8_t>* mask =
      state->has_mask_ ? &state->item_mask_ : nullptr;
  state->sizes_ = internal::SubsetSizes(space, mask);
  state->significant_ =
      internal::SignificantSubsets(state->sizes_, config.min_subset_size);
  state->containing_ =
      internal::ContainingSignificant(space, state->significant_, mask);
  state->dirty_.Resize(space.NumSubsets());
  state->cell_cache_.resize(state->significant_.size());
  // State identity: everything the derived skeleton depends on. Stored in
  // every state file, so the formula must not change.
  FingerprintBuilder fp;
  fp.Add(static_cast<uint64_t>(space.NumSubsets()))
      .Add(static_cast<uint64_t>(config.min_subset_size))
      .Add(static_cast<uint64_t>(config.min_examples_per_model))
      .Add(static_cast<uint64_t>(config.compute_cv_stats ? 1 : 0))
      .Add(static_cast<uint64_t>(config.cv_folds))
      .Add(config.seed);
  for (SubsetId sid : state->significant_) {
    fp.Add(static_cast<uint64_t>(sid));
  }
  fp.Add(static_cast<uint64_t>(state->has_mask_ ? 1 : 0));
  if (state->has_mask_) {
    fp.Add(static_cast<uint64_t>(state->item_mask_.size()));
    for (uint8_t m : state->item_mask_) {
      fp.Add(static_cast<uint64_t>(m != 0 ? 1 : 0));
    }
  }
  state->fingerprint_ = fp.value();
  return state;
}

BellwetherState::RegionSlot& BellwetherState::SlotFor(olap::RegionId region,
                                                     int32_t num_features) {
  RegionSlot& slot = slots_[region];
  if (slot.rows.region == olap::kInvalidRegion) {
    slot.stats.resize(significant_.size());
    slot.errors.assign(significant_.size(), kInf);
    slot.rows.region = region;
    slot.rows.num_features = num_features;
  }
  return slot;
}

Status BellwetherState::ValidateDeltaBatch(
    const std::vector<RegionTrainingSet>& batch) const {
  olap::RegionId prev = olap::kInvalidRegion;
  int32_t arity = num_features_;
  const int32_t num_items = subsets_->num_items();
  for (const RegionTrainingSet& set : batch) {
    if (set.region < 0) {
      return Status::InvalidArgument("delta set with invalid region id");
    }
    if (set.region <= prev) {
      return Status::InvalidArgument(
          "delta batch regions must be strictly ascending and distinct");
    }
    prev = set.region;
    if (set.num_examples() == 0) continue;
    if (set.num_features <= 0) {
      return Status::InvalidArgument("delta set without feature columns");
    }
    if (arity == 0) arity = set.num_features;
    if (set.num_features != arity) {
      return Status::InvalidArgument(
          "delta set feature arity differs from the state's");
    }
    if (set.features.size() !=
        set.num_examples() * static_cast<size_t>(set.num_features)) {
      return Status::InvalidArgument("delta set features size mismatch");
    }
    if (set.targets.size() != set.num_examples()) {
      return Status::InvalidArgument("delta set targets size mismatch");
    }
    if (!set.weights.empty() && set.weights.size() != set.num_examples()) {
      return Status::InvalidArgument("delta set weights size mismatch");
    }
    for (int32_t item : set.items) {
      if (item < 0 || item >= num_items) {
        return Status::InvalidArgument("delta row item index out of range");
      }
    }
  }
  return Status::OK();
}

Status BellwetherState::ApplyDelta(std::vector<RegionTrainingSet> batch) {
  // Entry fault: fires before any work, so a caller can retry the batch.
  BW_RETURN_IF_ERROR(robust::MaybeInjectIo(robust::kFaultStateDelta));
  BW_RETURN_IF_ERROR(ValidateDeltaBatch(batch));
  obs::TraceSpan span("BellwetherState::ApplyDelta", "state");
  Stopwatch delta_watch;
  const CubeBuildConfig& config = options_.config;

  // One task per region: copy the base accumulators of the touched subsets,
  // fold the new rows in row order (the exact floating-point sequence a
  // from-scratch scan of the concatenated rows performs), and compute the
  // new errors. Tasks only read the state; the reducer collects their
  // results in submission order — ascending region — and the batch is
  // committed after the last one, so a failed batch changes nothing and
  // the state is bit-identical for any thread count.
  struct RegionDelta {
    RegionTrainingSet set;
    std::vector<int32_t> touched;  // significant indices, ascending
    std::vector<RegressionSuffStats> stats;  // parallel to touched
    std::vector<double> errors;              // parallel to touched
  };
  std::vector<RegionDelta> deltas;
  deltas.reserve(batch.size());
  const int32_t num_threads = exec::ResolveNumThreads(config.exec.num_threads);
  std::unique_ptr<exec::ThreadPool> pool;
  if (num_threads > 1) pool = std::make_unique<exec::ThreadPool>(num_threads);
  Status status;
  {
    exec::MergeInSubmissionOrder<RegionDelta> reducer(
        pool.get(), /*max_outstanding=*/2 * static_cast<size_t>(num_threads),
        "state.delta_merge", [&](size_t, RegionDelta d) -> Status {
          deltas.push_back(std::move(d));
          // Crash injection between regions of a batch, modeling a killed
          // process: nothing of the batch is committed yet.
          if (robust::ShouldCrash(robust::kFaultStateDelta)) {
            return Status::IoError(
                "injected crash during delta apply (simulated kill)");
          }
          return Status::OK();
        });
    for (RegionTrainingSet& set : batch) {
      if (set.num_examples() == 0) continue;
      // The region's retained statistics, or none for a new region. Slots
      // are neither created nor changed until the commit below.
      const auto it = slots_.find(set.region);
      const RegionSlot* slot = it == slots_.end() ? nullptr : &it->second;
      auto owned = std::make_shared<RegionTrainingSet>(std::move(set));
      status = reducer.Submit([this, &config, slot, owned]() {
        RegionDelta d;
        d.set = std::move(*owned);
        // The touched subsets start from the slot's statistics (arity 0
        // until first touched) and fold the new rows on top.
        std::vector<RegressionSuffStats> stats(significant_.size());
        for (int32_t item : d.set.items) {
          for (int32_t k : containing_[item]) {
            if (stats[k].num_features() != 0) continue;
            stats[k] = slot != nullptr && slot->stats[k].num_features() != 0
                           ? slot->stats[k]
                           : RegressionSuffStats(d.set.num_features);
            d.touched.push_back(k);
          }
        }
        std::sort(d.touched.begin(), d.touched.end());
        RowLists lists;
        internal::FoldRows(d.set, containing_, &lists, &stats);
        d.stats.reserve(d.touched.size());
        d.errors.reserve(d.touched.size());
        for (int32_t k : d.touched) {
          d.errors.push_back(
              TrainingErrorOfStats(stats[k], config.min_examples_per_model));
          d.stats.push_back(std::move(stats[k]));
        }
        return d;
      });
      if (!status.ok()) break;
    }
    if (status.ok()) status = reducer.Finish();
  }
  BW_RETURN_IF_ERROR(status);

  // Commit, in ascending region order.
  if (num_features_ == 0 && !deltas.empty()) {
    num_features_ = deltas.front().set.num_features;
  }
  int64_t rows_committed = 0;
  for (RegionDelta& d : deltas) {
    RegionSlot& slot = SlotFor(d.set.region, d.set.num_features);
    for (size_t t = 0; t < d.touched.size(); ++t) {
      const int32_t k = d.touched[t];
      slot.stats[k] = std::move(d.stats[t]);
      slot.errors[k] = d.errors[t];
      dirty_.Mark(significant_[k]);
    }
    rows_committed += static_cast<int64_t>(d.set.num_examples());
    AppendRows(&slot.rows, d.set);
    storage::RegionSetArena::Default().Release(std::move(d.set));
    slot.score_valid = false;
  }
  ++delta_batches_;
  delta_seconds_ += delta_watch.ElapsedSeconds();
  Metrics().delta_batches->Increment(1);
  Metrics().delta_rows->Increment(rows_committed);
  BW_LOG(obs::LogLevel::kInfo, "state")
      .Field("rows", rows_committed)
      .Field("dirty_cells", dirty_.count())
      .Field("batches", delta_batches_)
      << "delta batch applied";
  return Status::OK();
}

Result<BellwetherCube> BellwetherState::Finalize() {
  obs::TraceSpan span("BellwetherState::Finalize", "state");
  Stopwatch finalize_watch;
  const CubeBuildConfig& config = options_.config;
  const std::vector<uint8_t>* mask = has_mask_ ? &item_mask_ : nullptr;
  const size_t nsig = significant_.size();
  int64_t rederived = 0;
  int64_t reused = 0;
  for (size_t k = 0; k < nsig; ++k) {
    const SubsetId sid = significant_[k];
    // A cell's inputs change exactly when a delta row touched its subset:
    // containing_ enumerates the significant subsets of each (unmasked)
    // item, and both the accumulators and the CV row filter select rows
    // through that same membership test.
    if (finalized_once_ && !dirty_.IsMarked(sid)) {
      ++reused;
      continue;
    }
    // Derive the pick by offering every region in ascending order — the
    // same Offer() sequence a from-scratch scan performs.
    internal::Pick pick;
    for (const auto& [region, slot] : slots_) {
      pick.Offer(slot.errors[k], region, slot.stats[k]);
    }
    CubeCell cell = internal::BuildCubeCell(sid, sizes_[sid], pick);
    if (cell.has_model && config.compute_cv_stats) {
      internal::CrossValidateCell(slots_.at(cell.region).rows, config, mask,
                                  *subsets_, &cell);
    }
    cell_cache_[k] = std::move(cell);
    ++rederived;
  }
  dirty_.Clear();
  finalized_once_ = true;
  Metrics().rederived->Increment(rederived);
  Metrics().reused->Increment(reused);
  BW_LOG(obs::LogLevel::kInfo, "state")
      .Field("rederived", rederived)
      .Field("reused", reused)
      << "state finalized";
  CubeBuildTelemetry telemetry;
  telemetry.data_passes = 1;
  std::vector<CubeCell> cells = cell_cache_;
  BW_ASSIGN_OR_RETURN(
      BellwetherCube cube,
      internal::AssembleCube("cube_state", subsets_, config, std::move(cells),
                             telemetry, finalize_watch));
  // Operational timing phases of the incremental path. Phases are excluded
  // from the report's logical fingerprint, so delta-maintained and rebuilt
  // cubes still compare byte-identical on their logical sections.
  obs::RunReport report = cube.build_report();
  report.AddPhase("state.apply_delta", delta_seconds_);
  report.AddPhase("state.finalize", finalize_watch.ElapsedSeconds());
  cube.set_build_report(std::move(report));
  return cube;
}

Result<BasicSearchResult> BellwetherState::FinalizeSearch(
    const BasicSearchOptions& options) {
  obs::TraceSpan span("BellwetherState::FinalizeSearch", "state");
  // Cached per-region scores are keyed by the scoring options; a change
  // invalidates every cache entry (delta rows invalidate per region).
  FingerprintBuilder fp;
  fp.Add(static_cast<uint64_t>(options.estimate))
      .Add(static_cast<uint64_t>(options.cv_folds))
      .Add(options.seed)
      .Add(static_cast<uint64_t>(options.min_examples));
  if (fp.value() != search_options_key_) {
    for (auto& [region, slot] : slots_) slot.score_valid = false;
    search_options_key_ = fp.value();
  }
  const std::vector<uint8_t>* mask = has_mask_ ? &item_mask_ : nullptr;
  BasicSearchResult result;
  SearchTelemetry& t = result.telemetry;
  Stopwatch scan_watch;
  result.scores.reserve(slots_.size());
  obs::Histogram* fit_seconds = obs::DefaultMetrics().GetHistogram(
      obs::kMSearchRegionFitSeconds, obs::LatencyBucketsSeconds());
  size_t ordinal = 0;
  for (auto& [region, slot] : slots_) {
    ++t.regions_enumerated;
    t.rows_scanned += static_cast<int64_t>(slot.rows.num_examples());
    if (!slot.score_valid) {
      Stopwatch fit_watch;
      internal::ScoreRegion(slot.rows, options, mask, &slot.score);
      fit_seconds->Observe(fit_watch.ElapsedSeconds());
      slot.score_valid = true;
    }
    RegionScore score = slot.score;
    score.source_index = ordinal++;
    result.scores.push_back(std::move(score));
  }
  for (const RegionScore& score : result.scores) {
    if (score.usable) {
      ++t.regions_scored;
    } else if (score.num_examples <
               static_cast<size_t>(
                   std::max<int32_t>(options.min_examples, 2))) {
      ++t.skipped_min_examples;
    } else {
      ++t.model_fit_failures;
    }
  }
  t.scan_seconds = scan_watch.ElapsedSeconds();
  obs::DefaultMetrics()
      .GetCounter(obs::kMSearchRegionsEnumerated)
      ->Increment(t.regions_enumerated);
  obs::DefaultMetrics()
      .GetCounter(obs::kMSearchRegionsScored)
      ->Increment(t.regions_scored);
  obs::DefaultMetrics()
      .GetCounter(obs::kMSearchFitFailures)
      ->Increment(t.model_fit_failures);
  obs::DefaultMetrics()
      .GetCounter(obs::kMSearchRowsScanned)
      ->Increment(t.rows_scanned);
  double best = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < result.scores.size(); ++i) {
    const RegionScore& s = result.scores[i];
    if (s.usable && s.error.rmse < best) {
      best = s.error.rmse;
      result.bellwether = s.region;
      result.bellwether_index = i;
      result.error = s.error;
    }
  }
  if (result.found()) {
    const RegionSlot& slot = slots_.find(result.bellwether)->second;
    BW_RETURN_IF_ERROR(internal::RefitModelFromSet(slot.rows, mask, &result));
  }
  internal::FillSearchReport("basic_search", options, &result);
  return result;
}

Status BellwetherState::Save(const std::string& path) const {
  return SaveBellwetherState(*this, path);
}

Result<std::unique_ptr<BellwetherState>> BellwetherState::Open(
    const std::string& path, std::shared_ptr<const ItemSubsetSpace> subsets) {
  return LoadBellwetherState(path, std::move(subsets));
}

// Body layout (raw little-endian; DESIGN.md "State file"):
//   header   fingerprint, config, mask, num_features, delta_batches, regions
//   region   id, touched count, then per touched statistic its slot index
//            and the regression/suff_stats_io.h encoding
//   rows     the region's retained rows as one spill-file record
//            (storage::WriteRegionRecord, RegionTrainingSet::ByteSize bytes)
void BellwetherState::SerializeTo(ChecksummedWriter& out) const {
  const CubeBuildConfig& c = options_.config;
  out.Put(fingerprint_);
  out.Put(c.min_subset_size);
  out.Put(c.min_examples_per_model);
  out.Put(static_cast<uint8_t>(c.compute_cv_stats ? 1 : 0));
  out.Put(c.cv_folds);
  out.Put(c.seed);
  out.Put(static_cast<uint8_t>(has_mask_ ? 1 : 0));
  if (has_mask_) {
    out.Put(static_cast<int64_t>(item_mask_.size()));
    out.PutArray(item_mask_.data(), item_mask_.size());
  }
  out.Put(num_features_);
  out.Put(delta_batches_);
  out.Put(static_cast<int64_t>(slots_.size()));
  for (const auto& [region, slot] : slots_) {
    // Only touched accumulators hit the wire (arity 0 marks untouched); the
    // dense remainder is reconstructed on load. Errors are not persisted —
    // they are recomputed from the statistics, which is deterministic.
    int64_t touched = 0;
    for (const RegressionSuffStats& s : slot.stats) {
      if (s.num_features() != 0) ++touched;
    }
    out.Put(region);
    out.Put(touched);
    for (size_t k = 0; k < slot.stats.size(); ++k) {
      if (slot.stats[k].num_features() == 0) continue;
      out.Put(static_cast<int32_t>(k));
      regression::WriteSuffStats(out, slot.stats[k]);
    }
    storage::WriteRegionRecord(out, slot.rows);
  }
}

Result<std::unique_ptr<BellwetherState>> BellwetherState::DeserializeFrom(
    ChecksummedReader& in, std::shared_ptr<const ItemSubsetSpace> subsets) {
  uint64_t stored_fp = 0;
  Options options;
  CubeBuildConfig& c = options.config;
  uint8_t cv = 0;
  uint8_t has_mask = 0;
  BW_RETURN_IF_ERROR(in.Get(&stored_fp));
  BW_RETURN_IF_ERROR(in.Get(&c.min_subset_size));
  BW_RETURN_IF_ERROR(in.Get(&c.min_examples_per_model));
  BW_RETURN_IF_ERROR(in.Get(&cv));
  BW_RETURN_IF_ERROR(in.Get(&c.cv_folds));
  BW_RETURN_IF_ERROR(in.Get(&c.seed));
  BW_RETURN_IF_ERROR(in.Get(&has_mask));
  c.compute_cv_stats = cv != 0;
  std::vector<uint8_t> mask;
  if (has_mask != 0) {
    int64_t n = 0;
    BW_RETURN_IF_ERROR(in.Get(&n));
    if (n < 0) return Status::IoError("implausible mask size in state");
    BW_RETURN_IF_ERROR(in.GetVector(&mask, static_cast<uint64_t>(n)));
  }
  int32_t num_features = 0;
  int64_t delta_batches = 0;
  int64_t num_regions = 0;
  BW_RETURN_IF_ERROR(in.Get(&num_features));
  BW_RETURN_IF_ERROR(in.Get(&delta_batches));
  BW_RETURN_IF_ERROR(in.Get(&num_regions));
  if (num_features < 0 || num_features > 4096) {
    return Status::IoError("bad state num_features");
  }
  if (delta_batches < 0) return Status::IoError("bad state delta_batches");
  if (num_regions < 0) {
    return Status::IoError("implausible region count in state");
  }
  BW_RETURN_IF_ERROR(
      in.CheckFits(static_cast<uint64_t>(num_regions), kMinRegionBytes));
  BW_ASSIGN_OR_RETURN(
      std::unique_ptr<BellwetherState> state,
      Init(std::move(subsets), std::move(options),
           has_mask != 0 ? &mask : nullptr));
  if (state->fingerprint_ != stored_fp) {
    return Status::FailedPrecondition(
        "state fingerprint mismatch (stale or foreign state file)");
  }
  state->num_features_ = num_features;
  state->delta_batches_ = delta_batches;
  const int64_t nsig = static_cast<int64_t>(state->significant_.size());
  const int32_t num_items = state->subsets_->num_items();
  const int32_t min_examples = state->options_.config.min_examples_per_model;
  olap::RegionId prev_region = olap::kInvalidRegion;
  for (int64_t i = 0; i < num_regions; ++i) {
    olap::RegionId region = olap::kInvalidRegion;
    int64_t nonempty = 0;
    BW_RETURN_IF_ERROR(in.Get(&region));
    BW_RETURN_IF_ERROR(in.Get(&nonempty));
    if (region < 0 || region <= prev_region) {
      return Status::IoError("state regions out of order");
    }
    prev_region = region;
    if (nonempty < 0 || nonempty > nsig) {
      return Status::IoError("implausible slot count in state");
    }
    RegionSlot& slot = state->SlotFor(region, num_features);
    int32_t prev_k = -1;
    for (int64_t j = 0; j < nonempty; ++j) {
      int32_t k = -1;
      BW_RETURN_IF_ERROR(in.Get(&k));
      if (k <= prev_k || k >= nsig) {
        return Status::IoError("state slot index out of range");
      }
      prev_k = k;
      BW_ASSIGN_OR_RETURN(RegressionSuffStats stats,
                          regression::ReadSuffStats(in));
      if (stats.num_features() != static_cast<size_t>(num_features)) {
        return Status::IoError("state slot stats arity mismatch");
      }
      slot.errors[k] = TrainingErrorOfStats(stats, min_examples);
      slot.stats[k] = std::move(stats);
    }
    RegionTrainingSet& rows = slot.rows;
    BW_RETURN_IF_ERROR(storage::ReadRegionRecord(in, &rows));
    if (rows.region != region || rows.num_features != num_features) {
      return Status::IoError("state retained rows do not match their region");
    }
    for (int32_t item : rows.items) {
      if (item < 0 || item >= num_items) {
        return Status::IoError("state row item index out of range");
      }
    }
  }
  // A reopened state re-derives every cell on its first Finalize
  // (finalized_once_ is false), which is deterministic from the restored
  // statistics and rows — so kill/reopen converges bit for bit.
  return state;
}

}  // namespace bellwether::core
