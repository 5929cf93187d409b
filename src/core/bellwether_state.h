#ifndef BELLWETHER_CORE_BELLWETHER_STATE_H_
#define BELLWETHER_CORE_BELLWETHER_STATE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/stopwatch.h"
#include "core/basic_search.h"
#include "core/bellwether_cube.h"
#include "core/cube_build_internal.h"
#include "olap/dirty.h"
#include "storage/training_data.h"

namespace bellwether {
class ChecksummedReader;
class ChecksummedWriter;
}  // namespace bellwether

namespace bellwether::core {

/// Mutable algebraic core of the bellwether cube: the per-(region, subset)
/// regression sufficient statistics of Theorem 1, held as a persistent
/// object instead of scan-local temporaries. Cube construction decomposes
/// into three phases over it:
///
///   Init        capture the subset lattice, significant subsets, and item
///               mask (immutable for the state's lifetime)
///   Ingest      fold fact rows in — either one historical scan
///               (IngestScan, the one-shot mode BuildBellwetherCubeSingleScan
///               is expressed in) or incremental row batches (ApplyDelta)
///   Finalize    derive models / errors / min-error picks into a
///               BellwetherCube (or a BasicSearchResult via FinalizeSearch)
///
/// Because the sufficient statistic is algebraic (g of Theorem 1), folding a
/// delta batch row-by-row onto the retained accumulators reproduces, bit for
/// bit, the accumulator a from-scratch scan of the concatenated stream would
/// produce — so an ApplyDelta-maintained cube is bit-identical to a rebuild,
/// at any thread count. ApplyDelta tracks the cube cells its rows touched in
/// a dirty set; Finalize re-derives only dirty cells and reuses the cached
/// remainder.
///
/// Incremental states persist via model_io (SaveBellwetherState /
/// LoadBellwetherState, format "bellwether-state-v4"): packed-triangle
/// suff-stats and retained rows as raw doubles under a CRC-32C trailer,
/// per-cell errors recomputed on load. A reopened state re-derives every
/// cell on its first Finalize, so kill/reopen/re-apply converges to the
/// same artifacts.
///
/// Not thread-safe: one logical owner drives the phase sequence (ApplyDelta
/// parallelizes internally and merges in submission order). An ApplyDelta
/// error other than an injected transactional entry fault leaves the state
/// poisoned — reopen the last saved state and re-apply the batch.
class BellwetherState {
 public:
  struct Options {
    CubeBuildConfig config;
    /// Incremental mode retains per-region rows and sufficient statistics
    /// so ApplyDelta / Finalize / FinalizeSearch can maintain artifacts
    /// over time. One-shot mode (BuildBellwetherCubeSingleScan) streams a
    /// source once via IngestScan and finalizes against it.
    bool incremental = true;
    /// Name of the flight-recorder report attached to finalized cubes.
    std::string report_name = "cube_state";
  };

  /// Phase 1: derives the immutable build skeleton (subset sizes,
  /// significant subsets, per-item containing lists, state fingerprint).
  /// `item_mask` is copied; nullptr means all items.
  static Result<std::unique_ptr<BellwetherState>> Init(
      std::shared_ptr<const ItemSubsetSpace> subsets, Options options,
      const std::vector<uint8_t>* item_mask = nullptr);

  BellwetherState(const BellwetherState&) = delete;
  BellwetherState& operator=(const BellwetherState&) = delete;

  /// Phase 2, one-shot mode: the historical single scan, including its
  /// checkpoint/resume machinery and the in-submission-order parallel merge
  /// (bit-identical across thread counts). `source` must stay alive until
  /// Finalize() (the CV post-pass reads rows back from it).
  Status IngestScan(storage::TrainingDataSource* source);

  /// Phase 2, incremental mode: folds a batch of new fact rows into the
  /// retained per-(region, subset) accumulators and appends the rows to the
  /// per-region row store. Sets must be strictly ascending by distinct
  /// RegionId within the batch (the same region may recur across batches;
  /// its retained rows concatenate in ingest order, so they are not
  /// guaranteed ascending by item). Cells whose statistics changed are
  /// marked dirty. Per-region work runs on a pool and is merged in
  /// submission order, so the resulting state is bit-identical for any
  /// thread count. When config.checkpoint_path is set, the state is saved
  /// after each successful batch (batch-boundary durability).
  Status ApplyDelta(std::vector<storage::RegionTrainingSet> batch);

  /// Phase 3: derives the cube. One-shot mode finalizes the scanned picks
  /// exactly as the historical builder did. Incremental mode re-derives the
  /// cells of dirty subsets (all of them on the first Finalize after Init or
  /// Open) and reuses cached cells for the rest — cell contents, cube
  /// artifact bytes, and the report's logical sections are bit-identical to
  /// a from-scratch rebuild of the same rows. Callable repeatedly in
  /// incremental mode as deltas continue to arrive.
  Result<BellwetherCube> Finalize();

  /// Derives a basic bellwether search result over the retained per-region
  /// rows (incremental mode only), equivalent to RunBasicBellwetherSearch
  /// over a source holding the same rows in ascending-region order.
  /// Per-region scores are cached and invalidated by new delta rows for the
  /// region or a change of scoring options.
  Result<BasicSearchResult> FinalizeSearch(const BasicSearchOptions& options);

  /// Persists an incremental state (SaveBellwetherState,
  /// "bellwether-state-v4"); the previous file is replaced atomically.
  Status Save(const std::string& path) const;

  /// Reopens a saved incremental state against the recreated subset space.
  /// The stored fingerprint must match the one recomputed from the space,
  /// config, and mask (kFailedPrecondition otherwise — stale or foreign
  /// states never silently corrupt a build).
  static Result<std::unique_ptr<BellwetherState>> Open(
      const std::string& path, std::shared_ptr<const ItemSubsetSpace> subsets);

  /// Binary body of the state file (inside the checksummed framing); used
  /// by model_io. DeserializeFrom keeps every structural check of the
  /// format and bounds each count by the bytes left before it allocates.
  Status SerializeTo(ChecksummedWriter& out) const;
  static Result<std::unique_ptr<BellwetherState>> DeserializeFrom(
      ChecksummedReader& in, std::shared_ptr<const ItemSubsetSpace> subsets);

  /// Identity of this state: subset space shape, pick-relevant config, and
  /// item mask. Persisted and verified on Open.
  uint64_t fingerprint() const { return fingerprint_; }
  const Options& options() const { return options_; }
  int64_t num_significant_subsets() const {
    return static_cast<int64_t>(significant_.size());
  }
  int64_t num_regions() const { return static_cast<int64_t>(slots_.size()); }
  int64_t delta_batches() const { return delta_batches_; }
  /// Cube cells currently awaiting re-derivation.
  int64_t dirty_cells() const { return dirty_.count(); }

  /// Runtime knobs not covered by the fingerprint, settable after Open.
  void set_checkpoint_path(std::string path) {
    options_.config.checkpoint_path = std::move(path);
  }
  void set_exec(const exec::BellwetherExecOptions& exec) {
    options_.config.exec = exec;
  }

 private:
  /// Everything retained for one region: dense per-significant-subset
  /// packed suff-stats (default-constructed, arity 0, until first touched),
  /// their training errors, the concatenated delta rows (for CV and search
  /// scoring), and the cached search score.
  struct RegionSlot {
    std::vector<regression::RegressionSuffStats> stats;
    std::vector<double> errors;
    storage::RegionTrainingSet rows;
    RegionScore score;
    bool score_valid = false;
  };

  BellwetherState() = default;

  RegionSlot& SlotFor(olap::RegionId region, int32_t num_features);
  /// Adds each row of `set`, in row order, to the statistics of every
  /// significant subset containing its item: "build a model h_r on r for S"
  /// for every S at once. `stats` is indexed by significant index. The one
  /// fold IngestScan and ApplyDelta share.
  void FoldRows(const storage::RegionTrainingSet& set,
                std::vector<regression::RegressionSuffStats>* stats) const;
  Status ValidateDeltaBatch(
      const std::vector<storage::RegionTrainingSet>& batch) const;
  internal::RegionRowsVisitor SlotRowsVisitor() const;
  Result<BellwetherCube> FinalizeOneShot();

  // ---- Immutable after Init ----
  std::shared_ptr<const ItemSubsetSpace> subsets_;
  Options options_;
  bool has_mask_ = false;
  std::vector<uint8_t> item_mask_;
  std::vector<int32_t> sizes_;            // per SubsetId
  std::vector<SubsetId> significant_;     // ascending
  std::vector<int64_t> sig_index_;        // SubsetId -> index into significant_
  std::vector<std::vector<int32_t>> containing_;  // item -> sig indices, asc
  uint64_t fingerprint_ = 0;
  Stopwatch build_watch_;

  // ---- Mutable algebraic state ----
  std::map<olap::RegionId, RegionSlot> slots_;  // ascending region order
  int32_t num_features_ = 0;  // 0 until the first non-empty set arrives
  olap::DirtySet dirty_;      // over SubsetId space
  std::vector<CubeCell> cell_cache_;  // per significant index
  bool finalized_once_ = false;
  int64_t delta_batches_ = 0;
  double delta_seconds_ = 0.0;
  uint64_t search_options_key_ = 0;

  // ---- One-shot scan state ----
  std::vector<internal::Pick> picks_;
  storage::TrainingDataSource* scan_source_ = nullptr;
  bool scanned_ = false;
  CubeBuildTelemetry telemetry_;
};

}  // namespace bellwether::core

#endif  // BELLWETHER_CORE_BELLWETHER_STATE_H_
