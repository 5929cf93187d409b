#ifndef BELLWETHER_CORE_BELLWETHER_STATE_H_
#define BELLWETHER_CORE_BELLWETHER_STATE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
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

/// A bellwether cube kept up to date as fact rows arrive: the
/// per-(region, subset) regression sufficient statistics of Theorem 1 and
/// the rows behind them, held as a persistent object. Its one lifecycle is
///
///   Init          capture the subset lattice, significant subsets, and item
///                 mask (immutable for the state's lifetime)
///   ApplyDelta*   fold batches of new fact rows in
///   Finalize      derive models / errors / min-error picks into a
///                 BellwetherCube (or a BasicSearchResult via
///                 FinalizeSearch); callable again after more batches
///
/// with Save / Open at any batch boundary.
///
/// Because the sufficient statistic is algebraic (g of Theorem 1), folding a
/// delta batch row-by-row onto the retained accumulators reproduces, bit for
/// bit, the accumulator a from-scratch scan of the concatenated stream would
/// produce — so a maintained cube is bit-identical to
/// BuildBellwetherCubeSingleScan over the same rows, at any thread count.
/// ApplyDelta tracks the cube cells its rows touched in a dirty set;
/// Finalize re-derives only dirty cells and reuses the cached remainder.
///
/// States persist via model_io (SaveBellwetherState / LoadBellwetherState,
/// format "bellwether-state-v4"): packed-triangle suff-stats and retained
/// rows as raw doubles under a CRC-32C trailer, per-cell errors recomputed
/// on load. A state saved between batches is the checkpoint of a long
/// build: after a kill, Open the last save and re-apply the batches that
/// followed it; a reopened state re-derives every cell on its first
/// Finalize, so the result is bit-identical to an uninterrupted build.
///
/// ApplyDelta is all-or-nothing: a batch that fails — invalid input, an
/// injected fault, a simulated kill — leaves the state exactly as it was,
/// so the same object can take the batch again.
///
/// Not thread-safe: one logical owner drives the lifecycle (ApplyDelta
/// parallelizes internally and merges in submission order).
class BellwetherState {
 public:
  struct Options {
    CubeBuildConfig config;
  };

  /// Phase 1: derives the immutable build skeleton (subset sizes,
  /// significant subsets, per-item containing lists, state fingerprint).
  /// `item_mask` is copied; nullptr means all items.
  static Result<std::unique_ptr<BellwetherState>> Init(
      std::shared_ptr<const ItemSubsetSpace> subsets, Options options,
      const std::vector<uint8_t>* item_mask = nullptr);

  BellwetherState(const BellwetherState&) = delete;
  BellwetherState& operator=(const BellwetherState&) = delete;

  /// Folds a batch of new fact rows into the retained per-(region, subset)
  /// accumulators and appends the rows to the per-region row store. Sets
  /// must be strictly ascending by distinct RegionId within the batch (the
  /// same region may recur across batches; its retained rows concatenate in
  /// ingest order, so they are not guaranteed ascending by item). Cells
  /// whose statistics changed are marked dirty. Per-region work runs on a
  /// pool and is merged in submission order, so the resulting state is
  /// bit-identical for any thread count. Nothing is committed until every
  /// region of the batch is done, so an error leaves the state unchanged.
  /// Does no I/O: a caller that wants the batch durable calls Save after it.
  Status ApplyDelta(std::vector<storage::RegionTrainingSet> batch);

  /// Derives the cube: re-derives the cells of dirty subsets (all of them
  /// on the first Finalize after Init or Open) and reuses cached cells for
  /// the rest — cell contents, cube artifact bytes, and the report's
  /// logical sections are bit-identical to a from-scratch rebuild of the
  /// same rows. The report is named "cube_state".
  Result<BellwetherCube> Finalize();

  /// Derives a basic bellwether search result over the retained per-region
  /// rows, equivalent to RunBasicBellwetherSearch over a source holding the
  /// same rows in ascending-region order.
  /// Per-region scores are cached and invalidated by new delta rows for the
  /// region or a change of scoring options.
  Result<BasicSearchResult> FinalizeSearch(const BasicSearchOptions& options);

  /// Persists the state (SaveBellwetherState, "bellwether-state-v4"); the
  /// previous file is replaced atomically.
  Status Save(const std::string& path) const;

  /// Reopens a saved state against the recreated subset space.
  /// The stored fingerprint must match the one recomputed from the space,
  /// config, and mask (kFailedPrecondition otherwise — stale or foreign
  /// states never silently corrupt a build).
  static Result<std::unique_ptr<BellwetherState>> Open(
      const std::string& path, std::shared_ptr<const ItemSubsetSpace> subsets);

  /// Binary body of the state file (inside the checksummed framing); used
  /// by model_io. DeserializeFrom keeps every structural check of the
  /// format and bounds each count by the bytes left before it allocates.
  void SerializeTo(ChecksummedWriter& out) const;
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

  /// Runtime knob not covered by the fingerprint, settable after Open.
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
  Status ValidateDeltaBatch(
      const std::vector<storage::RegionTrainingSet>& batch) const;

  // ---- Immutable after Init ----
  std::shared_ptr<const ItemSubsetSpace> subsets_;
  Options options_;
  bool has_mask_ = false;
  std::vector<uint8_t> item_mask_;
  std::vector<int32_t> sizes_;            // per SubsetId
  std::vector<SubsetId> significant_;     // ascending
  std::vector<std::vector<int32_t>> containing_;  // item -> sig indices, asc
  uint64_t fingerprint_ = 0;

  // ---- Mutable algebraic state ----
  std::map<olap::RegionId, RegionSlot> slots_;  // ascending region order
  int32_t num_features_ = 0;  // 0 until the first non-empty set arrives
  olap::DirtySet dirty_;      // over SubsetId space
  std::vector<CubeCell> cell_cache_;  // per significant index
  bool finalized_once_ = false;
  int64_t delta_batches_ = 0;
  double delta_seconds_ = 0.0;
  uint64_t search_options_key_ = 0;
};

}  // namespace bellwether::core

#endif  // BELLWETHER_CORE_BELLWETHER_STATE_H_
