#ifndef BELLWETHER_STORAGE_TRAINING_DATA_SINK_H_
#define BELLWETHER_STORAGE_TRAINING_DATA_SINK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/training_data.h"

namespace bellwether::storage {

/// Consumer side of streaming training-data generation: the producer hands
/// over one RegionTrainingSet at a time (ascending RegionId, the storage
/// scan order) and finalizes into a TrainingDataSource over everything
/// appended. Implementations decide where the sets live — memory, disk, or
/// memory-up-to-a-budget-then-disk — so the producer never materializes the
/// entire training data unless the sink chooses to.
///
/// The ascending-RegionId ordering invariant is recorded during Append and
/// enforced at Finish(): a violated sink fails with kFailedPrecondition
/// instead of returning a source whose scan order would silently differ
/// from every consumer's assumption (binary-search FindSet, Fig. 11 scan
/// accounting).
class TrainingDataSink {
 public:
  virtual ~TrainingDataSink() = default;

  /// Takes ownership of the next region training set.
  virtual Status Append(RegionTrainingSet&& set) = 0;

  /// Finalizes and returns the source over everything appended. Must be
  /// called exactly once, after the last Append.
  virtual Result<std::unique_ptr<TrainingDataSource>> Finish() = 0;

  /// Sets appended so far.
  int64_t sets_appended() const { return sets_appended_; }

 protected:
  /// Bookkeeping shared by all sinks; call first in every Append. Updates
  /// the ordering record and the datagen.peak_resident_bytes gauge
  /// (`resident_bytes` = the sink's resident training-set footprint with
  /// `set` included).
  void NoteAppend(const RegionTrainingSet& set, size_t resident_bytes);

  /// OK, or kFailedPrecondition naming the first out-of-order append.
  Status CheckOrdering() const;

 private:
  int64_t sets_appended_ = 0;
  int64_t last_region_ = -1;
  bool ordering_violated_ = false;
  std::string ordering_error_;
};

/// Keeps every appended set in memory (moved in, never copied) and finishes
/// into a MemoryTrainingData that owns them — the streaming replacement for
/// the old build-a-vector-then-copy path.
class MemorySink final : public TrainingDataSink {
 public:
  MemorySink() = default;

  Status Append(RegionTrainingSet&& set) override;
  Result<std::unique_ptr<TrainingDataSource>> Finish() override;

  /// Resident training-set bytes currently held.
  size_t resident_bytes() const { return resident_bytes_; }

 private:
  std::vector<RegionTrainingSet> sets_;
  size_t resident_bytes_ = 0;
};

/// Streams every appended set straight to a spill file; only the set being
/// written is ever resident. Finishes into a SpilledTrainingData over the
/// file.
class SpillSink final : public TrainingDataSink {
 public:
  /// Creates/truncates the spill file at `path`.
  static Result<std::unique_ptr<SpillSink>> Create(const std::string& path);

  Status Append(RegionTrainingSet&& set) override;
  Result<std::unique_ptr<TrainingDataSource>> Finish() override;

  const std::string& path() const { return path_; }

 private:
  SpillSink(std::string path, std::unique_ptr<SpillFileWriter> writer)
      : path_(std::move(path)), writer_(std::move(writer)) {}

  std::string path_;
  std::unique_ptr<SpillFileWriter> writer_;
};

/// Accumulates in memory until the resident footprint would exceed
/// `memory_budget_bytes`, then transparently migrates everything appended so
/// far to a spill file and streams the remainder straight to disk. Peak
/// resident training-set bytes are therefore bounded by
/// memory_budget_bytes + the largest single region set (the one whose
/// arrival triggers the migration), and O(largest region) thereafter.
/// Finish() returns a MemoryTrainingData when the budget was never
/// exceeded, otherwise a SpilledTrainingData — consumers see the same
/// TrainingDataSource contract either way.
class BudgetedSink final : public TrainingDataSink {
 public:
  /// The spill file at `spill_path` is only created if the budget is
  /// actually exceeded.
  BudgetedSink(size_t memory_budget_bytes, std::string spill_path);

  Status Append(RegionTrainingSet&& set) override;
  Result<std::unique_ptr<TrainingDataSource>> Finish() override;

  /// True once the budget was exceeded and the sets migrated to disk.
  bool spilled() const { return spilled_; }
  /// Resident training-set bytes currently buffered (0 after migration).
  size_t resident_bytes() const { return resident_bytes_; }
  const std::string& spill_path() const { return spill_path_; }

 private:
  Status MigrateToSpill();
  /// Returns every buffered shell to the RegionSetArena (used on migration
  /// error paths, so arena traffic balances even when the sink fails).
  void ReleaseBuffered();

  size_t memory_budget_bytes_;
  std::string spill_path_;
  std::vector<RegionTrainingSet> buffered_;
  size_t resident_bytes_ = 0;
  bool spilled_ = false;
  std::unique_ptr<SpillFileWriter> writer_;  // non-null once spilled
};

}  // namespace bellwether::storage

#endif  // BELLWETHER_STORAGE_TRAINING_DATA_SINK_H_
