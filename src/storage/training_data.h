#ifndef BELLWETHER_STORAGE_TRAINING_DATA_H_
#define BELLWETHER_STORAGE_TRAINING_DATA_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "olap/region.h"

namespace bellwether {
class ChecksummedReader;
class ChecksummedWriter;
}  // namespace bellwether

namespace bellwether::storage {

/// The training set of one feasible region (paper §4.2): one row per item
/// with data in the region; feature rows include the intercept column and
/// the item-table features followed by the regional features.
struct RegionTrainingSet {
  olap::RegionId region = olap::kInvalidRegion;
  int32_t num_features = 0;
  std::vector<int32_t> items;    // dense item indices, ascending
  std::vector<double> features;  // row-major, items.size() * num_features
  std::vector<double> targets;   // items.size()
  /// Optional per-example weights for weighted least squares (paper §6.4);
  /// empty means all weights are 1 (ordinary least squares).
  std::vector<double> weights;

  size_t num_examples() const { return items.size(); }
  const double* row(size_t i) const {
    return features.data() + i * static_cast<size_t>(num_features);
  }
  bool weighted() const { return !weights.empty(); }
  /// Weight of example i (1.0 when unweighted).
  double weight(size_t i) const { return weights.empty() ? 1.0 : weights[i]; }
  /// Exact serialized spill-record size (header + items + features +
  /// targets + weights), used for I/O accounting and the BudgetedSink
  /// memory budget.
  size_t ByteSize() const;
};

/// Writes `set` as one spill-file record (exactly ByteSize() bytes) to a
/// checksummed binary stream; the state file keeps each region's retained
/// rows in this layout.
void WriteRegionRecord(ChecksummedWriter& out, const RegionTrainingSet& set);

/// Reads a record written by WriteRegionRecord into `set`, replacing its
/// contents. kIoError on a corrupt header (negative arity or count, a
/// weights flag other than 0/1) or a record longer than the bytes left,
/// checked before any array is sized.
Status ReadRegionRecord(ChecksummedReader& in, RegionTrainingSet* set);

/// I/O accounting for a training-data source. The scan-based algorithms
/// (RF tree, single-scan cube) are compared against the naive ones by the
/// number of sequential scans vs. random per-region reads (Fig. 11(a)).
struct IoStats {
  int64_t sequential_scans = 0;
  int64_t region_reads = 0;  // individual training sets materialized
  int64_t bytes_read = 0;
};

/// Abstract source of the "entire training data": the training sets of all
/// feasible regions, iterated in ascending RegionId order.
class TrainingDataSource {
 public:
  virtual ~TrainingDataSource() = default;

  virtual size_t num_region_sets() const = 0;

  /// One sequential pass over all region training sets, in order. The
  /// visited reference is only valid during the callback.
  virtual Status Scan(
      const std::function<Status(const RegionTrainingSet&)>& fn) = 0;

  /// Random access to the i-th region training set (0 <= i <
  /// num_region_sets()). For the disk-backed source every call re-reads from
  /// the file — deliberately, to model the paper's "each time they need the
  /// training data from a region, they always read the data from disk".
  virtual Result<RegionTrainingSet> Read(size_t index) = 0;

  /// RegionIds in scan order.
  virtual std::vector<olap::RegionId> RegionIds() = 0;

  const IoStats& io_stats() const { return io_stats_; }

 protected:
  IoStats io_stats_;
};

/// In-memory source; Read() copies (intentionally — callers own the
/// returned set), Scan() visits in place.
class MemoryTrainingData final : public TrainingDataSource {
 public:
  explicit MemoryTrainingData(std::vector<RegionTrainingSet> sets);

  size_t num_region_sets() const override { return sets_.size(); }
  Status Scan(
      const std::function<Status(const RegionTrainingSet&)>& fn) override;
  Result<RegionTrainingSet> Read(size_t index) override;
  std::vector<olap::RegionId> RegionIds() override;

  const std::vector<RegionTrainingSet>& sets() const { return sets_; }

 private:
  std::vector<RegionTrainingSet> sets_;
};

/// Writes region training sets to a binary spill file, in scan order.
class SpillFileWriter {
 public:
  /// Creates/truncates `path`.
  static Result<std::unique_ptr<SpillFileWriter>> Create(
      const std::string& path);
  ~SpillFileWriter();

  Status Append(const RegionTrainingSet& set);
  /// Flushes and writes the footer index. Must be called exactly once.
  Status Finish();

  const std::string& path() const { return path_; }

 private:
  explicit SpillFileWriter(std::string path, std::FILE* f)
      : path_(std::move(path)), file_(f) {}

  std::string path_;
  std::FILE* file_;
  std::vector<int64_t> offsets_;
  std::vector<int64_t> region_ids_;
  bool finished_ = false;
};

/// Disk-backed source over a spill file written by SpillFileWriter. Each
/// Read()/Scan step fetches the whole record with a single seek + read into
/// a reusable buffer (sized once to the largest record seen) and parses it
/// from memory, instead of issuing one small read per field/array. An
/// optional artificial per-read latency models a slow device for the
/// Fig. 11(a) comparison.
class SpilledTrainingData final : public TrainingDataSource {
 public:
  static Result<std::unique_ptr<SpilledTrainingData>> Open(
      const std::string& path);
  ~SpilledTrainingData() override;

  size_t num_region_sets() const override { return offsets_.size(); }
  Status Scan(
      const std::function<Status(const RegionTrainingSet&)>& fn) override;
  Result<RegionTrainingSet> Read(size_t index) override;
  std::vector<olap::RegionId> RegionIds() override;

  /// Adds `micros` of busy-wait per record read, simulating device latency.
  void set_simulated_read_latency_micros(int64_t micros) {
    simulated_latency_micros_ = micros;
  }

 private:
  SpilledTrainingData(std::string path, std::FILE* f,
                      std::vector<int64_t> offsets,
                      std::vector<int64_t> region_ids, int64_t index_offset)
      : path_(std::move(path)),
        file_(f),
        offsets_(std::move(offsets)),
        region_ids_(std::move(region_ids)),
        index_offset_(index_offset) {}

  /// One past the last byte of record i: the next record's offset, or the
  /// footer index for the final record.
  int64_t RecordEnd(size_t i) const {
    return i + 1 < offsets_.size() ? offsets_[i + 1] : index_offset_;
  }

  Status ReadRecord(size_t index, RegionTrainingSet* out);

  std::string path_;
  std::FILE* file_;
  std::vector<int64_t> offsets_;
  std::vector<int64_t> region_ids_;
  int64_t index_offset_ = 0;
  std::vector<unsigned char> read_buffer_;  // reused across record reads
  int64_t simulated_latency_micros_ = 0;
};

}  // namespace bellwether::storage

#endif  // BELLWETHER_STORAGE_TRAINING_DATA_H_
