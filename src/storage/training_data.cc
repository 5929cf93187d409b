#include "storage/training_data.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>

#include "common/check.h"
#include "common/checksummed_io.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "robust/fault_injection.h"

namespace bellwether::storage {

namespace {

constexpr uint64_t kMagic = 0x42574C5350494C31ULL;  // "BWLSPIL1"

// Registry counters mirrored alongside the per-source IoStats; resolved
// once and cached (registry pointers are stable).
struct StorageMetrics {
  obs::Counter* scans;
  obs::Counter* reads;
  obs::Counter* rows;
  obs::Counter* bytes;
};

const StorageMetrics& Metrics() {
  static const StorageMetrics m{
      obs::DefaultMetrics().GetCounter(obs::kMStorageScans),
      obs::DefaultMetrics().GetCounter(obs::kMStorageRegionReads),
      obs::DefaultMetrics().GetCounter(obs::kMStorageRowsScanned),
      obs::DefaultMetrics().GetCounter(obs::kMStorageBytesRead)};
  return m;
}

Status WriteRaw(std::FILE* f, const void* data, size_t bytes) {
  // An empty vector's data() may be null, which fwrite must not receive.
  if (bytes == 0) return Status::OK();
  if (std::fwrite(data, 1, bytes, f) != bytes) {
    return Status::IoError(std::string("spill write failed: ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status ReadRaw(std::FILE* f, void* data, size_t bytes) {
  if (std::fread(data, 1, bytes, f) != bytes) {
    return Status::IoError("spill read failed (truncated file?)");
  }
  return Status::OK();
}

template <typename T>
Status WritePod(std::FILE* f, const T& v) {
  return WriteRaw(f, &v, sizeof(T));
}

template <typename T>
Status ReadPod(std::FILE* f, T* v) {
  return ReadRaw(f, v, sizeof(T));
}

// Models the device wait as blocked time, not CPU time: a real disk read
// parks the thread off-CPU, so a spin loop here would both distort CPU
// profiles (ITIMER_PROF samples the spin, not the kernels) and steal cores
// from compute threads in the parallel-scaling benchmarks. Absolute
// deadline so EINTR retries do not accumulate drift.
void SimulatedDeviceWaitMicros(int64_t micros) {
  if (micros <= 0) return;
  timespec deadline;
  clock_gettime(CLOCK_MONOTONIC, &deadline);
  deadline.tv_sec += micros / 1000000;
  deadline.tv_nsec += (micros % 1000000) * 1000;
  if (deadline.tv_nsec >= 1000000000L) {
    deadline.tv_nsec -= 1000000000L;
    ++deadline.tv_sec;
  }
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &deadline,
                         nullptr) == EINTR) {
  }
}

}  // namespace

size_t RegionTrainingSet::ByteSize() const {
  // Exactly the serialized spill-record size (header: region int64,
  // num_features int32, count int64, has_weights uint8 — then the items,
  // features, targets, and optional weights arrays). BudgetedSink's memory
  // budget and the IoStats byte counters both rely on this matching what
  // SpillFileWriter::Append (and WriteRegionRecord) actually writes.
  constexpr size_t kHeaderBytes =
      sizeof(int64_t) + sizeof(int32_t) + sizeof(int64_t) + sizeof(uint8_t);
  return kHeaderBytes + items.size() * sizeof(int32_t) +
         features.size() * sizeof(double) + targets.size() * sizeof(double) +
         weights.size() * sizeof(double);
}

void WriteRegionRecord(ChecksummedWriter& out, const RegionTrainingSet& set) {
  out.Put(static_cast<int64_t>(set.region));
  out.Put(set.num_features);
  out.Put(static_cast<int64_t>(set.num_examples()));
  out.Put(static_cast<uint8_t>(set.weighted() ? 1 : 0));
  out.PutArray(set.items.data(), set.items.size());
  out.PutArray(set.features.data(), set.features.size());
  out.PutArray(set.targets.data(), set.targets.size());
  out.PutArray(set.weights.data(), set.weights.size());
}

Status ReadRegionRecord(ChecksummedReader& in, RegionTrainingSet* set) {
  int64_t region = 0;
  int32_t num_features = 0;
  int64_t n = 0;
  uint8_t weighted = 0;
  BW_RETURN_IF_ERROR(in.Get(&region));
  BW_RETURN_IF_ERROR(in.Get(&num_features));
  BW_RETURN_IF_ERROR(in.Get(&n));
  BW_RETURN_IF_ERROR(in.Get(&weighted));
  if (num_features < 0 || n < 0 || weighted > 1) {
    return Status::IoError("corrupt region record header");
  }
  const uint64_t row_bytes =
      sizeof(int32_t) +
      (static_cast<uint64_t>(num_features) + 1 + weighted) * sizeof(double);
  BW_RETURN_IF_ERROR(in.CheckFits(static_cast<uint64_t>(n), row_bytes));
  const uint64_t count = static_cast<uint64_t>(n);
  set->region = region;
  set->num_features = num_features;
  BW_RETURN_IF_ERROR(in.GetVector(&set->items, count));
  BW_RETURN_IF_ERROR(in.GetVector(
      &set->features, count * static_cast<uint64_t>(num_features)));
  BW_RETURN_IF_ERROR(in.GetVector(&set->targets, count));
  if (weighted == 0) {
    set->weights.clear();
    return Status::OK();
  }
  return in.GetVector(&set->weights, count);
}

MemoryTrainingData::MemoryTrainingData(std::vector<RegionTrainingSet> sets)
    : sets_(std::move(sets)) {}

Status MemoryTrainingData::Scan(
    const std::function<Status(const RegionTrainingSet&)>& fn) {
  obs::TraceSpan span("MemoryTrainingData::Scan", "storage");
  ++io_stats_.sequential_scans;
  Metrics().scans->Increment();
  for (const auto& s : sets_) {
    BW_RETURN_IF_ERROR(robust::MaybeInjectIo(robust::kFaultStorageScan));
    ++io_stats_.region_reads;
    io_stats_.bytes_read += static_cast<int64_t>(s.ByteSize());
    Metrics().reads->Increment();
    Metrics().rows->Increment(static_cast<int64_t>(s.num_examples()));
    Metrics().bytes->Increment(static_cast<int64_t>(s.ByteSize()));
    BW_RETURN_IF_ERROR(fn(s));
  }
  return Status::OK();
}

Result<RegionTrainingSet> MemoryTrainingData::Read(size_t index) {
  if (index >= sets_.size()) {
    return Status::OutOfRange("region set index out of range");
  }
  // The copy below is intentional: Read() models the paper's "read the
  // training data of one region from storage" random access, so callers own
  // (and may mutate) the returned set while sets_ stays canonical. In-place
  // iteration goes through Scan().
  BW_RETURN_IF_ERROR(robust::MaybeInjectIo(robust::kFaultStorageRead));
  ++io_stats_.region_reads;
  io_stats_.bytes_read += static_cast<int64_t>(sets_[index].ByteSize());
  Metrics().reads->Increment();
  Metrics().rows->Increment(
      static_cast<int64_t>(sets_[index].num_examples()));
  Metrics().bytes->Increment(static_cast<int64_t>(sets_[index].ByteSize()));
  return sets_[index];
}

std::vector<olap::RegionId> MemoryTrainingData::RegionIds() {
  std::vector<olap::RegionId> out;
  out.reserve(sets_.size());
  for (const auto& s : sets_) out.push_back(s.region);
  return out;
}

Result<std::unique_ptr<SpillFileWriter>> SpillFileWriter::Create(
    const std::string& path) {
  // The one file not written through WriteFileAtomically: it streams region
  // by region rather than from one body callback, it is read back by offset,
  // and its reader is the hottest I/O path of a spilled build.
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot create spill file " + path + ": " +
                           std::strerror(errno));
  }
  auto writer = std::unique_ptr<SpillFileWriter>(
      new SpillFileWriter(path, f));
  BW_RETURN_IF_ERROR(WritePod(f, kMagic));
  return writer;
}

SpillFileWriter::~SpillFileWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

Status SpillFileWriter::Append(const RegionTrainingSet& set) {
  // Injected write failure, before any bytes land: sinks must release the
  // set's buffers to the arena on this path like on the success path.
  BW_RETURN_IF_ERROR(robust::MaybeInjectIo(robust::kFaultStorageSpill));
  BW_CHECK(!finished_);
  BW_CHECK(set.targets.size() == set.items.size());
  BW_CHECK(set.features.size() ==
           set.items.size() * static_cast<size_t>(set.num_features));
  BW_CHECK(set.weights.empty() || set.weights.size() == set.items.size());
  offsets_.push_back(std::ftell(file_));
  region_ids_.push_back(set.region);
  BW_RETURN_IF_ERROR(WritePod(file_, static_cast<int64_t>(set.region)));
  BW_RETURN_IF_ERROR(WritePod(file_, set.num_features));
  BW_RETURN_IF_ERROR(WritePod(file_, static_cast<int64_t>(set.items.size())));
  const uint8_t has_weights = set.weighted() ? 1 : 0;
  BW_RETURN_IF_ERROR(WritePod(file_, has_weights));
  BW_RETURN_IF_ERROR(WriteRaw(file_, set.items.data(),
                              set.items.size() * sizeof(int32_t)));
  BW_RETURN_IF_ERROR(WriteRaw(file_, set.features.data(),
                              set.features.size() * sizeof(double)));
  BW_RETURN_IF_ERROR(WriteRaw(file_, set.targets.data(),
                              set.targets.size() * sizeof(double)));
  if (has_weights) {
    BW_RETURN_IF_ERROR(WriteRaw(file_, set.weights.data(),
                                set.weights.size() * sizeof(double)));
  }
  return Status::OK();
}

Status SpillFileWriter::Finish() {
  BW_CHECK(!finished_);
  finished_ = true;
  const int64_t index_offset = std::ftell(file_);
  const int64_t count = static_cast<int64_t>(offsets_.size());
  BW_RETURN_IF_ERROR(WriteRaw(file_, offsets_.data(),
                              offsets_.size() * sizeof(int64_t)));
  BW_RETURN_IF_ERROR(WriteRaw(file_, region_ids_.data(),
                              region_ids_.size() * sizeof(int64_t)));
  BW_RETURN_IF_ERROR(WritePod(file_, index_offset));
  BW_RETURN_IF_ERROR(WritePod(file_, count));
  if (std::fflush(file_) != 0) return Status::IoError("spill flush failed");
  std::fclose(file_);
  file_ = nullptr;
  return Status::OK();
}

Result<std::unique_ptr<SpilledTrainingData>> SpilledTrainingData::Open(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError("cannot open spill file " + path + ": " +
                           std::strerror(errno));
  }
  uint64_t magic = 0;
  if (!ReadPod(f, &magic).ok() || magic != kMagic) {
    std::fclose(f);
    return Status::IoError("bad spill file magic: " + path);
  }
  // Footer: [offsets][region_ids][index_offset][count].
  if (std::fseek(f, -2 * static_cast<long>(sizeof(int64_t)), SEEK_END) != 0) {
    std::fclose(f);
    return Status::IoError("cannot seek spill footer: " + path);
  }
  int64_t index_offset = 0;
  int64_t count = 0;
  Status st = ReadPod(f, &index_offset);
  if (st.ok()) st = ReadPod(f, &count);
  if (!st.ok() || count < 0) {
    std::fclose(f);
    return Status::IoError("corrupt spill footer: " + path);
  }
  std::vector<int64_t> offsets(count);
  std::vector<int64_t> region_ids(count);
  if (std::fseek(f, static_cast<long>(index_offset), SEEK_SET) != 0) {
    std::fclose(f);
    return Status::IoError("cannot seek spill index: " + path);
  }
  st = ReadRaw(f, offsets.data(), offsets.size() * sizeof(int64_t));
  if (st.ok()) {
    st = ReadRaw(f, region_ids.data(), region_ids.size() * sizeof(int64_t));
  }
  if (!st.ok()) {
    std::fclose(f);
    return st;
  }
  return std::unique_ptr<SpilledTrainingData>(new SpilledTrainingData(
      path, f, std::move(offsets), std::move(region_ids), index_offset));
}

SpilledTrainingData::~SpilledTrainingData() {
  if (file_ != nullptr) std::fclose(file_);
}

Status SpilledTrainingData::ReadRecord(size_t index, RegionTrainingSet* out) {
  // One seek + one read for the whole record (the footer index gives its
  // extent), parsed from the reusable buffer — instead of seven small freads
  // per record, which dominated the spill-scan profile.
  constexpr int64_t kHeaderBytes =
      sizeof(int64_t) + sizeof(int32_t) + sizeof(int64_t) + sizeof(uint8_t);
  const int64_t offset = offsets_[index];
  const int64_t length = RecordEnd(index) - offset;
  if (length < kHeaderBytes) {
    return Status::IoError("corrupt spill record");
  }
  if (read_buffer_.size() < static_cast<size_t>(length)) {
    read_buffer_.resize(static_cast<size_t>(length));
  }
  if (std::fseek(file_, static_cast<long>(offset), SEEK_SET) != 0) {
    return Status::IoError("seek failed in spill file");
  }
  BW_RETURN_IF_ERROR(
      ReadRaw(file_, read_buffer_.data(), static_cast<size_t>(length)));
  const unsigned char* p = read_buffer_.data();
  const auto consume = [&p](void* dst, size_t bytes) {
    if (bytes == 0) return;  // an empty vector's data() may be null
    std::memcpy(dst, p, bytes);
    p += bytes;
  };
  int64_t region = 0;
  int64_t n = 0;
  uint8_t has_weights = 0;
  consume(&region, sizeof(region));
  consume(&out->num_features, sizeof(out->num_features));
  consume(&n, sizeof(n));
  consume(&has_weights, sizeof(has_weights));
  if (n < 0 || out->num_features < 0 || has_weights > 1) {
    return Status::IoError("corrupt spill record");
  }
  const int64_t expected =
      kHeaderBytes + n * static_cast<int64_t>(sizeof(int32_t)) +
      n * out->num_features * static_cast<int64_t>(sizeof(double)) +
      n * static_cast<int64_t>(sizeof(double)) +
      (has_weights ? n * static_cast<int64_t>(sizeof(double)) : 0);
  if (expected != length) {
    return Status::IoError("corrupt spill record");
  }
  out->region = region;
  out->items.resize(n);
  out->features.resize(static_cast<size_t>(n) * out->num_features);
  out->targets.resize(n);
  out->weights.resize(has_weights ? n : 0);
  consume(out->items.data(), out->items.size() * sizeof(int32_t));
  consume(out->features.data(), out->features.size() * sizeof(double));
  consume(out->targets.data(), out->targets.size() * sizeof(double));
  if (has_weights) {
    consume(out->weights.data(), out->weights.size() * sizeof(double));
  }
  SimulatedDeviceWaitMicros(simulated_latency_micros_);
  ++io_stats_.region_reads;
  io_stats_.bytes_read += static_cast<int64_t>(out->ByteSize());
  Metrics().reads->Increment();
  Metrics().rows->Increment(static_cast<int64_t>(out->num_examples()));
  Metrics().bytes->Increment(static_cast<int64_t>(out->ByteSize()));
  return Status::OK();
}

Status SpilledTrainingData::Scan(
    const std::function<Status(const RegionTrainingSet&)>& fn) {
  obs::TraceSpan span("SpilledTrainingData::Scan", "storage");
  ++io_stats_.sequential_scans;
  Metrics().scans->Increment();
  RegionTrainingSet set;
  for (size_t i = 0; i < offsets_.size(); ++i) {
    BW_RETURN_IF_ERROR(robust::MaybeInjectIo(robust::kFaultStorageScan));
    BW_RETURN_IF_ERROR(ReadRecord(i, &set));
    BW_RETURN_IF_ERROR(fn(set));
  }
  return Status::OK();
}

Result<RegionTrainingSet> SpilledTrainingData::Read(size_t index) {
  if (index >= offsets_.size()) {
    return Status::OutOfRange("region set index out of range");
  }
  BW_RETURN_IF_ERROR(robust::MaybeInjectIo(robust::kFaultStorageRead));
  RegionTrainingSet set;
  BW_RETURN_IF_ERROR(ReadRecord(index, &set));
  return set;
}

std::vector<olap::RegionId> SpilledTrainingData::RegionIds() {
  return std::vector<olap::RegionId>(region_ids_.begin(), region_ids_.end());
}

}  // namespace bellwether::storage
