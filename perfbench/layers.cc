#include "layers.h"

#include <unordered_map>

namespace perfbench {

using bellwether::Result;
using bellwether::Status;
using bellwether::obs::TraceEvent;
using bellwether::obs::TraceSpan;
using bellwether::storage::RegionTrainingSet;
using bellwether::storage::TrainingDataSource;

Status TimedSource::Scan(
    const std::function<Status(const RegionTrainingSet&)>& fn) {
  ++io_stats_.sequential_scans;
  TraceSpan span(kScanSpan, kBenchCategory);
  return inner_->Scan([&](const RegionTrainingSet& set) {
    ++io_stats_.region_reads;
    io_stats_.bytes_read += static_cast<int64_t>(set.ByteSize());
    TraceSpan consumer(kConsumerSpan, kBenchCategory);
    return fn(set);
  });
}

Result<RegionTrainingSet> TimedSource::Read(size_t index) {
  ++io_stats_.region_reads;
  TraceSpan span(kReadSpan, kBenchCategory);
  return inner_->Read(index);
}

Status TimedSink::Append(RegionTrainingSet&& set) {
  TraceSpan span(kSinkSpan, kBenchCategory);
  return inner_->Append(std::move(set));
}

Result<std::unique_ptr<TrainingDataSource>> TimedSink::Finish() {
  TraceSpan span(kSinkSpan, kBenchCategory);
  return inner_->Finish();
}

namespace {

std::unordered_map<uint64_t, size_t> IndexBySpanId(
    const std::vector<TraceEvent>& events) {
  std::unordered_map<uint64_t, size_t> index;
  for (size_t i = 0; i < events.size(); ++i) index[events[i].span_id] = i;
  return index;
}

}  // namespace

std::vector<int64_t> ExclusiveMicros(const std::vector<TraceEvent>& events) {
  const auto index = IndexBySpanId(events);
  std::vector<int64_t> self(events.size());
  for (size_t i = 0; i < events.size(); ++i) self[i] = events[i].duration_us;
  for (const TraceEvent& e : events) {
    auto parent = index.find(e.parent_span_id);
    if (e.parent_span_id != 0 && parent != index.end()) {
      self[parent->second] -= e.duration_us;
    }
  }
  return self;
}

std::vector<std::string> LayerOf(const std::vector<TraceEvent>& events) {
  const auto index = IndexBySpanId(events);
  std::vector<std::string> layer(events.size());
  std::vector<bool> done(events.size(), false);
  auto parent_of = [&](size_t i) -> long {
    auto it = index.find(events[i].parent_span_id);
    if (events[i].parent_span_id == 0 || it == index.end()) return -1;
    return static_cast<long>(it->second);
  };
  // Parents are resolved before children; spans nest only a few deep, so
  // the recursion stays shallow.
  std::function<const std::string&(size_t)> resolve =
      [&](size_t i) -> const std::string& {
    if (done[i]) return layer[i];
    const TraceEvent& e = events[i];
    std::string result = "other";
    if (e.category == kBenchCategory && e.name == kConsumerSpan) {
      long p = parent_of(i);
      while (p >= 0 && events[p].name != kScanSpan) p = parent_of(p);
      const long caller = p >= 0 ? parent_of(p) : -1;
      if (caller >= 0) result = resolve(caller);
    } else if (e.category == kBenchCategory) {
      result = e.name;
    } else if (e.name == "CubeRollup") {
      result = "olap.rollup";
    } else if (const long p = parent_of(i); p >= 0) {
      result = resolve(p);
    }
    layer[i] = std::move(result);
    done[i] = true;
    return layer[i];
  };
  for (size_t i = 0; i < events.size(); ++i) resolve(i);
  return layer;
}

std::map<std::string, double> LayerSelfMicros(
    const std::vector<TraceEvent>& events) {
  const std::vector<int64_t> self = ExclusiveMicros(events);
  const std::vector<std::string> layer = LayerOf(events);
  std::map<std::string, double> out;
  for (size_t i = 0; i < events.size(); ++i) {
    out[layer[i]] += static_cast<double>(self[i]);
  }
  return out;
}

}  // namespace perfbench
