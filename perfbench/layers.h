#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

// Layer attribution for the traced run: timing decorators around the
// training-data source and sink, and the arithmetic that turns a span tree
// into per-layer self time.

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "storage/training_data.h"
#include "storage/training_data_sink.h"

namespace perfbench {

/// Category of every span the benchmark opens. A benchmark span's name is
/// the layer it measures ("core.tree", "storage.scan", ...).
inline constexpr const char* kBenchCategory = "perfbench";
inline constexpr const char* kScanSpan = "storage.scan";
inline constexpr const char* kConsumerSpan = "storage.scan.consumer";
inline constexpr const char* kReadSpan = "storage.read";
inline constexpr const char* kSinkSpan = "storage.sink";

/// Forwards every call to `inner` (not owned), as
/// storage::RetryingTrainingDataSource does, and wraps each Scan and Read in
/// a storage span. Each Scan callback runs inside a consumer span, so the
/// storage layer's self time excludes the consumer's work. Spans cost
/// nothing while the default trace is off.
class TimedSource final : public bellwether::storage::TrainingDataSource {
 public:
  explicit TimedSource(bellwether::storage::TrainingDataSource* inner)
      : inner_(inner) {}

  size_t num_region_sets() const override { return inner_->num_region_sets(); }
  bellwether::Status Scan(
      const std::function<bellwether::Status(
          const bellwether::storage::RegionTrainingSet&)>& fn) override;
  bellwether::Result<bellwether::storage::RegionTrainingSet> Read(
      size_t index) override;
  std::vector<bellwether::olap::RegionId> RegionIds() override {
    return inner_->RegionIds();
  }

 private:
  bellwether::storage::TrainingDataSource* inner_;
};

/// Forwards Append and Finish to `inner` (not owned) inside storage spans.
class TimedSink final : public bellwether::storage::TrainingDataSink {
 public:
  explicit TimedSink(bellwether::storage::TrainingDataSink* inner)
      : inner_(inner) {}

  bellwether::Status Append(
      bellwether::storage::RegionTrainingSet&& set) override;
  bellwether::Result<std::unique_ptr<bellwether::storage::TrainingDataSource>>
  Finish() override;

 private:
  bellwether::storage::TrainingDataSink* inner_;
};

/// Self time of every span, in microseconds: its duration minus the
/// durations of its direct children.
std::vector<int64_t> ExclusiveMicros(
    const std::vector<bellwether::obs::TraceEvent>& events);

/// Layer of every span. A benchmark span names its own layer, except the
/// consumer span of a decorated Scan, which belongs to the layer that
/// called Scan. The program's "CubeRollup" span is the olap layer; any
/// other program span belongs to its parent's layer, and a span with no
/// parent to "other".
std::vector<std::string> LayerOf(
    const std::vector<bellwether::obs::TraceEvent>& events);

/// Self time summed per layer, in microseconds.
std::map<std::string, double> LayerSelfMicros(
    const std::vector<bellwether::obs::TraceEvent>& events);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
