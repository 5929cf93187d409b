#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/basic_search.h"
#include "core/bellwether_cube.h"
#include "core/bellwether_tree.h"
#include "storage/training_data_sink.h"
#include "table/table.h"

namespace perfbench {

/// Builder settings and stage sizes of one workload. Every thread count is
/// explicit: 1 everywhere except the pooled build stage.
struct WorkloadConfig {
  /// Cross-validated search of the answer and refresh stages; the build
  /// stages use it with training-set error instead.
  bellwether::core::BasicSearchOptions search;
  bellwether::core::TreeBuildConfig tree;
  /// Cube with CV stats (answer stage and state); the build stages turn the
  /// CV stats off.
  bellwether::core::CubeBuildConfig cube;
  /// Prepare calls per repetition; prepare_s is the time per call.
  int32_t prepare_runs = 1;
  /// Passes over every item in the predict stage.
  int32_t predict_passes = 20;
  /// The state's history holds the rows of items [0, state_items) that are
  /// not in a delta batch; all items when negative.
  int32_t state_items = -1;
};

/// One workload: its raw input, how the prepare stage turns that input into
/// training data, and the builder settings for its shape. Data generator
/// seeds are fixed, so every run seed does the same work; the run seed
/// drives only CV fold assignment and prediction order.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the raw input; files go under `dir`. Part of set-up.
  virtual bellwether::Status GenerateInput(const std::string& dir) = 0;
  /// The prepare stage: raw input to training data, appended to `sink`
  /// (a MemorySink, which the caller finishes).
  virtual bellwether::Status Prepare(
      bellwether::storage::TrainingDataSink* sink) = 0;

  virtual const bellwether::table::Table& items() const = 0;
  virtual const std::vector<bellwether::core::ItemHierarchy>& hierarchies()
      const = 0;

  /// Workload-specific check of the cross-validated search.
  virtual bellwether::Status CheckAnswer(
      const bellwether::core::BasicSearchResult&) const {
    return bellwether::Status::OK();
  }
  /// Shape counts of the raw input (e.g. fact rows).
  virtual void AddInputShape(std::map<std::string, int64_t>*) const {}
  /// Shape counts every seed must reproduce.
  virtual std::map<std::string, int64_t> ExpectedShape() const = 0;

  WorkloadConfig config;
};

/// The workloads by name: "warehouse" or "scan_build"; nullptr for an
/// unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
