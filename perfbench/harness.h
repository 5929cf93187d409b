#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// One benchmark run: set-up, the measured repetitions of a workload's life
// cycle, and the output checks.
//
// Each repetition runs every stage once, in this order, on one thread:
//   prepare    raw input -> training data (a MemorySink), prepare_runs times
//   answer     CV search, RF tree, single-scan cube with CV stats; save and
//              reload the tree and the cube
//   predict    one PredictItem per item with the reloaded cube and tree
//   build      search, RF tree, single-scan and optimized cube without CV
//              over the training data spilled in set-up
//   reopen     BellwetherState::Open of the base state + first Finalize
//   refresh    per delta batch: ApplyDelta + Finalize + FinalizeSearch
//   save       SaveBellwetherState of the refreshed state
// Running every stage in every repetition means host drift hits all of a
// workload's metrics alike, and every repetition does the same work. The
// pooled build (3 workers) runs once per run for its output check, and in
// traced repetitions for its layers.

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: spans, decorators and probes; reports per-layer metrics.
  bool trace = false;
  /// Directory for every file the run writes; must exist and be empty.
  std::string workdir;
  /// Traced run only: Chrome trace output path ("" = none).
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Runs one workload. Any error status from the program and any failed
/// output check fail the run.
bellwether::Result<RunResult> Run(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
