// Benchmark entry point: runs one workload and prints, as the last line of
// standard output, {"correct", "attempted", "failed", "metrics"}. A failed
// output check or program error exits non-zero without a result line.
//
//   perfbench --workload=warehouse --seed=1 --seconds=10 --trace=0
//             --workdir=DIR [--trace-out=PATH]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

namespace {

/// Value of `--name=value`; nullptr when absent.
const char* Flag(int argc, char** argv, const char* name) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  const char* workload = Flag(argc, argv, "workload");
  const char* workdir = Flag(argc, argv, "workdir");
  if (workload == nullptr || workdir == nullptr) {
    std::fprintf(stderr,
                 "usage: perfbench --workload=NAME --workdir=DIR [--seed=N] "
                 "[--seconds=S] [--trace=0|1] [--trace-out=PATH]\n");
    return 2;
  }
  options.workload = workload;
  options.workdir = workdir;
  if (const char* v = Flag(argc, argv, "seed")) {
    options.seed = std::strtoull(v, nullptr, 10);
  }
  if (const char* v = Flag(argc, argv, "seconds")) {
    options.seconds = std::atof(v);
  }
  if (const char* v = Flag(argc, argv, "trace")) options.trace = std::atoi(v);
  if (const char* v = Flag(argc, argv, "trace-out")) options.trace_out = v;

  const auto result = perfbench::Run(options);
  if (!result.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(result->attempted) +
                     ", \"failed\": " + std::to_string(result->failed) +
                     ", \"metrics\": {";
  char buf[256];
  for (size_t i = 0; i < result->metrics.size(); ++i) {
    const auto& m = result->metrics[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
