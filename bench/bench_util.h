#ifndef BELLWETHER_BENCH_BENCH_UTIL_H_
#define BELLWETHER_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/stopwatch.h"
#include "obs/export.h"
#include "obs/heap_track.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "robust/fault_injection.h"

namespace bellwether::bench {

/// Minimal flag reader: --name=value. Returns fallback when absent.
inline double FlagDouble(int argc, char** argv, const char* name,
                         double fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::atof(argv[i] + prefix.size());
    }
  }
  return fallback;
}

inline std::string FlagString(int argc, char** argv, const char* name,
                              const std::string& fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::string(argv[i] + prefix.size());
    }
  }
  return fallback;
}

inline bool FlagBool(int argc, char** argv, const char* name) {
  const std::string flag = std::string("--") + name;
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

/// Prints a header banner for one reproduced figure.
inline void Banner(const char* id, const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id, title);
  std::printf("================================================================\n");
}

/// Prints one table row: label followed by columns.
inline void Row(const std::vector<std::string>& cells, int width = 14) {
  for (const auto& c : cells) std::printf("%-*s", width, c.c_str());
  std::printf("\n");
}

/// Ends a bench section that failed: prints the section and the status on
/// stderr and returns the exit code 1.
inline int FailSection(const char* section, const Status& status) {
  std::fprintf(stderr, "%s: %s\n", section, status.ToString().c_str());
  return 1;
}

/// Ends a bench section whose search found no bellwether region (at a small
/// --scale no region has enough examples): says so on stderr and returns
/// the exit code 1.
inline int FailNoBellwether(const char* section, double scale) {
  std::fprintf(stderr,
               "%s: no bellwether region found at --scale=%g; raise --scale\n",
               section, scale);
  return 1;
}

inline std::string Fmt(double v, const char* fmt = "%.4g") {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

/// Wall-clock time of one call, in seconds.
inline double TimeIt(const std::function<void()>& fn) {
  Stopwatch sw;
  fn();
  return sw.ElapsedSeconds();
}

/// Telemetry hook shared by the bench mains: when --metrics-out=<path> was
/// passed, writes the process metrics registry as JSON to <path> and the
/// trace buffer as Chrome trace JSON next to it (or to --trace-out=<path>).
/// Call once at the end of main.
inline void DumpTelemetryIfRequested(int argc, char** argv) {
  const std::string metrics_path = FlagString(argc, argv, "metrics-out", "");
  if (metrics_path.empty()) return;
  const std::string trace_path = FlagString(argc, argv, "trace-out", "");
  const Status st = obs::DumpDefaultTelemetry(metrics_path, trace_path);
  if (!st.ok()) {
    std::fprintf(stderr, "telemetry dump failed: %s\n",
                 st.ToString().c_str());
    return;
  }
  std::printf("\nmetrics written to %s\ntrace written to %s\n",
              metrics_path.c_str(),
              (trace_path.empty() ? obs::DeriveTracePath(metrics_path)
                                  : trace_path)
                  .c_str());
}

/// Fault-injection hook shared by the bench mains: when --faults=<spec> was
/// passed (same grammar as BELLWETHER_FAULTS, e.g.
/// "storage.scan:io@3;csv.row:corrupt@0.02"), arms the default fault
/// registry so a bench run doubles as a resilience drill. --fault-seed=<n>
/// fixes the probabilistic-trigger seed. Call once at the start of main.
inline void ArmFaultsIfRequested(int argc, char** argv) {
  const std::string spec = FlagString(argc, argv, "faults", "");
  if (spec.empty()) return;
  robust::FaultRegistry& faults = robust::FaultRegistry::Default();
  faults.set_seed(
      static_cast<uint64_t>(FlagDouble(argc, argv, "fault-seed", 0)));
  const Status st = faults.Arm(spec);
  if (!st.ok()) {
    std::fprintf(stderr, "bad --faults spec: %s\n", st.ToString().c_str());
    std::exit(2);
  }
  std::printf("fault injection armed: %s\n", spec.c_str());
}

/// Common flight-recorder harness for the bench drivers. Every driver
/// constructs one BenchRunner at the top of main (arms faults, prints the
/// banner), records measured work through TimePhase()/report(), and returns
/// Finish() — which captures trace spans, metrics, and environment metadata
/// into the report and writes `BENCH_<name>.json` (overridable with
/// --report-out=<path>; --no-report suppresses it). Setup work (data
/// generation) must be timed as its own phase, never folded into the
/// measured build phase.
///
/// Profiling: --profile-out=<path> arms the sampling CPU profiler and the
/// heap tracker for the whole run (--profile-period-us=<n> overrides the
/// 1 ms sampling period). Finish() writes the folded profile as
/// flamegraph.pl-compatible collapsed-stack text to <path> (tools/profdump
/// renders and diffs it) and attaches the top self-time frames plus
/// per-phase allocation counters to the run report's "profile" section.
/// Without the flag both facilities stay disarmed and the run and its
/// report are byte-for-byte what they were before profiling existed.
class BenchRunner {
 public:
  BenchRunner(int argc, char** argv, const char* name, const char* title)
      : argc_(argc), argv_(argv), report_(name) {
    obs::SetCurrentThreadName("main");
    obs::Profiler::RegisterCurrentThread();
    ArmFaultsIfRequested(argc, argv);
    const std::string faults = FlagString(argc, argv, "faults", "");
    if (!faults.empty()) report_.SetText("faults_armed", faults);
    profile_out_ = FlagString(argc, argv, "profile-out", "");
    if (!profile_out_.empty()) {
      obs::ProfilerOptions options;
      options.period_us = static_cast<int64_t>(
          FlagDouble(argc, argv, "profile-period-us", 1000));
      const Status st = obs::Profiler::Default().Start(options);
      if (!st.ok()) {
        std::fprintf(stderr, "profiler start failed: %s\n",
                     st.ToString().c_str());
        std::exit(2);
      }
      obs::HeapTracker::Enable();
      std::printf("profiling armed: %lldus CPU sampling -> %s\n",
                  static_cast<long long>(options.period_us),
                  profile_out_.c_str());
    }
    Banner(name, title);
  }

  obs::RunReport& report() { return report_; }

  /// Overrides the default report path (`BENCH_<name>.json`). Drivers with a
  /// legacy --out flag route it here; --report-out still wins.
  void set_default_report_path(std::string path) {
    default_report_path_ = std::move(path);
  }

  /// Runs `fn` under a trace span and records its wall time as a report
  /// phase. Same-name calls accumulate. Returns the elapsed seconds.
  double TimePhase(const char* phase, const std::function<void()>& fn) {
    obs::TraceSpan span(phase, "bench");
    const double seconds = TimeIt(fn);
    report_.AddPhase(phase, seconds);
    return seconds;
  }

  /// Finalizes and writes the report (plus the legacy --metrics-out dump).
  /// Returns the process exit code: 0, or 1 when the report write failed.
  int Finish() {
    obs::RegisterStandardMetrics(&obs::DefaultMetrics());
    report_.CapturePhasesFromTrace();
    report_.CaptureMetrics();
    report_.CaptureEnvironment();
    int code = 0;
    if (!profile_out_.empty()) {
      auto profile = obs::Profiler::Default().Stop();
      obs::HeapTracker::Disable();
      if (!profile.ok()) {
        std::fprintf(stderr, "profiler stop failed: %s\n",
                     profile.status().ToString().c_str());
        code = 1;
      } else {
        report_.set_profile(obs::SummarizeProfile(
            *profile, obs::HeapTracker::Snapshot()));
        const Status st =
            obs::WriteTextFile(profile_out_, profile->ToCollapsed());
        if (st.ok()) {
          std::printf("\ncollapsed-stack profile (%lld samples) written to "
                      "%s\n",
                      static_cast<long long>(profile->total_samples()),
                      profile_out_.c_str());
        } else {
          std::fprintf(stderr, "profile write failed: %s\n",
                       st.ToString().c_str());
          code = 1;
        }
      }
    }
    if (!FlagBool(argc_, argv_, "no-report")) {
      const std::string path =
          FlagString(argc_, argv_, "report-out",
                     default_report_path_.empty()
                         ? "BENCH_" + report_.name() + ".json"
                         : default_report_path_);
      const Status st = obs::WriteTextFile(path, report_.ToJson() + "\n");
      if (st.ok()) {
        std::printf("\nrun report written to %s\n", path.c_str());
      } else {
        std::fprintf(stderr, "run report write failed: %s\n",
                     st.ToString().c_str());
        code = 1;
      }
    }
    DumpTelemetryIfRequested(argc_, argv_);
    return code;
  }

 private:
  int argc_;
  char** argv_;
  obs::RunReport report_;
  std::string default_report_path_;
  std::string profile_out_;
};

}  // namespace bellwether::bench

#endif  // BELLWETHER_BENCH_BENCH_UTIL_H_
