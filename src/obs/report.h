#ifndef BELLWETHER_OBS_REPORT_H_
#define BELLWETHER_OBS_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "obs/heap_track.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace bellwether::obs {

/// Schema identity of the flight-recorder document. Bump the version on any
/// change to the key set or the meaning of a field; tools/benchdiff refuses
/// to compare documents whose schema identity differs.
inline constexpr std::string_view kRunReportSchema = "bellwether.run_report";
inline constexpr int64_t kRunReportSchemaVersion = 1;

/// Percentile estimate from fixed histogram buckets, Prometheus-style:
/// the target rank `quantile * total_count` is located in the cumulative
/// bucket counts and linearly interpolated inside the containing bucket
/// (lower edge 0 for the first bucket). Deterministic edge cases:
///   - empty histogram (total count 0) -> 0.0
///   - rank lands in the +Inf overflow bucket -> highest finite bound
///   - quantile is clamped to [0, 1]
/// `bucket_counts` are per-bucket (non-cumulative) and must have
/// `bounds.size() + 1` entries, the last being the +Inf overflow bucket.
double EstimateHistogramPercentile(const std::vector<double>& bounds,
                                   const std::vector<int64_t>& bucket_counts,
                                   double quantile);

/// Histogram summary embedded in a run report: total count, sum, and the
/// p50/p95/p99 percentile estimates of EstimateHistogramPercentile.
struct ReportHistogram {
  int64_t count = 0;
  double sum = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  bool operator==(const ReportHistogram&) const = default;
};

/// One named wall-time phase. Same-name AddPhase calls merge: seconds
/// accumulate and `count` tracks the number of merged measurements.
struct ReportPhase {
  double wall_seconds = 0.0;
  int64_t count = 0;
  bool operator==(const ReportPhase&) const = default;
};

/// Allocation counters for one phase (trace-span label) from the heap
/// tracker: requested bytes, operator-new calls, operator-delete calls.
struct ReportAllocPhase {
  int64_t bytes = 0;
  int64_t calls = 0;
  int64_t frees = 0;
  bool operator==(const ReportAllocPhase&) const = default;
};

/// Optional hot-path attribution section of a run report, filled when a
/// bench ran with --profile-out (or a builder armed the profiler): the
/// top-N self-time frames of the sampling profiler and the per-phase
/// allocation counters of the heap tracker. Excluded from LogicalJson()
/// — sample counts are timing, not logical identity — and omitted from
/// ToJson() entirely when empty, so reports written with profiling
/// disabled are unchanged. Additive-optional, so the schema version
/// stays put and older readers simply ignore the key.
struct ReportProfile {
  int64_t period_us = 0;
  int64_t total_samples = 0;
  int64_t dropped_samples = 0;
  /// Frame -> self samples, the top-N rows of Profile::SelfTimeTable().
  std::map<std::string, int64_t> self_samples;
  /// Phase label -> allocation counters.
  std::map<std::string, ReportAllocPhase> alloc;
  bool empty() const {
    return total_samples == 0 && self_samples.empty() && alloc.empty();
  }
  bool operator==(const ReportProfile&) const = default;
};

/// Builds a report profile section: the top `top_n` self-time frames of
/// `profile` plus the per-phase counters of a HeapTracker snapshot.
ReportProfile SummarizeProfile(
    const Profile& profile,
    const std::map<std::string, HeapTracker::LabelStats>& alloc,
    int top_n = 20);

/// Flight recorder for one builder or bench run: aggregates configuration,
/// logical telemetry, per-phase wall times, a metrics snapshot, robustness
/// events, and environment metadata into one schema-versioned JSON document
/// with stable (sorted) key ordering.
///
/// The document deliberately separates LOGICAL fields — config, counts,
/// values, text — from timing/environment fields. The logical sections are
/// bit-identical across thread counts for a deterministic build (the
/// parallel-determinism contract); LogicalJson() serializes exactly those,
/// so tests can diff runs at different num_threads byte-for-byte. Wall
/// times, metrics snapshots, peak RSS, and environment metadata live only
/// in the full ToJson() document.
class RunReport {
 public:
  RunReport() = default;
  explicit RunReport(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  // ---- logical sections (deterministic across thread counts) ----

  /// Configuration entries that identify the run. Do NOT record thread
  /// counts or other machine-local execution knobs here — those belong to
  /// the environment section; the config fingerprint must match between a
  /// serial and a parallel run of the same logical work.
  void SetConfig(std::string_view key, std::string_view value);
  void SetConfig(std::string_view key, double value);
  void SetConfig(std::string_view key, int64_t value);

  /// Integer telemetry: scan counts, nodes/cells created, robustness event
  /// counts (faults hit, retries, degradation picks).
  void SetCount(std::string_view key, int64_t value);
  void AddCount(std::string_view key, int64_t delta);
  int64_t GetCount(std::string_view key, int64_t fallback = 0) const;

  /// Floating-point results (errors, speedups) and free-text results
  /// (bellwether labels, armed fault specs).
  void SetValue(std::string_view key, double value);
  double GetValue(std::string_view key, double fallback = 0.0) const;
  void SetText(std::string_view key, std::string_view value);

  /// FNV-1a 64-bit hash over the sorted config section, hex-encoded.
  /// Insertion order does not matter; any key or value change does.
  std::string ConfigFingerprint() const;

  // ---- timing section (excluded from the logical identity) ----

  void AddPhase(std::string_view phase, double wall_seconds);

  /// Rolls every completed span of `trace` up by name into phases keyed
  /// "span/<name>": durations sum across spans (and across threads, so a
  /// parallel phase may exceed wall time), `count` is the span count.
  void CapturePhasesFromTrace(const Trace& trace = DefaultTrace());

  /// Attaches the hot-path attribution section (see ReportProfile).
  void set_profile(ReportProfile profile) { profile_ = std::move(profile); }
  const ReportProfile& profile() const { return profile_; }

  // ---- snapshots (excluded from the logical identity) ----

  /// Snapshots every registered metric; histograms are summarized with
  /// p50/p95/p99 percentile estimates.
  void CaptureMetrics(const MetricsRegistry& registry = DefaultMetrics());

  /// Records hardware_concurrency, build flavor (release/debug +
  /// sanitizer), the git sha (BELLWETHER_GIT_SHA or GITHUB_SHA environment
  /// variable, else "unknown"), and the process peak RSS in bytes.
  void CaptureEnvironment();

  // ---- serialization ----

  /// The full schema-versioned document, compact JSON, keys sorted.
  std::string ToJson() const;

  /// Only the logical sections (schema, name, config + fingerprint, counts,
  /// values, text). Byte-identical across thread counts for deterministic
  /// builds; wall-time, metrics, and environment fields are excluded.
  std::string LogicalJson() const;

  /// Parses a document produced by ToJson(). Unknown keys are ignored (a
  /// newer writer stays readable); re-emitting an unmodified parse of a
  /// same-version document is bit-identical.
  static Result<RunReport> FromJson(std::string_view text);

  // ---- accessors (benchdiff, tests) ----
  const std::map<std::string, std::string>& config() const { return config_; }
  const std::map<std::string, int64_t>& counts() const { return counts_; }
  const std::map<std::string, double>& values() const { return values_; }
  const std::map<std::string, std::string>& text() const { return text_; }
  const std::map<std::string, ReportPhase>& phases() const { return phases_; }
  const std::map<std::string, std::string>& environment() const {
    return environment_;
  }
  const std::map<std::string, int64_t>& metric_counters() const {
    return metric_counters_;
  }
  const std::map<std::string, double>& metric_gauges() const {
    return metric_gauges_;
  }
  const std::map<std::string, ReportHistogram>& metric_histograms() const {
    return metric_histograms_;
  }
  double peak_rss_bytes() const { return peak_rss_bytes_; }

 private:
  std::string name_;
  std::map<std::string, std::string> config_;
  std::map<std::string, int64_t> counts_;
  std::map<std::string, double> values_;
  std::map<std::string, std::string> text_;
  std::map<std::string, ReportPhase> phases_;
  std::map<std::string, std::string> environment_;
  std::map<std::string, int64_t> metric_counters_;
  std::map<std::string, double> metric_gauges_;
  std::map<std::string, ReportHistogram> metric_histograms_;
  ReportProfile profile_;
  double peak_rss_bytes_ = 0.0;
};

// ---------------------------------------------------------------------------
// benchdiff: noise-aware comparison of two run reports (tools/benchdiff).
// ---------------------------------------------------------------------------

struct BenchDiffOptions {
  /// Relative slowdown that counts as a regression: new > old * (1 +
  /// threshold) fails. The same margin, inverted, reports an improvement.
  double threshold = 0.15;
  /// Noise floor: a phase is compared only when either run spent at least
  /// this many wall seconds in it — micro-phases jitter too much to gate on.
  double min_seconds = 0.005;
  /// When true, differing logical counts/values fail the diff instead of
  /// only being reported.
  bool fail_on_count_drift = false;
  /// Relative change in a phase's allocation-call count (profile section)
  /// that is flagged as drift. Compared only when both reports carry
  /// allocation counters for the phase, and only above an absolute floor
  /// of kAllocDriftFloorCalls calls so tiny phases don't jitter.
  double alloc_drift_threshold = 0.10;
  /// When true, an allocation-count *increase* beyond the threshold fails
  /// the diff. Decreases are reported but never fail — an intentional
  /// alloc-count improvement re-baselines cleanly on the next artifact
  /// upload instead of blocking the PR that delivered it.
  bool fail_on_alloc_drift = false;
};

inline constexpr int64_t kAllocDriftFloorCalls = 64;

enum class BenchDiffKind {
  kRegression,      // phase slowed beyond the threshold
  kImprovement,     // phase sped up beyond the threshold
  kCountDrift,      // logical count or value changed between runs
  kPhaseOnlyInOne,  // phase present in exactly one report
  kAllocDrift,      // per-phase allocation-call count drifted
};

struct BenchDiffEntry {
  BenchDiffKind kind = BenchDiffKind::kRegression;
  std::string key;
  double old_value = 0.0;
  double new_value = 0.0;
  double ratio = 0.0;  // new / old for phase entries, 0 when undefined
};

struct BenchDiffResult {
  std::vector<BenchDiffEntry> entries;
  bool schema_mismatch = false;
  bool name_mismatch = false;
  bool config_changed = false;  // fingerprints differ (reported, not fatal)
  bool failed = false;          // regression (or drift under the option)

  /// Human-readable multi-line summary of every entry and verdict.
  std::string Summary() const;

  /// Machine-readable form (benchdiff --json): compact JSON with the
  /// verdict flags and one comparison object per entry
  /// ({"kind","key","old","new","ratio"}), keys sorted.
  std::string ToJson() const;
};

/// Compares `current` against `baseline` phase by phase with the relative
/// threshold and noise floor of `options`, and diffs the logical
/// counts/values. Never compares documents of mismatched schema identity
/// (schema_mismatch is set and failed = true).
BenchDiffResult CompareRunReports(const RunReport& baseline,
                                  const RunReport& current,
                                  const BenchDiffOptions& options = {});

}  // namespace bellwether::obs

#endif  // BELLWETHER_OBS_REPORT_H_
