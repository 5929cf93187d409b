#include "obs/report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <thread>

#include "common/fingerprint.h"
#include "obs/json.h"

namespace bellwether::obs {

namespace {

// Build flavor baked in at compile time so a report records which binary
// produced it (release vs debug, and which sanitizer, if any).
const char* BuildFlavor() {
#ifdef NDEBUG
  return "release";
#else
  return "debug";
#endif
}

const char* SanitizerFlavor() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  return "address";
#elif __has_feature(thread_sanitizer)
  return "thread";
#else
  return "none";
#endif
#else
  return "none";
#endif
}

std::string GitSha() {
  for (const char* var : {"BELLWETHER_GIT_SHA", "GITHUB_SHA"}) {
    const char* sha = std::getenv(var);
    if (sha != nullptr && sha[0] != '\0') return sha;
  }
  return "unknown";
}

double PeakRssBytes() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) * 1024.0;  // Linux reports KiB
}

JsonValue::Object StringMapJson(const std::map<std::string, std::string>& m) {
  JsonValue::Object out;
  for (const auto& [k, v] : m) out.emplace(k, JsonValue(v));
  return out;
}

JsonValue::Object CountMapJson(const std::map<std::string, int64_t>& m) {
  JsonValue::Object out;
  for (const auto& [k, v] : m) {
    out.emplace(k, JsonValue(static_cast<double>(v)));
  }
  return out;
}

JsonValue::Object ValueMapJson(const std::map<std::string, double>& m) {
  JsonValue::Object out;
  for (const auto& [k, v] : m) out.emplace(k, JsonValue(v));
  return out;
}

void ParseStringMap(const JsonValue* node,
                    std::map<std::string, std::string>* out) {
  if (node == nullptr || !node->is_object()) return;
  for (const auto& [k, v] : node->object()) {
    if (v.is_string()) (*out)[k] = v.str();
  }
}

void ParseCountMap(const JsonValue* node, std::map<std::string, int64_t>* out) {
  if (node == nullptr || !node->is_object()) return;
  for (const auto& [k, v] : node->object()) {
    if (v.is_number()) (*out)[k] = static_cast<int64_t>(std::llround(v.number()));
  }
}

void ParseValueMap(const JsonValue* node, std::map<std::string, double>* out) {
  if (node == nullptr || !node->is_object()) return;
  for (const auto& [k, v] : node->object()) {
    if (v.is_number()) (*out)[k] = v.number();
  }
}

double NumberOr(const JsonValue* node, const char* key, double fallback) {
  const JsonValue* v = node->Find(key);
  return v != nullptr && v->is_number() ? v->number() : fallback;
}

}  // namespace

ReportProfile SummarizeProfile(
    const Profile& profile,
    const std::map<std::string, HeapTracker::LabelStats>& alloc,
    int top_n) {
  ReportProfile out;
  out.period_us = profile.period_us();
  out.total_samples = profile.total_samples();
  out.dropped_samples = profile.dropped_samples();
  const std::vector<Profile::FrameStat> table = profile.SelfTimeTable();
  const size_t n = std::min<size_t>(table.size(),
                                    top_n > 0 ? static_cast<size_t>(top_n)
                                              : table.size());
  for (size_t i = 0; i < n; ++i) {
    out.self_samples[table[i].frame] = table[i].self;
  }
  for (const auto& [label, stats] : alloc) {
    ReportAllocPhase phase;
    phase.bytes = stats.alloc_bytes;
    phase.calls = stats.alloc_calls;
    phase.frees = stats.free_calls;
    out.alloc[label] = phase;
  }
  return out;
}

double EstimateHistogramPercentile(const std::vector<double>& bounds,
                                   const std::vector<int64_t>& bucket_counts,
                                   double quantile) {
  if (bounds.empty() || bucket_counts.size() != bounds.size() + 1) return 0.0;
  int64_t total = 0;
  for (int64_t c : bucket_counts) total += c;
  if (total <= 0) return 0.0;
  const double q = std::clamp(quantile, 0.0, 1.0);
  const double rank = q * static_cast<double>(total);
  double cum = 0.0;
  for (size_t i = 0; i < bucket_counts.size(); ++i) {
    const double c = static_cast<double>(bucket_counts[i]);
    if (c <= 0.0) continue;
    cum += c;
    if (cum >= rank) {
      if (i == bounds.size()) return bounds.back();  // +Inf overflow bucket
      const double lower = i == 0 ? std::min(0.0, bounds[0]) : bounds[i - 1];
      const double upper = bounds[i];
      const double frac = (rank - (cum - c)) / c;
      return lower + (upper - lower) * frac;
    }
  }
  return bounds.back();
}

void RunReport::SetConfig(std::string_view key, std::string_view value) {
  config_[std::string(key)] = std::string(value);
}

void RunReport::SetConfig(std::string_view key, double value) {
  config_[std::string(key)] = JsonNumber(value);
}

void RunReport::SetConfig(std::string_view key, int64_t value) {
  config_[std::string(key)] = JsonNumber(static_cast<double>(value));
}

void RunReport::SetCount(std::string_view key, int64_t value) {
  counts_[std::string(key)] = value;
}

void RunReport::AddCount(std::string_view key, int64_t delta) {
  counts_[std::string(key)] += delta;
}

int64_t RunReport::GetCount(std::string_view key, int64_t fallback) const {
  auto it = counts_.find(std::string(key));
  return it == counts_.end() ? fallback : it->second;
}

void RunReport::SetValue(std::string_view key, double value) {
  values_[std::string(key)] = value;
}

double RunReport::GetValue(std::string_view key, double fallback) const {
  auto it = values_.find(std::string(key));
  return it == values_.end() ? fallback : it->second;
}

void RunReport::SetText(std::string_view key, std::string_view value) {
  text_[std::string(key)] = std::string(value);
}

std::string RunReport::ConfigFingerprint() const {
  // FNV-1a 64 over "key=value\n" pairs; std::map iteration is sorted, so
  // the fingerprint is independent of insertion order.
  FingerprintBuilder fp;
  for (const auto& [k, v] : config_) {
    fp.AddBytes(k).AddBytes("=").AddBytes(v).AddBytes("\n");
  }
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fp.value()));
  return buf;
}

void RunReport::AddPhase(std::string_view phase, double wall_seconds) {
  ReportPhase& p = phases_[std::string(phase)];
  p.wall_seconds += wall_seconds;
  ++p.count;
}

void RunReport::CapturePhasesFromTrace(const Trace& trace) {
  for (const TraceEvent& e : trace.Snapshot()) {
    AddPhase("span/" + e.name, static_cast<double>(e.duration_us) * 1e-6);
  }
}

void RunReport::CaptureMetrics(const MetricsRegistry& registry) {
  const MetricsSnapshot snapshot = registry.Snapshot();
  metric_counters_ = snapshot.counters;
  metric_gauges_ = snapshot.gauges;
  metric_histograms_.clear();
  for (const auto& [name, h] : snapshot.histograms) {
    ReportHistogram out;
    out.count = h.total_count;
    out.sum = h.sum;
    out.p50 = EstimateHistogramPercentile(h.bounds, h.bucket_counts, 0.50);
    out.p95 = EstimateHistogramPercentile(h.bounds, h.bucket_counts, 0.95);
    out.p99 = EstimateHistogramPercentile(h.bounds, h.bucket_counts, 0.99);
    metric_histograms_.emplace(name, out);
  }
}

void RunReport::CaptureEnvironment() {
  environment_["build"] = BuildFlavor();
  environment_["sanitizer"] = SanitizerFlavor();
  environment_["git_sha"] = GitSha();
  environment_["hardware_concurrency"] = JsonNumber(
      static_cast<double>(std::thread::hardware_concurrency()));
  peak_rss_bytes_ = PeakRssBytes();
}

std::string RunReport::ToJson() const {
  JsonValue::Object root;
  root.emplace("schema", JsonValue(std::string(kRunReportSchema)));
  root.emplace("schema_version",
               JsonValue(static_cast<double>(kRunReportSchemaVersion)));
  root.emplace("name", JsonValue(name_));
  root.emplace("config", JsonValue(StringMapJson(config_)));
  root.emplace("config_fingerprint", JsonValue(ConfigFingerprint()));
  root.emplace("counts", JsonValue(CountMapJson(counts_)));
  root.emplace("values", JsonValue(ValueMapJson(values_)));
  root.emplace("text", JsonValue(StringMapJson(text_)));

  JsonValue::Object phases;
  for (const auto& [name, p] : phases_) {
    JsonValue::Object entry;
    entry.emplace("count", JsonValue(static_cast<double>(p.count)));
    entry.emplace("wall_seconds", JsonValue(p.wall_seconds));
    phases.emplace(name, JsonValue(std::move(entry)));
  }
  root.emplace("phases", JsonValue(std::move(phases)));

  JsonValue::Object metrics;
  metrics.emplace("counters", JsonValue(CountMapJson(metric_counters_)));
  metrics.emplace("gauges", JsonValue(ValueMapJson(metric_gauges_)));
  JsonValue::Object histograms;
  for (const auto& [name, h] : metric_histograms_) {
    JsonValue::Object entry;
    entry.emplace("count", JsonValue(static_cast<double>(h.count)));
    entry.emplace("sum", JsonValue(h.sum));
    entry.emplace("p50", JsonValue(h.p50));
    entry.emplace("p95", JsonValue(h.p95));
    entry.emplace("p99", JsonValue(h.p99));
    histograms.emplace(name, JsonValue(std::move(entry)));
  }
  metrics.emplace("histograms", JsonValue(std::move(histograms)));
  root.emplace("metrics", JsonValue(std::move(metrics)));

  // Optional hot-path attribution; omitted when profiling was off so such
  // reports keep their historical shape (and additive-optional for older
  // readers, which ignore unknown keys — no schema_version bump).
  if (!profile_.empty()) {
    JsonValue::Object profile;
    profile.emplace("period_us",
                    JsonValue(static_cast<double>(profile_.period_us)));
    profile.emplace("total_samples",
                    JsonValue(static_cast<double>(profile_.total_samples)));
    profile.emplace(
        "dropped_samples",
        JsonValue(static_cast<double>(profile_.dropped_samples)));
    profile.emplace("self_samples",
                    JsonValue(CountMapJson(profile_.self_samples)));
    JsonValue::Object alloc;
    for (const auto& [label, a] : profile_.alloc) {
      JsonValue::Object entry;
      entry.emplace("bytes", JsonValue(static_cast<double>(a.bytes)));
      entry.emplace("calls", JsonValue(static_cast<double>(a.calls)));
      entry.emplace("frees", JsonValue(static_cast<double>(a.frees)));
      alloc.emplace(label, JsonValue(std::move(entry)));
    }
    profile.emplace("alloc", JsonValue(std::move(alloc)));
    root.emplace("profile", JsonValue(std::move(profile)));
  }

  root.emplace("environment", JsonValue(StringMapJson(environment_)));
  root.emplace("peak_rss_bytes", JsonValue(peak_rss_bytes_));
  return WriteJson(JsonValue(std::move(root)));
}

std::string RunReport::LogicalJson() const {
  JsonValue::Object root;
  root.emplace("schema", JsonValue(std::string(kRunReportSchema)));
  root.emplace("schema_version",
               JsonValue(static_cast<double>(kRunReportSchemaVersion)));
  root.emplace("name", JsonValue(name_));
  root.emplace("config", JsonValue(StringMapJson(config_)));
  root.emplace("config_fingerprint", JsonValue(ConfigFingerprint()));
  root.emplace("counts", JsonValue(CountMapJson(counts_)));
  root.emplace("values", JsonValue(ValueMapJson(values_)));
  root.emplace("text", JsonValue(StringMapJson(text_)));
  return WriteJson(JsonValue(std::move(root)));
}

Result<RunReport> RunReport::FromJson(std::string_view json) {
  BW_ASSIGN_OR_RETURN(JsonValue doc, ParseJson(json));
  if (!doc.is_object()) {
    return Status::InvalidArgument("run report: document is not an object");
  }
  const JsonValue* schema = doc.Find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->str() != kRunReportSchema) {
    return Status::InvalidArgument("run report: missing or foreign schema");
  }
  const JsonValue* version = doc.Find("schema_version");
  if (version == nullptr || !version->is_number() ||
      static_cast<int64_t>(version->number()) != kRunReportSchemaVersion) {
    return Status::InvalidArgument("run report: unsupported schema_version");
  }
  RunReport out;
  const JsonValue* name = doc.Find("name");
  if (name != nullptr && name->is_string()) out.name_ = name->str();
  ParseStringMap(doc.Find("config"), &out.config_);
  ParseCountMap(doc.Find("counts"), &out.counts_);
  ParseValueMap(doc.Find("values"), &out.values_);
  ParseStringMap(doc.Find("text"), &out.text_);
  if (const JsonValue* phases = doc.Find("phases");
      phases != nullptr && phases->is_object()) {
    for (const auto& [key, p] : phases->object()) {
      if (!p.is_object()) continue;
      ReportPhase phase;
      phase.count = static_cast<int64_t>(NumberOr(&p, "count", 0.0));
      phase.wall_seconds = NumberOr(&p, "wall_seconds", 0.0);
      out.phases_.emplace(key, phase);
    }
  }
  if (const JsonValue* metrics = doc.Find("metrics");
      metrics != nullptr && metrics->is_object()) {
    ParseCountMap(metrics->Find("counters"), &out.metric_counters_);
    ParseValueMap(metrics->Find("gauges"), &out.metric_gauges_);
    if (const JsonValue* hists = metrics->Find("histograms");
        hists != nullptr && hists->is_object()) {
      for (const auto& [key, h] : hists->object()) {
        if (!h.is_object()) continue;
        ReportHistogram hist;
        hist.count = static_cast<int64_t>(NumberOr(&h, "count", 0.0));
        hist.sum = NumberOr(&h, "sum", 0.0);
        hist.p50 = NumberOr(&h, "p50", 0.0);
        hist.p95 = NumberOr(&h, "p95", 0.0);
        hist.p99 = NumberOr(&h, "p99", 0.0);
        out.metric_histograms_.emplace(key, hist);
      }
    }
  }
  if (const JsonValue* profile = doc.Find("profile");
      profile != nullptr && profile->is_object()) {
    out.profile_.period_us =
        static_cast<int64_t>(NumberOr(profile, "period_us", 0.0));
    out.profile_.total_samples =
        static_cast<int64_t>(NumberOr(profile, "total_samples", 0.0));
    out.profile_.dropped_samples =
        static_cast<int64_t>(NumberOr(profile, "dropped_samples", 0.0));
    ParseCountMap(profile->Find("self_samples"), &out.profile_.self_samples);
    if (const JsonValue* alloc = profile->Find("alloc");
        alloc != nullptr && alloc->is_object()) {
      for (const auto& [label, a] : alloc->object()) {
        if (!a.is_object()) continue;
        ReportAllocPhase phase;
        phase.bytes = static_cast<int64_t>(NumberOr(&a, "bytes", 0.0));
        phase.calls = static_cast<int64_t>(NumberOr(&a, "calls", 0.0));
        phase.frees = static_cast<int64_t>(NumberOr(&a, "frees", 0.0));
        out.profile_.alloc.emplace(label, phase);
      }
    }
  }
  ParseStringMap(doc.Find("environment"), &out.environment_);
  if (const JsonValue* rss = doc.Find("peak_rss_bytes");
      rss != nullptr && rss->is_number()) {
    out.peak_rss_bytes_ = rss->number();
  }
  return out;
}

// ---------------------------------------------------------------------------
// benchdiff
// ---------------------------------------------------------------------------

namespace {

const char* KindName(BenchDiffKind kind) {
  switch (kind) {
    case BenchDiffKind::kRegression: return "REGRESSION";
    case BenchDiffKind::kImprovement: return "improvement";
    case BenchDiffKind::kCountDrift: return "count-drift";
    case BenchDiffKind::kPhaseOnlyInOne: return "phase-only-in-one";
    case BenchDiffKind::kAllocDrift: return "alloc-drift";
  }
  return "?";
}

}  // namespace

std::string BenchDiffResult::Summary() const {
  std::string out;
  char line[256];
  if (schema_mismatch) out += "schema mismatch: reports are not comparable\n";
  if (name_mismatch) out += "warning: report names differ\n";
  if (config_changed) {
    out += "warning: config fingerprints differ (thresholds still applied)\n";
  }
  for (const BenchDiffEntry& e : entries) {
    if (e.kind == BenchDiffKind::kRegression ||
        e.kind == BenchDiffKind::kImprovement) {
      std::snprintf(line, sizeof(line),
                    "%-18s %-40s %12.6fs -> %12.6fs (%+.1f%%)\n",
                    KindName(e.kind), e.key.c_str(), e.old_value, e.new_value,
                    (e.ratio - 1.0) * 100.0);
    } else if (e.kind == BenchDiffKind::kAllocDrift) {
      std::snprintf(line, sizeof(line),
                    "%-18s %-40s %.0f -> %.0f allocs (%+.1f%%)\n",
                    KindName(e.kind), e.key.c_str(), e.old_value, e.new_value,
                    (e.ratio - 1.0) * 100.0);
    } else {
      std::snprintf(line, sizeof(line), "%-18s %-40s %g -> %g\n",
                    KindName(e.kind), e.key.c_str(), e.old_value, e.new_value);
    }
    out += line;
  }
  out += failed ? "verdict: FAIL\n" : "verdict: OK\n";
  return out;
}

std::string BenchDiffResult::ToJson() const {
  JsonValue::Object root;
  root.emplace("schema_mismatch", JsonValue(schema_mismatch));
  root.emplace("name_mismatch", JsonValue(name_mismatch));
  root.emplace("config_changed", JsonValue(config_changed));
  root.emplace("failed", JsonValue(failed));
  JsonValue::Array items;
  items.reserve(entries.size());
  for (const BenchDiffEntry& e : entries) {
    JsonValue::Object entry;
    entry.emplace("kind", JsonValue(std::string(KindName(e.kind))));
    entry.emplace("key", JsonValue(e.key));
    entry.emplace("old", JsonValue(e.old_value));
    entry.emplace("new", JsonValue(e.new_value));
    entry.emplace("ratio", JsonValue(e.ratio));
    items.push_back(JsonValue(std::move(entry)));
  }
  root.emplace("entries", JsonValue(std::move(items)));
  return WriteJson(JsonValue(std::move(root)));
}

BenchDiffResult CompareRunReports(const RunReport& baseline,
                                  const RunReport& current,
                                  const BenchDiffOptions& options) {
  BenchDiffResult result;
  result.name_mismatch = baseline.name() != current.name();
  result.config_changed =
      baseline.ConfigFingerprint() != current.ConfigFingerprint();

  // Phases: relative wall-time comparison above the noise floor.
  for (const auto& [key, old_phase] : baseline.phases()) {
    auto it = current.phases().find(key);
    if (it == current.phases().end()) {
      result.entries.push_back({BenchDiffKind::kPhaseOnlyInOne, key,
                                old_phase.wall_seconds, 0.0, 0.0});
      continue;
    }
    const double old_s = old_phase.wall_seconds;
    const double new_s = it->second.wall_seconds;
    if (old_s < options.min_seconds && new_s < options.min_seconds) continue;
    // A phase that was free and now costs real time has no finite ratio;
    // treat it as an unbounded slowdown.
    const double ratio = old_s > 0.0
                             ? new_s / old_s
                             : std::numeric_limits<double>::infinity();
    if (ratio > 1.0 + options.threshold) {
      result.entries.push_back(
          {BenchDiffKind::kRegression, key, old_s, new_s, ratio});
      result.failed = true;
    } else if (ratio < 1.0 / (1.0 + options.threshold)) {
      result.entries.push_back(
          {BenchDiffKind::kImprovement, key, old_s, new_s, ratio});
    }
  }
  for (const auto& [key, new_phase] : current.phases()) {
    if (baseline.phases().find(key) == baseline.phases().end()) {
      result.entries.push_back({BenchDiffKind::kPhaseOnlyInOne, key, 0.0,
                                new_phase.wall_seconds, 0.0});
    }
  }

  // Allocation drift: when both runs carried per-phase heap-tracker
  // counters, a phase whose allocation-call count moved by more than the
  // alloc threshold is flagged — malloc churn creeping into a hot loop is
  // a perf smell even before it shows up in wall time. Tiny phases (below
  // the absolute call floor in both runs) are never flagged.
  for (const auto& [phase, old_alloc] : baseline.profile().alloc) {
    auto it = current.profile().alloc.find(phase);
    if (it == current.profile().alloc.end()) continue;
    const int64_t old_calls = old_alloc.calls;
    const int64_t new_calls = it->second.calls;
    if (old_calls < kAllocDriftFloorCalls &&
        new_calls < kAllocDriftFloorCalls) {
      continue;
    }
    const double ratio =
        old_calls > 0 ? static_cast<double>(new_calls) /
                            static_cast<double>(old_calls)
                      : std::numeric_limits<double>::infinity();
    if (ratio > 1.0 + options.alloc_drift_threshold ||
        ratio < 1.0 / (1.0 + options.alloc_drift_threshold)) {
      result.entries.push_back({BenchDiffKind::kAllocDrift, phase,
                                static_cast<double>(old_calls),
                                static_cast<double>(new_calls), ratio});
      // One-sided gate: only an *increase* fails. A drop is an intentional
      // improvement (arena reuse, batching) that should re-baseline on the
      // next artifact upload, not block the PR that delivered it; it is
      // still reported above so the improvement is visible in the diff.
      if (options.fail_on_alloc_drift &&
          ratio > 1.0 + options.alloc_drift_threshold) {
        result.failed = true;
      }
    }
  }

  // Logical drift: identical config should produce identical counts/values.
  for (const auto& [key, old_count] : baseline.counts()) {
    const int64_t new_count = current.GetCount(key, old_count);
    if (new_count != old_count) {
      result.entries.push_back({BenchDiffKind::kCountDrift, key,
                                static_cast<double>(old_count),
                                static_cast<double>(new_count), 0.0});
      if (options.fail_on_count_drift) result.failed = true;
    }
  }
  for (const auto& [key, old_value] : baseline.values()) {
    const double new_value = current.GetValue(key, old_value);
    if (new_value != old_value) {
      result.entries.push_back(
          {BenchDiffKind::kCountDrift, key, old_value, new_value, 0.0});
      if (options.fail_on_count_drift) result.failed = true;
    }
  }
  return result;
}

}  // namespace bellwether::obs
