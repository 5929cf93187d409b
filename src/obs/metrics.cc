#include "obs/metrics.h"

#include <algorithm>

#include "common/check.h"
#include "obs/json.h"

namespace bellwether::obs {

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  BW_CHECK(!bounds_.empty());
  for (size_t i = 0; i + 1 < bounds_.size(); ++i) {
    BW_CHECK(bounds_[i] < bounds_[i + 1]);
  }
  buckets_ = std::make_unique<std::atomic<int64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

void Histogram::Observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const size_t idx = static_cast<size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
}

std::vector<int64_t> Histogram::BucketCounts() const {
  std::vector<int64_t> out(bounds_.size() + 1);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::Reset() {
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

Counter* MetricsRegistry::GetCounter(std::string_view name,
                                     std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry e;
    e.help = std::string(help);
    e.counter = std::make_unique<Counter>();
    it = entries_.emplace(std::string(name), std::move(e)).first;
  }
  BW_CHECK(it->second.counter != nullptr);  // name registered as another kind
  return it->second.counter.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name,
                                 std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry e;
    e.help = std::string(help);
    e.gauge = std::make_unique<Gauge>();
    it = entries_.emplace(std::string(name), std::move(e)).first;
  }
  BW_CHECK(it->second.gauge != nullptr);
  return it->second.gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         std::vector<double> upper_bounds,
                                         std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry e;
    e.help = std::string(help);
    e.histogram = std::make_unique<Histogram>(std::move(upper_bounds));
    it = entries_.emplace(std::string(name), std::move(e)).first;
  }
  BW_CHECK(it->second.histogram != nullptr);
  return it->second.histogram.get();
}

std::string MetricsRegistry::ToPrometheusText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, e] : entries_) {
    if (!e.help.empty()) {
      out += "# HELP " + name + " " + e.help + "\n";
    }
    if (e.counter != nullptr) {
      out += "# TYPE " + name + " counter\n";
      out += name + " " + std::to_string(e.counter->Value()) + "\n";
    } else if (e.gauge != nullptr) {
      out += "# TYPE " + name + " gauge\n";
      out += name + " " + JsonNumber(e.gauge->Value()) + "\n";
    } else {
      out += "# TYPE " + name + " histogram\n";
      const auto counts = e.histogram->BucketCounts();
      const auto& bounds = e.histogram->bucket_bounds();
      int64_t cum = 0;
      for (size_t i = 0; i < bounds.size(); ++i) {
        cum += counts[i];
        out += name + "_bucket{le=\"" + JsonNumber(bounds[i]) + "\"} " +
               std::to_string(cum) + "\n";
      }
      cum += counts.back();
      out += name + "_bucket{le=\"+Inf\"} " + std::to_string(cum) + "\n";
      out += name + "_sum " + JsonNumber(e.histogram->Sum()) + "\n";
      out += name + "_count " + std::to_string(e.histogram->TotalCount()) +
             "\n";
    }
  }
  return out;
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string counters = "{";
  std::string gauges = "{";
  std::string histograms = "{";
  bool first_c = true, first_g = true, first_h = true;
  for (const auto& [name, e] : entries_) {
    if (e.counter != nullptr) {
      if (!first_c) counters += ",";
      first_c = false;
      counters += "\"" + JsonEscape(name) +
                  "\":" + std::to_string(e.counter->Value());
    } else if (e.gauge != nullptr) {
      if (!first_g) gauges += ",";
      first_g = false;
      gauges += "\"" + JsonEscape(name) + "\":" + JsonNumber(e.gauge->Value());
    } else {
      if (!first_h) histograms += ",";
      first_h = false;
      const auto counts = e.histogram->BucketCounts();
      const auto& bounds = e.histogram->bucket_bounds();
      histograms += "\"" + JsonEscape(name) + "\":{\"count\":" +
                    std::to_string(e.histogram->TotalCount()) +
                    ",\"sum\":" + JsonNumber(e.histogram->Sum()) +
                    ",\"buckets\":[";
      int64_t cum = 0;
      for (size_t i = 0; i < bounds.size(); ++i) {
        cum += counts[i];
        if (i > 0) histograms += ",";
        histograms += "{\"le\":" + JsonNumber(bounds[i]) +
                      ",\"count\":" + std::to_string(cum) + "}";
      }
      cum += counts.back();
      histograms +=
          ",{\"le\":null,\"count\":" + std::to_string(cum) + "}]}";
    }
  }
  counters += "}";
  gauges += "}";
  histograms += "}";
  return "{\"counters\":" + counters + ",\"gauges\":" + gauges +
         ",\"histograms\":" + histograms + "}";
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot out;
  for (const auto& [name, e] : entries_) {
    if (e.counter != nullptr) {
      out.counters.emplace(name, e.counter->Value());
    } else if (e.gauge != nullptr) {
      out.gauges.emplace(name, e.gauge->Value());
    } else {
      MetricsSnapshot::HistogramState h;
      h.bounds = e.histogram->bucket_bounds();
      h.bucket_counts = e.histogram->BucketCounts();
      h.total_count = e.histogram->TotalCount();
      h.sum = e.histogram->Sum();
      out.histograms.emplace(name, std::move(h));
    }
  }
  return out;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, e] : entries_) {
    if (e.counter != nullptr) e.counter->Reset();
    if (e.gauge != nullptr) e.gauge->Reset();
    if (e.histogram != nullptr) e.histogram->Reset();
  }
}

std::vector<std::string> MetricsRegistry::MetricNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, e] : entries_) out.push_back(name);
  return out;
}

MetricsRegistry& DefaultMetrics() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

const std::vector<double>& LatencyBucketsSeconds() {
  static const std::vector<double>* buckets = new std::vector<double>{
      1e-6, 4e-6, 16e-6, 64e-6, 256e-6, 1e-3, 4e-3, 16e-3,
      64e-3, 256e-3, 1.0, 4.0, 16.0};
  return *buckets;
}

void RegisterStandardMetrics(MetricsRegistry* registry) {
  registry->GetCounter(kMSearchRegionsEnumerated,
                       "region training sets visited by the basic search");
  registry->GetCounter(kMSearchRegionsScored,
                       "regions whose model produced a usable error score");
  registry->GetCounter(kMSearchRegionsPrunedCost,
                       "regions pruned or rejected by the cost budget");
  registry->GetCounter(kMSearchRegionsPrunedCoverage,
                       "regions pruned or rejected by the coverage threshold");
  registry->GetCounter(kMSearchFitFailures,
                       "region model fits / error estimations that failed");
  registry->GetCounter(kMSearchRowsScanned,
                       "training rows visited by the basic search");
  registry->GetHistogram(kMSearchRegionFitSeconds, LatencyBucketsSeconds(),
                         "per-region score/fit wall time");
  registry->GetCounter(kMDatagenFactRowsScanned,
                       "fact-table rows scanned by training data generation");
  registry->GetCounter(kMDatagenRegionSetsEmitted,
                       "region training sets materialized");
  registry->GetCounter(kMDatagenTrainingRowsEmitted,
                       "training rows materialized across all region sets");
  registry->GetGauge(kMDatagenPeakResidentBytes,
                     "peak resident training-set bytes held by a "
                     "TrainingDataSink during generation");
  registry->GetCounter(kMTreeNaiveScans,
                       "full passes over the training data by the naive "
                       "tree builder");
  registry->GetCounter(kMTreeRfScans,
                       "sequential scans by the RainForest tree builder "
                       "(one per level, Lemma 1)");
  registry->GetCounter(kMTreeNodesCreated, "tree nodes created");
  registry->GetGauge(kMTreeSuffStatsPeak,
                     "peak count of <MinError,Size> sufficient statistics "
                     "held by one RF level scan");
  registry->GetHistogram(kMTreeLevelScanSeconds, LatencyBucketsSeconds(),
                         "per-level RF scan wall time");
  registry->GetCounter(kMCubeNaiveScans,
                       "full passes over the training data by the naive "
                       "cube builder");
  registry->GetCounter(kMCubeSingleScanScans,
                       "sequential scans by the single-scan cube builder "
                       "(exactly one, Lemma 2)");
  registry->GetCounter(kMCubeOptimizedScans,
                       "sequential scans by the optimized cube builder");
  registry->GetCounter(kMCubeSignificantSubsets,
                       "significant item subsets found (|S| >= K)");
  registry->GetCounter(kMCubeCellsMaterialized, "cube cells materialized");
  registry->GetCounter(kMExecTasksSubmitted,
                       "tasks submitted to exec thread pools");
  registry->GetGauge(kMExecQueueDepth,
                     "peak depth of the exec thread-pool task queue");
  registry->GetGauge(kMExecWorkerBusySeconds,
                     "cumulative wall time exec workers spent running tasks");
  registry->GetCounter(kMStorageScans,
                       "sequential scans issued against training sources");
  registry->GetCounter(kMStorageRegionReads,
                       "region training-set records read");
  registry->GetCounter(kMStorageRowsScanned,
                       "training rows delivered by storage reads and scans");
  registry->GetCounter(kMStorageBytesRead, "bytes read from training sources");
  registry->GetCounter(kMArenaAcquires,
                       "RegionTrainingSet shells handed out by RegionSetArena");
  registry->GetCounter(kMArenaReuses,
                       "arena acquires satisfied from the free list");
  registry->GetCounter(kMArenaReleases,
                       "RegionTrainingSet shells returned to RegionSetArena");
  registry->GetCounter(kMFaultInjections,
                       "faults fired by the fault-injection registry");
  registry->GetCounter(kMStorageRetries,
                       "transient scan/read failures retried by "
                       "RetryingTrainingDataSource");
  registry->GetCounter(kMStorageRetryExhausted,
                       "operations that failed after exhausting all retries");
  registry->GetCounter(kMCsvRowsQuarantined,
                       "malformed CSV rows skipped in permissive mode");
  registry->GetCounter(kMDatagenRowsQuarantined,
                       "fact rows quarantined during training data generation");
  registry->GetCounter(kMRegressionRidgeRefits,
                       "ill-conditioned fits recovered by heavy ridge refit");
  registry->GetCounter(kMRegressionMeanFallbacks,
                       "fits degraded to the intercept-only mean model");
  registry->GetCounter(kMStateDeltaBatches,
                       "delta batches folded into an open bellwether state");
  registry->GetCounter(kMStateDeltaRows,
                       "fact rows ingested through ApplyDelta");
  registry->GetCounter(kMStateCellsRederived,
                       "dirty cube cells re-derived by state Finalize");
  registry->GetCounter(kMStateCellsReused,
                       "clean cube cells reused by state Finalize");
  registry->GetCounter(kMStateSaves, "bellwether states saved to disk");
  registry->GetCounter(kMStateOpens, "bellwether states opened from disk");
}

}  // namespace bellwether::obs
