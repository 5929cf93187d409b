#ifndef BELLWETHER_OBS_METRICS_H_
#define BELLWETHER_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace bellwether::obs {

/// Monotonically increasing integer metric. All operations are lock-free.
class Counter {
 public:
  void Increment(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-written floating-point metric (may go up or down).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  /// Set(v) only when v exceeds the current value (peak tracking).
  void SetMax(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (cur < v && !value_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram. An observation v lands in the first bucket whose
/// upper bound satisfies v <= bound; values above every bound land in the
/// implicit +Inf overflow bucket. Thread-safe and lock-free.
class Histogram {
 public:
  /// `upper_bounds` must be strictly increasing and non-empty.
  explicit Histogram(std::vector<double> upper_bounds);

  void Observe(double v);

  int64_t TotalCount() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Finite upper bounds, excluding the implicit +Inf bucket.
  const std::vector<double>& bucket_bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts; size = bucket_bounds().size() + 1,
  /// the last entry being the +Inf overflow bucket.
  std::vector<int64_t> BucketCounts() const;
  void Reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<int64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Point-in-time copy of every registered metric, keyed by name in sorted
/// order (std::map), so consumers can serialize without holding the registry
/// lock and two snapshots of the same state compare equal.
struct MetricsSnapshot {
  struct HistogramState {
    std::vector<double> bounds;          // finite upper bounds
    std::vector<int64_t> bucket_counts;  // non-cumulative, bounds.size() + 1
    int64_t total_count = 0;
    double sum = 0.0;
  };
  std::map<std::string, int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramState> histograms;
};

/// Thread-safe registry of named metrics. Lookup registers on first use and
/// returns a stable pointer; subsequent lookups of the same name return the
/// same metric, so hot paths should cache the pointer.
///
/// Iteration order everywhere (Prometheus text, JSON, MetricNames,
/// Snapshot) is sorted by metric name, so exports diff cleanly between
/// runs regardless of registration order.
///
/// Metric names follow the Prometheus convention:
/// `bellwether_<area>_<what>_<unit-or-total>` (see docs/OBSERVABILITY.md).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(std::string_view name, std::string_view help = "");
  Gauge* GetGauge(std::string_view name, std::string_view help = "");
  /// Registers with the given bucket bounds on first use; later calls with
  /// different bounds return the existing histogram unchanged.
  Histogram* GetHistogram(std::string_view name,
                          std::vector<double> upper_bounds,
                          std::string_view help = "");

  /// Prometheus text exposition format (counters as `name value`, histograms
  /// as cumulative `name_bucket{le="..."}` series plus `_sum`/`_count`).
  std::string ToPrometheusText() const;

  /// JSON export:
  ///   {"counters": {name: value, ...},
  ///    "gauges": {name: value, ...},
  ///    "histograms": {name: {"count": n, "sum": s,
  ///                          "buckets": [{"le": b, "count": c}, ...]}}}
  /// Histogram bucket counts in the JSON are cumulative, `le` ascending,
  /// ending with the +Inf bucket (le = null).
  std::string ToJson() const;

  /// Copies every registered metric's current value (sorted by name).
  MetricsSnapshot Snapshot() const;

  /// Zeroes every registered metric, keeping registrations (bench harnesses
  /// call this between phases).
  void ResetAll();

  /// Names of all registered metrics, sorted.
  std::vector<std::string> MetricNames() const;

 private:
  struct Entry {
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry, std::less<>> entries_;
};

/// The process-wide registry the built-in instrumentation reports into.
MetricsRegistry& DefaultMetrics();

/// Default bucket bounds (seconds) for model-fit / scan latency histograms:
/// exponential from 1us to ~10s.
const std::vector<double>& LatencyBucketsSeconds();

// ---------------------------------------------------------------------------
// Canonical metric names recorded by the built-in instrumentation. Kept in
// one place so benches, tests, and docs agree on spelling.
// ---------------------------------------------------------------------------

// Basic search (core/basic_search.cc) and feasible-region enumeration.
inline constexpr std::string_view kMSearchRegionsEnumerated =
    "bellwether_search_regions_enumerated_total";
inline constexpr std::string_view kMSearchRegionsScored =
    "bellwether_search_regions_scored_total";
inline constexpr std::string_view kMSearchRegionsPrunedCost =
    "bellwether_search_regions_pruned_by_cost_total";
inline constexpr std::string_view kMSearchRegionsPrunedCoverage =
    "bellwether_search_regions_pruned_by_coverage_total";
inline constexpr std::string_view kMSearchFitFailures =
    "bellwether_search_model_fit_failures_total";
inline constexpr std::string_view kMSearchRowsScanned =
    "bellwether_search_rows_scanned_total";
inline constexpr std::string_view kMSearchRegionFitSeconds =
    "bellwether_search_region_fit_seconds";

// Training-data generation (core/training_data_gen.cc).
inline constexpr std::string_view kMDatagenFactRowsScanned =
    "bellwether_datagen_fact_rows_scanned_total";
inline constexpr std::string_view kMDatagenRegionSetsEmitted =
    "bellwether_datagen_region_sets_emitted_total";
inline constexpr std::string_view kMDatagenTrainingRowsEmitted =
    "bellwether_datagen_training_rows_emitted_total";
/// Peak resident training-set bytes held by a TrainingDataSink during
/// generation (gauge, SetMax-updated per append). Under a BudgetedSink this
/// is bounded by memory_budget_bytes + the largest single region set.
inline constexpr std::string_view kMDatagenPeakResidentBytes =
    "bellwether_datagen_peak_resident_bytes";

// Tree builders (core/bellwether_tree.cc).
inline constexpr std::string_view kMTreeNaiveScans =
    "bellwether_tree_naive_scans_total";
inline constexpr std::string_view kMTreeRfScans =
    "bellwether_tree_rf_scans_total";
inline constexpr std::string_view kMTreeNodesCreated =
    "bellwether_tree_nodes_created_total";
inline constexpr std::string_view kMTreeSuffStatsPeak =
    "bellwether_tree_suff_stats_peak";
inline constexpr std::string_view kMTreeLevelScanSeconds =
    "bellwether_tree_level_scan_seconds";

// Cube builders (core/bellwether_cube.cc).
inline constexpr std::string_view kMCubeNaiveScans =
    "bellwether_cube_naive_scans_total";
inline constexpr std::string_view kMCubeSingleScanScans =
    "bellwether_cube_single_scan_scans_total";
inline constexpr std::string_view kMCubeOptimizedScans =
    "bellwether_cube_optimized_scans_total";
inline constexpr std::string_view kMCubeSignificantSubsets =
    "bellwether_cube_significant_subsets_total";
inline constexpr std::string_view kMCubeCellsMaterialized =
    "bellwether_cube_cells_materialized_total";

// Parallel execution layer (exec/thread_pool.cc, exec/parallel.h).
inline constexpr std::string_view kMExecTasksSubmitted =
    "bellwether_exec_tasks_submitted_total";
inline constexpr std::string_view kMExecQueueDepth =
    "bellwether_exec_queue_depth";
inline constexpr std::string_view kMExecWorkerBusySeconds =
    "bellwether_exec_worker_busy_seconds_total";

// Storage layer (storage/training_data.cc, storage/arena.cc).
inline constexpr std::string_view kMStorageScans =
    "bellwether_storage_sequential_scans_total";
/// RegionSetArena traffic: shells handed out, shells handed out with
/// recycled buffers (a reuse avoids the four vector allocations of a cold
/// RegionTrainingSet), and shells returned to the pool.
inline constexpr std::string_view kMArenaAcquires =
    "bellwether_storage_arena_acquires_total";
inline constexpr std::string_view kMArenaReuses =
    "bellwether_storage_arena_reuses_total";
inline constexpr std::string_view kMArenaReleases =
    "bellwether_storage_arena_releases_total";
inline constexpr std::string_view kMStorageRegionReads =
    "bellwether_storage_region_reads_total";
inline constexpr std::string_view kMStorageRowsScanned =
    "bellwether_storage_rows_scanned_total";
inline constexpr std::string_view kMStorageBytesRead =
    "bellwether_storage_bytes_read_total";

// Robustness layer (robust/, storage/retrying_source.cc, table/csv.cc,
// core/training_data_gen.cc, regression fallbacks).
inline constexpr std::string_view kMFaultInjections =
    "bellwether_fault_injections_total";
inline constexpr std::string_view kMStorageRetries =
    "bellwether_storage_retries_total";
inline constexpr std::string_view kMStorageRetryExhausted =
    "bellwether_storage_retry_exhausted_total";
inline constexpr std::string_view kMCsvRowsQuarantined =
    "bellwether_csv_rows_quarantined_total";
inline constexpr std::string_view kMDatagenRowsQuarantined =
    "bellwether_datagen_rows_quarantined_total";
inline constexpr std::string_view kMRegressionRidgeRefits =
    "bellwether_regression_ridge_refits_total";
inline constexpr std::string_view kMRegressionMeanFallbacks =
    "bellwether_regression_mean_fallbacks_total";
inline constexpr std::string_view kMStateDeltaBatches =
    "bellwether_state_delta_batches_total";
inline constexpr std::string_view kMStateDeltaRows =
    "bellwether_state_delta_rows_total";
inline constexpr std::string_view kMStateCellsRederived =
    "bellwether_state_cells_rederived_total";
inline constexpr std::string_view kMStateCellsReused =
    "bellwether_state_cells_reused_total";
inline constexpr std::string_view kMStateSaves =
    "bellwether_state_saves_total";
inline constexpr std::string_view kMStateOpens =
    "bellwether_state_opens_total";

/// Registers every canonical metric above in `registry` (zero-valued when
/// not yet touched), so exports always contain the full set regardless of
/// which code paths ran. Benches call this before dumping.
void RegisterStandardMetrics(MetricsRegistry* registry);

}  // namespace bellwether::obs

#endif  // BELLWETHER_OBS_METRICS_H_
