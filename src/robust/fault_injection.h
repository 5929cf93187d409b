#ifndef BELLWETHER_ROBUST_FAULT_INJECTION_H_
#define BELLWETHER_ROBUST_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace bellwether::robust {

/// What an armed fault point does when it fires. The consuming call site
/// declares which kind it honors, so a spec arming the wrong kind at a point
/// simply never fires there.
enum class FaultKind {
  kIoError,  // "io": the operation reports a transient Status::IoError
  kCorrupt,  // "corrupt": the payload (row, record) is treated as malformed
  kCrash,    // "crash": the operation aborts mid-flight (simulated kill)
};

const char* FaultKindName(FaultKind kind);

/// Deterministic, seedable fault injector. Production code is sprinkled with
/// *named fault points* (e.g. "storage.scan", "csv.row"); nothing fires
/// unless a schedule is armed, and the disarmed check is one relaxed atomic
/// load, so instrumented binaries stay bit-identical and effectively free.
///
/// Schedules are armed programmatically via Arm() or from the environment
/// variable BELLWETHER_FAULTS. The spec grammar is
///
///   spec     := entry (';' entry)*
///   entry    := point ':' kind '@' trigger
///   kind     := "io" | "corrupt" | "crash"
///   trigger  := integer N   — fire on the first N arrivals at the point
///             | float p<1   — fire each arrival with probability p
///                             (deterministic, seeded per point)
///
/// Examples:
///   BELLWETHER_FAULTS="storage.scan:io@3"          first 3 record reads fail
///   BELLWETHER_FAULTS="csv.row:corrupt@0.02"       2% of CSV rows malformed
///   BELLWETHER_FAULTS="storage.scan:io@2;state.delta:crash@1"
///
/// The probabilistic trigger hashes (seed, point name, arrival index), so a
/// given seed reproduces the exact same fault schedule on every run and the
/// schedule at one point is independent of how often other points are hit.
class FaultRegistry {
 public:
  FaultRegistry() = default;
  FaultRegistry(const FaultRegistry&) = delete;
  FaultRegistry& operator=(const FaultRegistry&) = delete;

  /// Process-wide instance used by the built-in fault points. The first call
  /// arms it from BELLWETHER_FAULTS / BELLWETHER_FAULT_SEED when set.
  static FaultRegistry& Default();

  /// Replaces the armed schedule with `spec` (see grammar above). An empty
  /// spec disarms everything. Malformed specs leave the registry disarmed
  /// and return InvalidArgument naming the offending entry.
  Status Arm(std::string_view spec);

  /// Removes every armed fault point and resets arrival/fire counts.
  void Disarm();

  /// Seed of the probabilistic triggers (takes effect for later arrivals).
  void set_seed(uint64_t seed);

  /// Records an arrival at `point` and returns true when an armed schedule
  /// of the given kind fires. Disarmed registries return false without
  /// taking a lock.
  bool ShouldFire(std::string_view point, FaultKind kind);

  /// Observability for tests and post-mortems.
  int64_t arrivals(std::string_view point) const;
  int64_t fires(std::string_view point) const;
  int64_t total_fires() const;
  std::vector<std::string> ArmedPoints() const;

 private:
  struct PointSchedule {
    FaultKind kind = FaultKind::kIoError;
    int64_t fire_first_n = 0;  // count trigger; 0 = use probability
    double probability = 0.0;
    int64_t arrivals = 0;
    int64_t fires = 0;
  };

  mutable std::mutex mu_;
  std::map<std::string, PointSchedule, std::less<>> points_;
  uint64_t seed_ = 0x5EEDFA17ULL;
  std::atomic<bool> armed_{false};
};

/// Convenience wrappers around FaultRegistry::Default() used by the
/// instrumented call sites. Each mirrors fires into the
/// bellwether_fault_injections_total metric.

/// Returns an injected transient IoError when `point` (kind io) fires.
Status MaybeInjectIo(std::string_view point);

/// True when `point` (kind corrupt) fires — the caller must then treat the
/// current row/record as malformed and route it through its quarantine path.
bool ShouldCorrupt(std::string_view point);

/// True when `point` (kind crash) fires — the caller must abandon the
/// operation as if the process had been killed at that point.
bool ShouldCrash(std::string_view point);

// Canonical fault point names. Kept in one place so tests, docs, and the
// instrumented sites agree on spelling.
inline constexpr std::string_view kFaultStorageScan = "storage.scan";
inline constexpr std::string_view kFaultStorageRead = "storage.read";
inline constexpr std::string_view kFaultStorageSpill = "storage.spill";
inline constexpr std::string_view kFaultCsvRow = "csv.row";
inline constexpr std::string_view kFaultDatagenRow = "datagen.row";
inline constexpr std::string_view kFaultStateDelta = "state.delta";
inline constexpr std::string_view kFaultArtifactWrite = "artifact.write";

}  // namespace bellwether::robust

#endif  // BELLWETHER_ROBUST_FAULT_INJECTION_H_
