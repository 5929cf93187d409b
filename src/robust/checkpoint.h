#ifndef BELLWETHER_ROBUST_CHECKPOINT_H_
#define BELLWETHER_ROBUST_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "regression/linear_model.h"

namespace bellwether::robust {

/// FNV-1a accumulator for build fingerprints: a checkpoint is only resumed
/// when the fingerprint of the current build matches the one stored with it,
/// so stale checkpoints (different subset space, config, or source) are
/// ignored instead of corrupting a build.
class FingerprintBuilder {
 public:
  FingerprintBuilder& Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ULL;
    }
    return *this;
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ULL;
};

/// Scan-time state of one cube subset's best-region pick, exactly as the
/// single-scan builder tracks it (min-error candidate plus the
/// most-examples fallback candidate).
struct PickCheckpoint {
  double error = 0.0;  // +inf when no region has produced a usable error yet
  int64_t region = -1;
  regression::RegressionSuffStats stats;
  int64_t fallback_region = -1;
  int64_t fallback_examples = -1;
  regression::RegressionSuffStats fallback_stats;
};

/// Durable mid-scan state of a cube build: after `regions_processed` region
/// training sets, the per-significant-subset picks. A build resumed from
/// this state produces output bit-identical to an uninterrupted one (values
/// are stored as raw doubles).
struct CubeBuildCheckpoint {
  uint64_t fingerprint = 0;
  int64_t regions_processed = 0;
  std::vector<PickCheckpoint> picks;
};

/// Writes the checkpoint ("bellwether-cube-checkpoint-v3", a CRC-checked
/// binary body, common/checksummed_io.h) atomically, so a crash during the
/// save never leaves a truncated checkpoint behind.
Status SaveCubeCheckpoint(const CubeBuildCheckpoint& ckpt,
                          const std::string& path);

/// Loads a checkpoint. Truncated, corrupt, or checksum-mismatched files
/// yield kIoError; a version-mismatched header yields kFailedPrecondition.
/// Callers must also verify the fingerprint before resuming.
Result<CubeBuildCheckpoint> LoadCubeCheckpoint(const std::string& path);

}  // namespace bellwether::robust

#endif  // BELLWETHER_ROBUST_CHECKPOINT_H_
