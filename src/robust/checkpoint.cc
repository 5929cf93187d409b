#include "robust/checkpoint.h"

#include "common/checksummed_io.h"
#include "regression/suff_stats_io.h"
#include "robust/fault_injection.h"

namespace bellwether::robust {

namespace {

// v3: a binary body with a CRC-32C trailer (common/checksummed_io.h) on the
// state file's suff-stats codec. Older checkpoints are simply stale
// (kFailedPrecondition on load) and the build restarts from scratch, which
// checkpointing is designed to survive anyway.
constexpr const char* kMagic = "bellwether-cube-checkpoint-v3";

// Smallest encoding of one pick: error, three int64 fields, and two
// arity-0 statistics (int32 p, int64 n, two doubles each).
constexpr uint64_t kMinPickBytes = 4 * 8 + 2 * (4 + 3 * 8);

}  // namespace

Status SaveCubeCheckpoint(const CubeBuildCheckpoint& ckpt,
                          const std::string& path) {
  return WriteChecksummedFile(
      path, kMagic, [&](ChecksummedWriter& out) -> Status {
        out.Put(ckpt.fingerprint);
        out.Put(ckpt.regions_processed);
        out.Put(static_cast<int64_t>(ckpt.picks.size()));
        // Injected failure partway through the body: the save must keep
        // the previous checkpoint (common/atomic_file.h).
        BW_RETURN_IF_ERROR(MaybeInjectIo(kFaultArtifactWrite));
        for (const PickCheckpoint& pk : ckpt.picks) {
          out.Put(pk.error);
          out.Put(pk.region);
          out.Put(pk.fallback_region);
          out.Put(pk.fallback_examples);
          regression::WriteSuffStats(out, pk.stats);
          regression::WriteSuffStats(out, pk.fallback_stats);
        }
        return Status::OK();
      });
}

Result<CubeBuildCheckpoint> LoadCubeCheckpoint(const std::string& path) {
  CubeBuildCheckpoint ckpt;
  BW_RETURN_IF_ERROR(ReadChecksummedFile(
      path, kMagic, [&](ChecksummedReader& in) -> Status {
        int64_t num_picks = 0;
        BW_RETURN_IF_ERROR(in.Get(&ckpt.fingerprint));
        BW_RETURN_IF_ERROR(in.Get(&ckpt.regions_processed));
        BW_RETURN_IF_ERROR(in.Get(&num_picks));
        if (ckpt.regions_processed < 0 || num_picks < 0) {
          return Status::IoError("corrupt checkpoint header");
        }
        BW_RETURN_IF_ERROR(
            in.CheckFits(static_cast<uint64_t>(num_picks), kMinPickBytes));
        ckpt.picks.resize(static_cast<size_t>(num_picks));
        for (PickCheckpoint& pk : ckpt.picks) {
          BW_RETURN_IF_ERROR(in.Get(&pk.error));
          BW_RETURN_IF_ERROR(in.Get(&pk.region));
          BW_RETURN_IF_ERROR(in.Get(&pk.fallback_region));
          BW_RETURN_IF_ERROR(in.Get(&pk.fallback_examples));
          BW_ASSIGN_OR_RETURN(pk.stats, regression::ReadSuffStats(in));
          BW_ASSIGN_OR_RETURN(pk.fallback_stats,
                              regression::ReadSuffStats(in));
        }
        return Status::OK();
      }));
  return ckpt;
}

}  // namespace bellwether::robust
