#ifndef BELLWETHER_OBS_EXPORT_H_
#define BELLWETHER_OBS_EXPORT_H_

#include <string>

#include "common/status.h"

namespace bellwether::obs {

/// "out/metrics.json" -> "out/metrics.trace.json" (a missing ".json"
/// suffix just appends ".trace.json").
std::string DeriveTracePath(const std::string& metrics_path);

/// Writes the default registry's JSON to `metrics_path` and the default
/// trace's Chrome trace JSON to `trace_path` (derived from `metrics_path`
/// when empty). Ensures the canonical metric set is registered first, so
/// the JSON always carries the standard scan/prune counters even when a
/// code path did not run.
Status DumpDefaultTelemetry(const std::string& metrics_path,
                            const std::string& trace_path = "");

/// Replaces `path` with `content`, atomically (common/atomic_file.h).
Status WriteTextFile(const std::string& path, const std::string& content);

/// Reads `path` in full (benchdiff loads run reports with this).
Result<std::string> ReadTextFile(const std::string& path);

}  // namespace bellwether::obs

#endif  // BELLWETHER_OBS_EXPORT_H_
