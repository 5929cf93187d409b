#include "obs/export.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <ostream>

#include "common/atomic_file.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace bellwether::obs {

std::string DeriveTracePath(const std::string& metrics_path) {
  const std::string suffix = ".json";
  if (metrics_path.size() > suffix.size() &&
      metrics_path.compare(metrics_path.size() - suffix.size(), suffix.size(),
                           suffix) == 0) {
    return metrics_path.substr(0, metrics_path.size() - suffix.size()) +
           ".trace.json";
  }
  return metrics_path + ".trace.json";
}

Status WriteTextFile(const std::string& path, const std::string& content) {
  return WriteFileAtomically(path, [&](std::ostream& out) {
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
    return Status::OK();
  });
}

Result<std::string> ReadTextFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  std::string out;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) return Status::IoError("read error on " + path);
  return out;
}

Status DumpDefaultTelemetry(const std::string& metrics_path,
                            const std::string& trace_path) {
  RegisterStandardMetrics(&DefaultMetrics());
  BW_RETURN_IF_ERROR(
      WriteTextFile(metrics_path, DefaultMetrics().ToJson()));
  const std::string tp =
      trace_path.empty() ? DeriveTracePath(metrics_path) : trace_path;
  return WriteTextFile(tp, DefaultTrace().ToChromeTraceJson());
}

}  // namespace bellwether::obs
