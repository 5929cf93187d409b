#include "checks.h"

#include <cstdio>
#include <cstring>

#include "core/model_io.h"

namespace perfbench {

namespace bw = bellwether;
using bw::Status;

std::string ReadFileBytes(const std::string& path) {
  std::string out;
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    char buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
    std::fclose(f);
  }
  return out;
}

bw::Result<std::string> TreeBytes(const bw::core::BellwetherTree& tree,
                                  const std::string& scratch) {
  BW_RETURN_IF_ERROR(bw::core::SaveBellwetherTree(tree, scratch));
  std::string bytes = ReadFileBytes(scratch);
  std::remove(scratch.c_str());
  return bytes;
}

bw::Result<std::string> CubeBytes(const bw::core::BellwetherCube& cube,
                                  const std::string& scratch) {
  BW_RETURN_IF_ERROR(bw::core::SaveBellwetherCube(cube, scratch));
  std::string bytes = ReadFileBytes(scratch);
  std::remove(scratch.c_str());
  return bytes;
}

std::string SearchDigest(const bw::core::BasicSearchResult& search) {
  std::string out;
  char buf[128];
  std::snprintf(buf, sizeof(buf), "pick=%lld rmse=%.17g scores=%zu\n",
                static_cast<long long>(search.bellwether), search.error.rmse,
                search.scores.size());
  out += buf;
  for (const auto& s : search.scores) {
    std::snprintf(buf, sizeof(buf), "%lld %d %zu %.17g\n",
                  static_cast<long long>(s.region), s.usable ? 1 : 0,
                  s.num_examples, s.error.rmse);
    out += buf;
  }
  for (double b : search.model.beta()) {
    std::snprintf(buf, sizeof(buf), "%.17g ", b);
    out += buf;
  }
  return out;
}

Status CheckSame(const std::string& what, const std::string& expected,
                 const std::string& actual) {
  if (expected == actual) return Status::OK();
  size_t at = 0;
  while (at < expected.size() && at < actual.size() &&
         expected[at] == actual[at]) {
    ++at;
  }
  return Status::Internal(what + " differs (" +
                          std::to_string(expected.size()) + " vs " +
                          std::to_string(actual.size()) +
                          " bytes, first difference at byte " +
                          std::to_string(at) + ")");
}

Status CheckPredictionsEqual(const std::string& what,
                             const std::vector<Prediction>& a,
                             const std::vector<Prediction>& b) {
  if (a.size() != b.size()) {
    return Status::Internal(what + ": prediction counts differ");
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].code != b[i].code ||
        std::memcmp(&a[i].value, &b[i].value, sizeof(double)) != 0) {
      return Status::Internal(what + ": prediction " + std::to_string(i) +
                              " differs");
    }
  }
  return Status::OK();
}

Status CheckTreePasses(const std::string& what,
                       const bw::core::BellwetherTree& tree, int64_t scans) {
  if (scans == tree.NumLevels()) return Status::OK();
  return Status::Internal(what + ": " + std::to_string(scans) +
                          " scans for " + std::to_string(tree.NumLevels()) +
                          " levels (Lemma 1 wants one per level)");
}

Status CheckCubePasses(const std::string& what, int64_t scans) {
  if (scans == 1) return Status::OK();
  return Status::Internal(what + ": " + std::to_string(scans) +
                          " scans (Lemma 2 wants one)");
}

Status CheckPickLocation(const bw::core::BasicSearchResult& search,
                         const bw::olap::RegionSpace& space,
                         int32_t location_dim, bw::olap::NodeId location_node) {
  if (!search.found()) return Status::Internal("search found no bellwether");
  const auto coords = space.Decode(search.bellwether);
  if (coords[location_dim] == location_node) return Status::OK();
  return Status::Internal("search picked " +
                          space.RegionLabel(search.bellwether) +
                          ", not the planted state");
}

Status CheckShape(const std::map<std::string, int64_t>& expected,
                  const std::map<std::string, int64_t>& actual) {
  for (const auto& [name, value] : expected) {
    auto it = actual.find(name);
    if (it == actual.end()) {
      return Status::Internal("shape count " + name + " was not measured");
    }
    if (it->second != value) {
      return Status::Internal("shape count " + name + " is " +
                              std::to_string(it->second) + ", expected " +
                              std::to_string(value) +
                              " for every seed");
    }
  }
  return Status::OK();
}

}  // namespace perfbench
