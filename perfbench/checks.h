#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

// Output checks. Each compares one path's output with another path's (or
// with the first repetition's), never with golden values, and returns a
// non-OK status naming what differs.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/basic_search.h"
#include "core/bellwether_cube.h"
#include "core/bellwether_tree.h"
#include "olap/region.h"

namespace perfbench {

/// Reads a whole file; empty when it cannot be read.
std::string ReadFileBytes(const std::string& path);

/// Saved artifact bytes: what the determinism tests compare.
/// `scratch` is a path the artifact is written to and removed from.
bellwether::Result<std::string> TreeBytes(
    const bellwether::core::BellwetherTree& tree, const std::string& scratch);
bellwether::Result<std::string> CubeBytes(
    const bellwether::core::BellwetherCube& cube, const std::string& scratch);

/// Everything a search reports about its pick and every region's score,
/// printed with all digits, so two searches compare by string equality.
std::string SearchDigest(const bellwether::core::BasicSearchResult& search);

/// Fails unless `actual` equals `expected`.
bellwether::Status CheckSame(const std::string& what,
                             const std::string& expected,
                             const std::string& actual);

/// One prediction: the status code and, when OK, the value.
struct Prediction {
  bellwether::StatusCode code = bellwether::StatusCode::kOk;
  double value = 0.0;
};
/// Fails unless both prediction lists agree bit for bit.
bellwether::Status CheckPredictionsEqual(const std::string& what,
                                         const std::vector<Prediction>& a,
                                         const std::vector<Prediction>& b);

/// Lemma 1: the RainForest builder makes one pass per tree level. `scans`
/// is the number of Scan calls the build made on its source.
bellwether::Status CheckTreePasses(
    const std::string& what, const bellwether::core::BellwetherTree& tree,
    int64_t scans);
/// Lemma 2: a scan-based cube build makes exactly one Scan of its source.
bellwether::Status CheckCubePasses(const std::string& what, int64_t scans);

/// The search must pick a region whose location coordinate is
/// `location_node` (the planted bellwether state).
bellwether::Status CheckPickLocation(
    const bellwether::core::BasicSearchResult& search,
    const bellwether::olap::RegionSpace& space, int32_t location_dim,
    bellwether::olap::NodeId location_node);

/// Fails unless every expected shape count is present with the same value.
bellwether::Status CheckShape(const std::map<std::string, int64_t>& expected,
                              const std::map<std::string, int64_t>& actual);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
