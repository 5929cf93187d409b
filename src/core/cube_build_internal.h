#ifndef BELLWETHER_CORE_CUBE_BUILD_INTERNAL_H_
#define BELLWETHER_CORE_CUBE_BUILD_INTERNAL_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string_view>
#include <vector>

#include "common/stopwatch.h"
#include "core/bellwether_cube.h"
#include "olap/region.h"
#include "regression/linear_model.h"
#include "storage/training_data.h"

/// Shared internals of the cube builders. The three builders (naive /
/// single-scan / optimized) and the mutable BellwetherState all produce
/// cubes through the same two phases exposed here — derive a CubeCell from
/// a per-subset Pick, then assemble cells into a BellwetherCube with its
/// telemetry and flight-recorder report — so their outputs stay
/// bit-identical by construction. The single-scan builder and the state
/// also share the one row -> containing-subset fold. Not part of the public
/// API.
namespace bellwether::core::internal {

inline constexpr double kCubeInf = std::numeric_limits<double>::infinity();

/// Best region tracked across regions for one subset. Besides the min-error
/// candidate, tracks a *fallback* candidate — the region with the most
/// examples for the subset (ties to the earliest region) — so a subset where
/// every region's error is infinite can still get a flagged degraded cell.
/// Both candidates depend only on the sequence of Offer() calls, which every
/// builder issues in ascending region order, so cube equivalence (Lemma 2 /
/// Theorem 1) is preserved.
struct Pick {
  double error = kCubeInf;
  olap::RegionId region = olap::kInvalidRegion;
  regression::RegressionSuffStats stats;
  olap::RegionId fallback_region = olap::kInvalidRegion;
  int64_t fallback_examples = -1;
  regression::RegressionSuffStats fallback_stats;

  void Offer(double err, olap::RegionId r,
             const regression::RegressionSuffStats& s) {
    if (err < error) {
      error = err;
      region = r;
      stats = s;
    }
    if (s.num_examples() > fallback_examples) {
      fallback_examples = s.num_examples();
      fallback_region = r;
      fallback_stats = s;
    }
  }
};

/// Sizes |S| of all cube subsets, counting masked items only.
std::vector<int32_t> SubsetSizes(const ItemSubsetSpace& subsets,
                                 const std::vector<uint8_t>* item_mask);

/// Significant subsets (|S| >= K), ascending SubsetId — the iceberg cube
/// query over the item table (§6.3).
std::vector<SubsetId> SignificantSubsets(const std::vector<int32_t>& sizes,
                                         int32_t min_size);

bool ItemMasked(const std::vector<uint8_t>* item_mask, int32_t item);

/// Per item, the indices into `significant` of the significant subsets
/// containing it, ascending (the containing subsets are, and `significant`
/// is); empty for a masked item.
std::vector<std::vector<int32_t>> ContainingSignificant(
    const ItemSubsetSpace& subsets, const std::vector<SubsetId>& significant,
    const std::vector<uint8_t>* item_mask);

/// Adds each row of `set`, in row order, to the statistics of every
/// significant subset containing its item: "build a model h_r on r for S"
/// for every S at once, as one row list and one AddRows per subset.
/// `containing` is ContainingSignificant's output; `stats` is indexed by
/// significant index, and `lists` is a reused buffer.
void FoldRows(const storage::RegionTrainingSet& set,
              const std::vector<std::vector<int32_t>>& containing,
              RowLists* lists,
              std::vector<regression::RegressionSuffStats>* stats);

/// Derives one cube cell from its subset's Pick: fits the min-error
/// candidate (graceful degradation), or the most-examples candidate when no
/// region had finite error. Pure with respect to build telemetry, which
/// AssembleCube recounts from the finished cells.
CubeCell BuildCubeCell(SubsetId sid, int32_t subset_size, const Pick& pick);

/// The CV step of a model-bearing cell: k-fold CV error over `set`, its
/// region's training rows, skipping masked items and items outside the
/// cell's subset. A CV that fails leaves the cell without CV stats.
void CrossValidateCell(const storage::RegionTrainingSet& set,
                       const CubeBuildConfig& config,
                       const std::vector<uint8_t>* item_mask,
                       const ItemSubsetSpace& subsets, CubeCell* cell);

/// Assembles finished cells into the final cube: subset -> cell index,
/// telemetry completion (cell counts, degradation counters recounted from
/// the cells, wall time from `build_watch`), registry metrics, and the
/// flight-recorder report named after `builder_name`. The report's logical
/// sections depend only on config and cell contents, so equal cell vectors
/// produce byte-identical LogicalJson regardless of how the cells were
/// derived (a single scan vs. delta maintenance).
Result<BellwetherCube> AssembleCube(
    std::string_view builder_name,
    std::shared_ptr<const ItemSubsetSpace> subsets,
    const CubeBuildConfig& config, std::vector<CubeCell> cells,
    CubeBuildTelemetry telemetry, const Stopwatch& build_watch);

}  // namespace bellwether::core::internal

#endif  // BELLWETHER_CORE_CUBE_BUILD_INTERNAL_H_
