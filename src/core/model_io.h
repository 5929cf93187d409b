#ifndef BELLWETHER_CORE_MODEL_IO_H_
#define BELLWETHER_CORE_MODEL_IO_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "core/bellwether_cube.h"
#include "core/bellwether_tree.h"

namespace bellwether::core {

/// Serialization of fitted bellwether artifacts, so analysis (expensive,
/// over the historical warehouse) and prediction (cheap, per new item) can
/// run in separate processes. Trees, cubes and the incremental state share
/// the checksummed framing of common/checksummed_io.h and are replaced
/// atomically. A loader returns what was saved or fails: kIoError for a
/// truncated or corrupt file, kFailedPrecondition for another kind or
/// version. Inspect a saved artifact through its loader
/// (BellwetherTree::ToString, BellwetherCube::CrossTab, cube_explorer).

/// ---- Bellwether trees ----

/// Writes the full tree: structure, splits, per-node bellwether payloads,
/// and the split-feature dictionary (so routing works after loading against
/// the same item table). Node depths are not stored; the loader derives
/// them from the child links.
Status SaveBellwetherTree(const BellwetherTree& tree,
                          const std::string& path);

/// Loads a tree saved by SaveBellwetherTree. Routing requires the same item
/// table the tree was built against; pass it to rebuild the split-feature
/// view. A tree that could not route is kInvalidArgument: a child index not
/// greater than its parent's (the builders number nodes breadth-first, which
/// is what makes routing terminate), a split column that is out of range
/// or of the other kind (numeric vs categorical), or model-bearing nodes
/// whose models differ in length.
Result<BellwetherTree> LoadBellwetherTree(
    const std::string& path, const table::Table& item_table);

/// ---- Bellwether cubes ----

/// Writes every cell of the cube (subset, region, error, model, CV stats).
Status SaveBellwetherCube(const BellwetherCube& cube,
                          const std::string& path);

/// Loads a cube saved by SaveBellwetherCube. The subset space must be
/// recreated from the same item table and hierarchies. kInvalidArgument for
/// a null subset space, a subset space of another size, cells that are not
/// in strictly ascending subset order (one per subset, as every builder
/// emits them), or model-bearing cells whose models differ in length.
Result<BellwetherCube> LoadBellwetherCube(
    const std::string& path,
    std::shared_ptr<const ItemSubsetSpace> subsets);

/// ---- Bellwether state (incremental maintenance) ----

class BellwetherState;

/// Writes an open incremental BellwetherState ("bellwether-state-v4":
/// packed-triangle sufficient statistics plus retained per-region rows).
/// Counts bellwether_state_saves_total.
Status SaveBellwetherState(const BellwetherState& state,
                           const std::string& path);

/// Reopens a state saved by SaveBellwetherState against the recreated
/// subset space. The stored fingerprint must match the one recomputed from
/// the space, config, and mask (kFailedPrecondition otherwise). Counts
/// bellwether_state_opens_total.
Result<std::unique_ptr<BellwetherState>> LoadBellwetherState(
    const std::string& path, std::shared_ptr<const ItemSubsetSpace> subsets);

}  // namespace bellwether::core

#endif  // BELLWETHER_CORE_MODEL_IO_H_
