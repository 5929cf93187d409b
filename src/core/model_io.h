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
/// run in separate processes. Trees and cubes use a line-oriented text
/// format: human-inspectable, versioned, and stable across platforms.
/// The incremental state, which holds every retained row, uses a
/// CRC-checked binary body instead (common/checksummed_io.h). Every writer
/// replaces its file atomically (common/atomic_file.h).

/// ---- Bellwether trees ----

/// Writes the full tree: structure, splits, per-node bellwether payloads,
/// and the split-feature dictionary (so routing works after loading against
/// the same item table).
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
/// recreated from the same item table and hierarchies. Model-bearing cells
/// whose models differ in length are kInvalidArgument.
Result<BellwetherCube> LoadBellwetherCube(
    const std::string& path,
    std::shared_ptr<const ItemSubsetSpace> subsets);

/// ---- Bellwether state (incremental maintenance) ----

class BellwetherState;

/// Writes an open incremental BellwetherState ("bellwether-state-v4":
/// packed-triangle sufficient statistics plus retained per-region rows, as
/// raw doubles under a CRC-32C trailer) atomically, so a crash mid-save
/// never clobbers the previous good state. Counts
/// bellwether_state_saves_total.
Status SaveBellwetherState(const BellwetherState& state,
                           const std::string& path);

/// Reopens a state saved by SaveBellwetherState against the recreated
/// subset space. The stored fingerprint must match the one recomputed from
/// the space, config, and mask (kFailedPrecondition otherwise); a
/// truncated or corrupt file, including a checksum mismatch, is kIoError.
/// Counts bellwether_state_opens_total.
Result<std::unique_ptr<BellwetherState>> LoadBellwetherState(
    const std::string& path, std::shared_ptr<const ItemSubsetSpace> subsets);

}  // namespace bellwether::core

#endif  // BELLWETHER_CORE_MODEL_IO_H_
