#include "core/model_io.h"

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/checksummed_io.h"
#include "core/bellwether_state.h"
#include "obs/metrics.h"
#include "robust/fault_injection.h"

namespace bellwether::core {

namespace {

constexpr const char* kTreeMagic = "bellwether-tree-v3";
constexpr const char* kCubeMagic = "bellwether-cube-v3";
constexpr const char* kStateMagic = "bellwether-state-v4";

// Smallest encodings of a tree node and a cube cell (every scalar field,
// an empty model, no children): the loaders bound their counts by these.
constexpr uint64_t kMinNodeBytes =
    4 + 1 + 8 + 1 + 8 + 8 + 8 + 4 + 1 + 8 + 4 + 8;
constexpr uint64_t kMinCellBytes =
    8 + 4 + 1 + 8 + 1 + 1 + 8 + 1 + 8 + 8 + 4 + 8;

constexpr auto kLastDegradation = regression::FitDegradation::kMeanFallback;

// The one writer of tree, cube and state files. artifact.write fires at the
// start of every body, once the temporary file holds the magic line.
Status WriteArtifact(const std::string& path, std::string_view magic,
                     const std::function<void(ChecksummedWriter&)>& body) {
  return WriteChecksummedFile(path, magic, [&](ChecksummedWriter& out) {
    BW_RETURN_IF_ERROR(robust::MaybeInjectIo(robust::kFaultArtifactWrite));
    body(out);
    return Status::OK();
  });
}

// Fields are written one by one, never as a memcpy'd struct, so padding
// never reaches the file. Flags and enum tags take one byte, range-checked
// on load; arrays take an int64 length, then the elements.
template <typename T>
void PutTag(ChecksummedWriter& out, T v) {
  out.Put(static_cast<uint8_t>(v));
}

template <typename T>
Status GetTag(ChecksummedReader& in, T max, T* v) {
  uint8_t tag = 0;
  BW_RETURN_IF_ERROR(in.Get(&tag));
  if (tag > static_cast<uint8_t>(max)) return Status::IoError("bad tag byte");
  *v = static_cast<T>(tag);
  return Status::OK();
}

template <typename Container>
void PutArray(ChecksummedWriter& out, const Container& v) {
  out.Put(static_cast<int64_t>(v.size()));
  out.PutArray(v.data(), v.size());
}

// A count of records of at least `min_bytes` each, bounded by the bytes
// left before anything is allocated for them.
Status GetCount(ChecksummedReader& in, uint64_t min_bytes, int64_t* n) {
  BW_RETURN_IF_ERROR(in.Get(n));
  if (*n < 0) return Status::IoError("negative count");
  return in.CheckFits(static_cast<uint64_t>(*n), min_bytes);
}

template <typename T>
Status GetArray(ChecksummedReader& in, std::vector<T>* v) {
  int64_t n = 0;
  BW_RETURN_IF_ERROR(GetCount(in, sizeof(T), &n));
  return in.GetVector(v, static_cast<uint64_t>(n));
}

// Every model of one tree or cube is fit on the same regional features, so
// models that differ in length mark a corrupt file. `arity` starts at -1
// and takes the first model's length.
Status GetModel(ChecksummedReader& in, bool has_model, int64_t* arity,
                regression::LinearModel* model) {
  linalg::Vector beta;
  BW_RETURN_IF_ERROR(GetArray(in, &beta));
  const auto n = static_cast<int64_t>(beta.size());
  *model = regression::LinearModel(std::move(beta));
  if (!has_model) return Status::OK();
  if (*arity >= 0 && n != *arity) {
    return Status::InvalidArgument(
        "model length " + std::to_string(n) + " differs from " +
        std::to_string(*arity) + " of an earlier model");
  }
  *arity = n;
  return Status::OK();
}

}  // namespace

Status SaveBellwetherTree(const BellwetherTree& tree,
                          const std::string& path) {
  return WriteArtifact(path, kTreeMagic, [&](ChecksummedWriter& out) {
    // Split-column names, for validation at load time.
    const ItemSplitFeatures& feats = tree.features();
    out.Put(static_cast<int64_t>(feats.num_columns()));
    for (size_t c = 0; c < feats.num_columns(); ++c) {
      PutArray(out, feats.ColumnName(c));
    }
    out.Put(static_cast<int64_t>(tree.nodes().size()));
    for (const TreeNode& n : tree.nodes()) {
      out.Put(n.num_items);
      PutTag(out, n.has_model);
      out.Put(n.region);
      PutTag(out, n.degradation);
      out.Put(n.error);
      out.Put(n.goodness);
      PutArray(out, n.model.beta());
      out.Put(n.split.column);
      PutTag(out, n.split.is_numeric);
      out.Put(n.split.threshold);
      out.Put(n.split.num_partitions);
      PutArray(out, n.children);
    }
  });
}

Result<BellwetherTree> LoadBellwetherTree(const std::string& path,
                                          const table::Table& item_table) {
  std::optional<BellwetherTree> tree;
  BW_RETURN_IF_ERROR(ReadChecksummedFile(
      path, kTreeMagic, [&](ChecksummedReader& in) -> Status {
        int64_t num_columns = 0;
        BW_RETURN_IF_ERROR(GetCount(in, sizeof(int64_t), &num_columns));
        std::vector<std::string> columns(num_columns);
        for (std::string& name : columns) {
          std::vector<char> bytes;
          BW_RETURN_IF_ERROR(GetArray(in, &bytes));
          name.assign(bytes.begin(), bytes.end());
        }
        BW_ASSIGN_OR_RETURN(std::shared_ptr<ItemSplitFeatures> feats,
                            ItemSplitFeatures::Create(item_table, columns));
        int64_t num_nodes = 0;
        BW_RETURN_IF_ERROR(GetCount(in, kMinNodeBytes, &num_nodes));
        if (num_nodes == 0) return Status::InvalidArgument("empty tree");
        std::vector<TreeNode> nodes(num_nodes);
        int64_t model_arity = -1;
        for (int64_t index = 0; index < num_nodes; ++index) {
          TreeNode& n = nodes[index];
          BW_RETURN_IF_ERROR(in.Get(&n.num_items));
          BW_RETURN_IF_ERROR(GetTag(in, true, &n.has_model));
          BW_RETURN_IF_ERROR(in.Get(&n.region));
          BW_RETURN_IF_ERROR(GetTag(in, kLastDegradation, &n.degradation));
          BW_RETURN_IF_ERROR(in.Get(&n.error));
          BW_RETURN_IF_ERROR(in.Get(&n.goodness));
          BW_RETURN_IF_ERROR(
              GetModel(in, n.has_model, &model_arity, &n.model));
          BW_RETURN_IF_ERROR(in.Get(&n.split.column));
          BW_RETURN_IF_ERROR(GetTag(in, true, &n.split.is_numeric));
          BW_RETURN_IF_ERROR(in.Get(&n.split.threshold));
          BW_RETURN_IF_ERROR(in.Get(&n.split.num_partitions));
          BW_RETURN_IF_ERROR(GetArray(in, &n.children));
          // Children follow their parent (the builders number nodes
          // breadth-first), which is what makes routing terminate. A
          // child's depth is its parent's plus one; the root's is 0.
          for (int32_t c : n.children) {
            if (c <= index || c >= num_nodes) {
              return Status::InvalidArgument(
                  "child index out of range (children follow their parent)");
            }
            nodes[c].depth = n.depth + 1;
          }
          if (n.is_leaf()) continue;
          if (n.split.column < 0 ||
              static_cast<size_t>(n.split.column) >= feats->num_columns()) {
            return Status::InvalidArgument("split column out of range");
          }
          if (n.split.is_numeric != feats->IsNumeric(n.split.column)) {
            return Status::InvalidArgument(
                "split kind disagrees with its column (numeric vs "
                "categorical)");
          }
        }
        tree.emplace(std::move(feats), std::move(nodes));
        return Status::OK();
      }));
  return std::move(*tree);
}

Status SaveBellwetherCube(const BellwetherCube& cube,
                          const std::string& path) {
  return WriteArtifact(path, kCubeMagic, [&](ChecksummedWriter& out) {
    out.Put(cube.subsets().NumSubsets());
    out.Put(static_cast<int64_t>(cube.cells().size()));
    for (const CubeCell& cell : cube.cells()) {
      out.Put(cell.subset);
      out.Put(cell.subset_size);
      PutTag(out, cell.has_model);
      out.Put(cell.region);
      PutTag(out, cell.degradation);
      PutTag(out, cell.fallback_pick);
      out.Put(cell.error);
      PutTag(out, cell.has_cv);
      out.Put(cell.cv.rmse);
      out.Put(cell.cv.stddev);
      out.Put(cell.cv.num_folds);
      PutArray(out, cell.model.beta());
    }
  });
}

Result<BellwetherCube> LoadBellwetherCube(
    const std::string& path,
    std::shared_ptr<const ItemSubsetSpace> subsets) {
  std::optional<BellwetherCube> cube;
  BW_RETURN_IF_ERROR(ReadChecksummedFile(
      path, kCubeMagic, [&](ChecksummedReader& in) -> Status {
        // After the magic line, so a file of another kind or version is
        // still told apart without a subset space.
        if (subsets == nullptr) {
          return Status::InvalidArgument("null item subset space");
        }
        int64_t num_subsets = 0;
        BW_RETURN_IF_ERROR(in.Get(&num_subsets));
        if (num_subsets != subsets->NumSubsets()) {
          return Status::InvalidArgument(
              "cube was saved against a different subset space");
        }
        int64_t num_cells = 0;
        BW_RETURN_IF_ERROR(GetCount(in, kMinCellBytes, &num_cells));
        std::vector<int64_t> cell_of(num_subsets, -1);
        std::vector<CubeCell> cells(num_cells);
        int64_t model_arity = -1;
        SubsetId prev_subset = -1;
        for (int64_t k = 0; k < num_cells; ++k) {
          CubeCell& cell = cells[k];
          BW_RETURN_IF_ERROR(in.Get(&cell.subset));
          BW_RETURN_IF_ERROR(in.Get(&cell.subset_size));
          BW_RETURN_IF_ERROR(GetTag(in, true, &cell.has_model));
          BW_RETURN_IF_ERROR(in.Get(&cell.region));
          BW_RETURN_IF_ERROR(GetTag(in, kLastDegradation, &cell.degradation));
          BW_RETURN_IF_ERROR(GetTag(in, true, &cell.fallback_pick));
          BW_RETURN_IF_ERROR(in.Get(&cell.error));
          BW_RETURN_IF_ERROR(GetTag(in, true, &cell.has_cv));
          BW_RETURN_IF_ERROR(in.Get(&cell.cv.rmse));
          BW_RETURN_IF_ERROR(in.Get(&cell.cv.stddev));
          BW_RETURN_IF_ERROR(in.Get(&cell.cv.num_folds));
          BW_RETURN_IF_ERROR(
              GetModel(in, cell.has_model, &model_arity, &cell.model));
          // One cell per subset, in ascending subset order, as every
          // builder emits them: a second cell for one subset would hide
          // from prediction yet still show in CrossTab.
          if (cell.subset <= prev_subset || cell.subset >= num_subsets) {
            return Status::InvalidArgument(
                "cell subset out of range or out of ascending order");
          }
          prev_subset = cell.subset;
          cell_of[cell.subset] = k;
        }
        cube.emplace(std::move(subsets), std::move(cell_of), std::move(cells));
        return Status::OK();
      }));
  return std::move(*cube);
}

Status SaveBellwetherState(const BellwetherState& state,
                           const std::string& path) {
  BW_RETURN_IF_ERROR(WriteArtifact(
      path, kStateMagic,
      [&](ChecksummedWriter& out) { state.SerializeTo(out); }));
  obs::DefaultMetrics().GetCounter(obs::kMStateSaves)->Increment(1);
  return Status::OK();
}

Result<std::unique_ptr<BellwetherState>> LoadBellwetherState(
    const std::string& path, std::shared_ptr<const ItemSubsetSpace> subsets) {
  std::unique_ptr<BellwetherState> state;
  BW_RETURN_IF_ERROR(ReadChecksummedFile(
      path, kStateMagic, [&](ChecksummedReader& in) -> Status {
        BW_ASSIGN_OR_RETURN(
            state, BellwetherState::DeserializeFrom(in, std::move(subsets)));
        return Status::OK();
      }));
  obs::DefaultMetrics().GetCounter(obs::kMStateOpens)->Increment(1);
  return state;
}

}  // namespace bellwether::core
