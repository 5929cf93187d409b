#include "core/model_io.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "common/atomic_file.h"
#include "common/checksummed_io.h"
#include "core/bellwether_state.h"
#include "obs/metrics.h"

namespace bellwether::core {

namespace {

constexpr const char* kTreeMagic = "bellwether-tree-v2";
constexpr const char* kCubeMagic = "bellwether-cube-v2";
constexpr const char* kStateMagic = "bellwether-state-v4";

// Sanity bound on serialized counts (vector lengths, node/cell counts): a
// corrupt or hostile length field must fail cleanly, not turn into a
// multi-gigabyte allocation.
constexpr int64_t kMaxCount = int64_t{1} << 26;

// Doubles round-trip exactly through %.17g. "inf"/"-inf"/"nan" occur in
// legitimate files (degraded cube cells carry error = +inf), and istream's
// operator>> rejects them (LWG 2381), so reads go through strtod.
void WriteDouble(std::ostream& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out << buf;
}

Status ReadDouble(std::istream& in, double* v) {
  std::string tok;
  if (!(in >> tok)) return Status::IoError("truncated value (double)");
  errno = 0;
  char* end = nullptr;
  *v = std::strtod(tok.c_str(), &end);
  if (end == tok.c_str() || *end != '\0') {
    return Status::IoError("bad double: '" + tok + "'");
  }
  return Status::OK();
}

void WriteVector(std::ostream& out, const std::vector<double>& v) {
  out << v.size();
  for (double x : v) {
    out << ' ';
    WriteDouble(out, x);
  }
  out << '\n';
}

Result<std::vector<double>> ReadVector(std::istream& in) {
  int64_t n = 0;
  if (!(in >> n)) return Status::IoError("expected vector length");
  if (n < 0 || n > kMaxCount) {
    return Status::IoError("implausible vector length");
  }
  std::vector<double> v(n);
  for (int64_t i = 0; i < n; ++i) {
    BW_RETURN_IF_ERROR(ReadDouble(in, &v[i]));
  }
  return v;
}

Result<regression::FitDegradation> ReadDegradation(std::istream& in) {
  int d = 0;
  if (!(in >> d)) return Status::IoError("truncated degradation tag");
  if (d < 0 || d > static_cast<int>(regression::FitDegradation::kMeanFallback)) {
    return Status::IoError("unknown degradation tag");
  }
  return static_cast<regression::FitDegradation>(d);
}

// Every model of one tree or cube is fit on the same regional features, so
// models that differ in length mark a corrupt file. `arity` starts at -1
// and takes the first model's length.
Status CheckModelArity(const regression::LinearModel& model, int64_t* arity) {
  const auto n = static_cast<int64_t>(model.num_features());
  if (*arity < 0) *arity = n;
  if (n != *arity) {
    return Status::InvalidArgument(
        "model length " + std::to_string(n) + " differs from " +
        std::to_string(*arity) + " of an earlier model");
  }
  return Status::OK();
}

}  // namespace

Status SaveBellwetherTree(const BellwetherTree& tree,
                          const std::string& path) {
  return WriteFileAtomically(path, [&](std::ostream& out) -> Status {
    out << kTreeMagic << '\n';
    // Split-column names, for validation at load time.
    const ItemSplitFeatures& feats = tree.features();
    out << feats.num_columns() << '\n';
    for (size_t c = 0; c < feats.num_columns(); ++c) {
      out << feats.ColumnName(c) << '\n';
    }
    out << tree.nodes().size() << '\n';
    for (const TreeNode& n : tree.nodes()) {
      out << n.depth << ' ' << n.num_items << ' ' << (n.has_model ? 1 : 0)
          << ' ' << n.region << ' ' << static_cast<int>(n.degradation) << ' ';
      WriteDouble(out, n.error);
      out << ' ';
      WriteDouble(out, n.goodness);
      out << '\n';
      WriteVector(out, n.model.beta());
      // Split: column is_numeric threshold num_partitions, then children.
      out << n.split.column << ' ' << (n.split.is_numeric ? 1 : 0) << ' ';
      WriteDouble(out, n.split.threshold);
      out << ' ' << n.split.num_partitions << '\n';
      out << n.children.size();
      for (int32_t c : n.children) out << ' ' << c;
      out << '\n';
    }
    return Status::OK();
  });
}

Result<BellwetherTree> LoadBellwetherTree(const std::string& path,
                                          const table::Table& item_table) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot read " + path);
  BW_RETURN_IF_ERROR(CheckMagicLine(in, kTreeMagic, path));
  int64_t num_columns = 0;
  if (!(in >> num_columns) || num_columns < 0 || num_columns > kMaxCount) {
    return Status::IoError("missing or implausible column count");
  }
  in.ignore();
  std::vector<std::string> columns(num_columns);
  for (auto& c : columns) {
    if (!std::getline(in, c)) return Status::IoError("missing column name");
  }
  BW_ASSIGN_OR_RETURN(std::shared_ptr<ItemSplitFeatures> feats,
                      ItemSplitFeatures::Create(item_table, columns));
  int64_t num_nodes = 0;
  if (!(in >> num_nodes) || num_nodes < 0 || num_nodes > kMaxCount) {
    return Status::IoError("missing or implausible node count");
  }
  std::vector<TreeNode> nodes(num_nodes);
  int64_t model_arity = -1;
  for (int64_t index = 0; index < num_nodes; ++index) {
    TreeNode& n = nodes[index];
    int has_model = 0, is_numeric = 0;
    int64_t region = 0;
    if (!(in >> n.depth >> n.num_items >> has_model >> region)) {
      return Status::IoError("truncated node header");
    }
    BW_ASSIGN_OR_RETURN(n.degradation, ReadDegradation(in));
    BW_RETURN_IF_ERROR(ReadDouble(in, &n.error));
    BW_RETURN_IF_ERROR(ReadDouble(in, &n.goodness));
    n.has_model = has_model != 0;
    n.region = region;
    BW_ASSIGN_OR_RETURN(std::vector<double> beta, ReadVector(in));
    n.model = regression::LinearModel(std::move(beta));
    if (n.has_model) {
      BW_RETURN_IF_ERROR(CheckModelArity(n.model, &model_arity));
    }
    if (!(in >> n.split.column >> is_numeric)) {
      return Status::IoError("truncated split");
    }
    BW_RETURN_IF_ERROR(ReadDouble(in, &n.split.threshold));
    if (!(in >> n.split.num_partitions)) {
      return Status::IoError("truncated split");
    }
    n.split.is_numeric = is_numeric != 0;
    int64_t num_children = 0;
    if (!(in >> num_children) || num_children < 0 ||
        num_children > kMaxCount) {
      return Status::IoError("missing or implausible children count");
    }
    n.children.resize(num_children);
    for (auto& c : n.children) {
      if (!(in >> c)) return Status::IoError("truncated children");
      if (c <= index || c >= num_nodes) {
        return Status::InvalidArgument(
            "child index out of range (children follow their parent)");
      }
    }
    if (n.is_leaf()) continue;
    if (n.split.column < 0 ||
        static_cast<size_t>(n.split.column) >= feats->num_columns()) {
      return Status::InvalidArgument("split column out of range");
    }
    if (n.split.is_numeric != feats->IsNumeric(n.split.column)) {
      return Status::InvalidArgument(
          "split kind disagrees with its column (numeric vs categorical)");
    }
  }
  if (nodes.empty()) return Status::InvalidArgument("empty tree");
  return BellwetherTree(std::move(feats), std::move(nodes));
}

Status SaveBellwetherCube(const BellwetherCube& cube,
                          const std::string& path) {
  return WriteFileAtomically(path, [&](std::ostream& out) -> Status {
    out << kCubeMagic << '\n';
    out << cube.subsets().NumSubsets() << ' ' << cube.cells().size() << '\n';
    for (const CubeCell& cell : cube.cells()) {
      out << cell.subset << ' ' << cell.subset_size << ' '
          << (cell.has_model ? 1 : 0) << ' ' << cell.region << ' '
          << static_cast<int>(cell.degradation) << ' '
          << (cell.fallback_pick ? 1 : 0) << ' ';
      WriteDouble(out, cell.error);
      out << ' ' << (cell.has_cv ? 1 : 0) << ' ';
      WriteDouble(out, cell.cv.rmse);
      out << ' ';
      WriteDouble(out, cell.cv.stddev);
      out << ' ' << cell.cv.num_folds << '\n';
      WriteVector(out, cell.model.beta());
    }
    return Status::OK();
  });
}

Result<BellwetherCube> LoadBellwetherCube(
    const std::string& path,
    std::shared_ptr<const ItemSubsetSpace> subsets) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot read " + path);
  BW_RETURN_IF_ERROR(CheckMagicLine(in, kCubeMagic, path));
  int64_t num_subsets = 0;
  int64_t num_cells = 0;
  if (!(in >> num_subsets >> num_cells)) {
    return Status::IoError("missing cube header");
  }
  if (num_cells < 0 || num_cells > kMaxCount) {
    return Status::IoError("implausible cube cell count");
  }
  if (num_subsets != subsets->NumSubsets()) {
    return Status::InvalidArgument(
        "cube was saved against a different subset space");
  }
  std::vector<int64_t> cell_of(num_subsets, -1);
  std::vector<CubeCell> cells(num_cells);
  int64_t model_arity = -1;
  for (int64_t k = 0; k < num_cells; ++k) {
    CubeCell& cell = cells[k];
    int has_model = 0, has_cv = 0, fallback_pick = 0;
    int64_t subset = 0, region = 0;
    if (!(in >> subset >> cell.subset_size >> has_model >> region)) {
      return Status::IoError("truncated cube cell");
    }
    BW_ASSIGN_OR_RETURN(cell.degradation, ReadDegradation(in));
    if (!(in >> fallback_pick)) {
      return Status::IoError("truncated cube cell");
    }
    BW_RETURN_IF_ERROR(ReadDouble(in, &cell.error));
    if (!(in >> has_cv)) return Status::IoError("truncated cube cell");
    BW_RETURN_IF_ERROR(ReadDouble(in, &cell.cv.rmse));
    BW_RETURN_IF_ERROR(ReadDouble(in, &cell.cv.stddev));
    if (!(in >> cell.cv.num_folds)) {
      return Status::IoError("truncated cube cell");
    }
    if (subset < 0 || subset >= num_subsets) {
      return Status::InvalidArgument("cell subset out of range");
    }
    cell.subset = subset;
    cell.region = region;
    cell.has_model = has_model != 0;
    cell.has_cv = has_cv != 0;
    cell.fallback_pick = fallback_pick != 0;
    BW_ASSIGN_OR_RETURN(std::vector<double> beta, ReadVector(in));
    cell.model = regression::LinearModel(std::move(beta));
    if (cell.has_model) {
      BW_RETURN_IF_ERROR(CheckModelArity(cell.model, &model_arity));
    }
    cell_of[subset] = k;
  }
  return BellwetherCube(std::move(subsets), std::move(cell_of),
                        std::move(cells));
}

Status SaveBellwetherState(const BellwetherState& state,
                           const std::string& path) {
  BW_RETURN_IF_ERROR(WriteChecksummedFile(
      path, kStateMagic,
      [&](ChecksummedWriter& out) { return state.SerializeTo(out); }));
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
