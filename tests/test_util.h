#ifndef BELLWETHER_TESTS_TEST_UTIL_H_
#define BELLWETHER_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstddef>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/bellwether_cube.h"
#include "core/bellwether_tree.h"
#include "core/spec.h"
#include "robust/fault_injection.h"
#include "storage/training_data.h"
#include "table/table.h"

namespace bellwether {

/// A scratch path under ::testing::TempDir() unique to the running test and
/// process: "<suite>.<test>.<pid>.<name>". `ctest -j` runs test cases as
/// concurrent processes, so fixed names let one case clobber another's
/// files.
inline std::string TestTempPath(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string id = info == nullptr ? std::string("global")
                                   : std::string(info->test_suite_name()) +
                                         "." + info->name();
  // Parameterized suites and cases carry '/' and spaces in their names.
  for (char& c : id) {
    if (c == '/' || c == ' ' || c == ',' || c == '(' || c == ')') c = '_';
  }
  std::string dir = ::testing::TempDir();
  if (!dir.empty() && dir.back() != '/') dir += '/';
  return dir + id + "." + std::to_string(getpid()) + "." + name;
}

/// Arms the default fault registry with `spec` for the enclosing scope.
class ScopedFaults {
 public:
  explicit ScopedFaults(const std::string& spec) {
    robust::FaultRegistry::Default().Disarm();
    const Status st = robust::FaultRegistry::Default().Arm(spec);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  ~ScopedFaults() { robust::FaultRegistry::Default().Disarm(); }
  ScopedFaults(const ScopedFaults&) = delete;
  ScopedFaults& operator=(const ScopedFaults&) = delete;
};

/// Rows [lo, hi) of `set`, as a set of the same region.
inline storage::RegionTrainingSet SliceRows(
    const storage::RegionTrainingSet& set, size_t lo, size_t hi) {
  storage::RegionTrainingSet out;
  out.region = set.region;
  out.num_features = set.num_features;
  const size_t p = static_cast<size_t>(set.num_features);
  out.items.assign(set.items.begin() + lo, set.items.begin() + hi);
  out.features.assign(set.features.begin() + lo * p,
                      set.features.begin() + hi * p);
  out.targets.assign(set.targets.begin() + lo, set.targets.begin() + hi);
  if (set.weighted()) {
    out.weights.assign(set.weights.begin() + lo, set.weights.begin() + hi);
  }
  return out;
}

namespace core {

/// Lemma 1's equality: node for node, the same shape, bellwether regions,
/// errors, splits and goodness.
inline void ExpectTreesEqual(const BellwetherTree& a, const BellwetherTree& b) {
  ASSERT_EQ(a.nodes().size(), b.nodes().size());
  for (size_t i = 0; i < a.nodes().size(); ++i) {
    const TreeNode& na = a.nodes()[i];
    const TreeNode& nb = b.nodes()[i];
    EXPECT_EQ(na.depth, nb.depth) << "node " << i;
    EXPECT_EQ(na.num_items, nb.num_items) << "node " << i;
    EXPECT_EQ(na.has_model, nb.has_model) << "node " << i;
    EXPECT_EQ(na.region, nb.region) << "node " << i;
    if (na.has_model) {
      EXPECT_DOUBLE_EQ(na.error, nb.error) << "node " << i;
    }
    EXPECT_EQ(na.children, nb.children) << "node " << i;
    if (!na.is_leaf()) {
      EXPECT_EQ(na.split.column, nb.split.column) << "node " << i;
      EXPECT_EQ(na.split.is_numeric, nb.split.is_numeric) << "node " << i;
      EXPECT_DOUBLE_EQ(na.split.threshold, nb.split.threshold)
          << "node " << i;
      EXPECT_DOUBLE_EQ(na.goodness, nb.goodness) << "node " << i;
    }
  }
}

/// A cube over `subsets` made of `cells`. Tests edit a copy of a cube's
/// cells() and build a new cube from it, since a cube compiles its
/// prediction path when it is constructed.
inline BellwetherCube CubeWithCells(
    std::shared_ptr<const ItemSubsetSpace> subsets,
    std::vector<CubeCell> cells) {
  std::vector<int64_t> cell_of(subsets->NumSubsets(), -1);
  for (size_t i = 0; i < cells.size(); ++i) {
    cell_of[cells[i].subset] = static_cast<int64_t>(i);
  }
  return BellwetherCube(std::move(subsets), std::move(cell_of),
                        std::move(cells));
}

/// A copy of `t` with column `name` retyped to `type`: values widen to
/// double, or render as text for kString.
inline table::Table RetypeColumn(const table::Table& t,
                                 const std::string& name,
                                 table::DataType type) {
  std::vector<table::Field> fields = t.schema().fields();
  const size_t col = t.schema().FieldIndexOrDie(name);
  fields[col].type = type;
  table::Table out{table::Schema(fields)};
  for (size_t r = 0; r < t.num_rows(); ++r) {
    std::vector<table::Value> row = t.RowAt(r);
    if (!row[col].is_null()) {
      row[col] = type == table::DataType::kString
                     ? table::Value(row[col].ToString())
                     : table::Value(row[col].AsDouble());
    }
    out.AppendRow(row);
  }
  return out;
}

/// One column role that ValidateSpec types: the table and column playing it
/// in a test's spec, a type the role rejects, and the text of the error.
struct ColumnRoleCase {
  enum class Owner { kFact, kItemTable, kReference };
  std::string role;
  Owner owner;
  std::string column;
  table::DataType type;
  std::string message;
  /// Replacement target column when the retyped column is also the target.
  std::string target;
};

/// gtest prints a case as its role. Without this it prints the struct's raw
/// bytes, heap addresses included, into every ctest name of a suite
/// parameterized on it, and the names change from build to build.
inline void PrintTo(const ColumnRoleCase& c, std::ostream* os) {
  *os << c.role;
}

/// `spec` with the case's column retyped. The retyped table lives in
/// `*holder`; kReference retypes the table of `spec.references[reference]`.
inline BellwetherSpec RetypedSpec(BellwetherSpec spec, const ColumnRoleCase& c,
                                  const std::string& reference,
                                  table::Table* holder) {
  switch (c.owner) {
    case ColumnRoleCase::Owner::kFact:
      *holder = RetypeColumn(*spec.fact, c.column, c.type);
      spec.fact = holder;
      break;
    case ColumnRoleCase::Owner::kItemTable:
      *holder = RetypeColumn(*spec.item_table, c.column, c.type);
      spec.item_table = holder;
      break;
    case ColumnRoleCase::Owner::kReference: {
      ReferenceTable& ref = spec.references.at(reference);
      *holder = RetypeColumn(*ref.table, c.column, c.type);
      ref.table = holder;
      break;
    }
  }
  if (!c.target.empty()) spec.target_column = c.target;
  return spec;
}

}  // namespace core
}  // namespace bellwether

#endif  // BELLWETHER_TESTS_TEST_UTIL_H_
