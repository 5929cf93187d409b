#ifndef BELLWETHER_TESTS_TEST_UTIL_H_
#define BELLWETHER_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/bellwether_cube.h"
#include "core/bellwether_tree.h"
#include "robust/fault_injection.h"

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

}  // namespace core
}  // namespace bellwether

#endif  // BELLWETHER_TESTS_TEST_UTIL_H_
