// Randomized property tests pinning the optimized kernels of the SIMD/
// cache-conscious pass to retained reference implementations:
//
//  * RegressionSuffStats packed Add vs a naive full-matrix reference,
//    within a small documented relative bound.
//  * The row-list kernel AddRows (its scalar loop, its AVX-512 kernel
//    called directly, and AddBatch over it) vs one Add() per listed row:
//    bit for bit on every accumulator, including ±0, subnormal, infinite
//    and NaN inputs. The build pins -ffp-contract=off, so no path fuses a
//    multiply-add the others round twice.
//  * Merge and the flat NumericAgg MergeSlice run: pure same-order
//    additions, compared exactly.
//  * The xtwx() unpack of the packed triangle: exact.
//  * Algebraic k-fold cross-validation vs the copy-and-refit oracle it
//    replaced: same folds, same RNG consumption, same skipped folds, and
//    error values within a relative 1e-9 (the two sum the same examples in
//    a different order, and the held-out SSE is a quadratic form instead of
//    a sum of squared residuals); and its row-list form vs the Dataset
//    form over the same rows, bit for bit.
//
// Determinism of *one binary* across thread counts and kill/resume is
// covered by parallel_determinism_test and state_delta_test; these tests pin
// the numerics of the kernels themselves.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "datagen/hierarchy_util.h"
#include "linalg/matrix.h"
#include "olap/cube.h"
#include "olap/region.h"
#include "regression/dataset.h"
#include "regression/error.h"
#include "regression/linear_model.h"

namespace bellwether {
namespace {

using regression::Dataset;
using regression::ErrorStats;
using regression::LinearModel;
using regression::RegressionSuffStats;

// Relative bound for values that may differ only by FMA contraction
// choices: a handful of ULPs. 64 * eps is ~1.4e-14 relative — far below
// any tolerance the consumers use, far above real contraction drift.
constexpr double kContractionRelBound = 64 * 1e-16;

void ExpectClose(double a, double b, const char* what) {
  const double scale = std::max({std::abs(a), std::abs(b), 1.0});
  EXPECT_LE(std::abs(a - b), kContractionRelBound * scale)
      << what << ": " << a << " vs " << b;
}

// Reference accumulator: the pre-packing implementation — full p x p
// matrix, scalar rank-1 updates.
struct RefSuffStats {
  explicit RefSuffStats(size_t p)
      : p(p), xtwx(p, p), xtwy(p, 0.0), ytwy(0.0), n(0), sum_w(0.0) {}

  void Add(const double* x, double y, double w) {
    for (size_t r = 0; r < p; ++r) {
      const double wr = w * x[r];
      for (size_t c = 0; c < p; ++c) xtwx(r, c) += wr * x[c];
      xtwy[r] += wr * y;
    }
    ytwy += w * y * y;
    ++n;
    sum_w += w;
  }

  void Merge(const RefSuffStats& o) {
    xtwx += o.xtwx;
    for (size_t j = 0; j < p; ++j) xtwy[j] += o.xtwy[j];
    ytwy += o.ytwy;
    n += o.n;
    sum_w += o.sum_w;
  }

  size_t p;
  linalg::Matrix xtwx;
  linalg::Vector xtwy;
  double ytwy;
  int64_t n;
  double sum_w;
};

std::vector<double> RandomRows(Rng& rng, size_t n, size_t p) {
  std::vector<double> rows(n * p);
  for (size_t i = 0; i < n; ++i) {
    rows[i * p] = 1.0;  // intercept, like real designs
    for (size_t j = 1; j < p; ++j) {
      rows[i * p + j] = rng.NextDouble(-10, 10);
    }
  }
  return rows;
}

void CompareToRef(const RegressionSuffStats& s, const RefSuffStats& ref) {
  ASSERT_EQ(s.num_features(), ref.p);
  EXPECT_EQ(s.num_examples(), ref.n);
  ExpectClose(s.sum_weights(), ref.sum_w, "sum_w");
  ExpectClose(s.ytwy(), ref.ytwy, "ytwy");
  const linalg::Matrix full = s.xtwx();
  for (size_t r = 0; r < ref.p; ++r) {
    ExpectClose(s.xtwy()[r], ref.xtwy[r], "xtwy");
    // The packed kernel computes the upper triangle; the reference fills
    // both halves with (potentially ulp-asymmetric) products. Compare
    // against the upper-triangle entry.
    for (size_t c = r; c < ref.p; ++c) {
      ExpectClose(full(r, c), ref.xtwx(r, c), "xtwx");
      EXPECT_EQ(full(r, c), full(c, r)) << "unpack must be symmetric";
    }
  }
}

class SuffStatsEquivalenceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SuffStatsEquivalenceTest, PackedAddMatchesReference) {
  const size_t p = GetParam();
  Rng rng(100 + p);
  const size_t n = 257;
  const auto rows = RandomRows(rng, n, p);
  RegressionSuffStats packed(p);
  RefSuffStats ref(p);
  for (size_t i = 0; i < n; ++i) {
    const double y = rng.NextDouble(-5, 5);
    const double w = rng.NextDouble(0.1, 2.0);
    packed.Add(rows.data() + i * p, y, w);
    ref.Add(rows.data() + i * p, y, w);
  }
  CompareToRef(packed, ref);
}

TEST_P(SuffStatsEquivalenceTest, AddBatchMatchesSequentialAdds) {
  const size_t p = GetParam();
  Rng rng(200 + p);
  const size_t n = 123;
  const auto rows = RandomRows(rng, n, p);
  std::vector<double> ys(n), ws(n);
  for (size_t i = 0; i < n; ++i) {
    ys[i] = rng.NextDouble(-5, 5);
    ws[i] = rng.NextDouble(0.1, 2.0);
  }

  RegressionSuffStats batched(p);
  batched.AddBatch(rows.data(), ys.data(), ws.data(), n);
  RegressionSuffStats sequential(p);
  for (size_t i = 0; i < n; ++i) {
    sequential.Add(rows.data() + i * p, ys[i], ws[i]);
  }

  // Exact: the same products and sums in the same order, no contraction.
  EXPECT_EQ(batched.num_examples(), sequential.num_examples());
  EXPECT_EQ(batched.sum_weights(), sequential.sum_weights());
  EXPECT_EQ(batched.ytwy(), sequential.ytwy());
  EXPECT_EQ(batched.xtwy(), sequential.xtwy());
  EXPECT_EQ(batched.packed_xtwx(), sequential.packed_xtwx());

  // Null weights == all-ones weights, bit-exact.
  RegressionSuffStats ols_null(p), ols_ones(p);
  std::vector<double> ones(n, 1.0);
  ols_null.AddBatch(rows.data(), ys.data(), nullptr, n);
  ols_ones.AddBatch(rows.data(), ys.data(), ones.data(), n);
  EXPECT_EQ(ols_null.packed_xtwx(), ols_ones.packed_xtwx());
  EXPECT_EQ(ols_null.xtwy(), ols_ones.xtwy());
  EXPECT_EQ(ols_null.ytwy(), ols_ones.ytwy());
}

TEST_P(SuffStatsEquivalenceTest, MergeIsExactFlatSum) {
  const size_t p = GetParam();
  Rng rng(300 + p);
  const size_t n = 64;
  const auto rows_a = RandomRows(rng, n, p);
  const auto rows_b = RandomRows(rng, n, p);
  RegressionSuffStats a(p), b(p);
  RefSuffStats ra(p), rb(p);
  for (size_t i = 0; i < n; ++i) {
    const double ya = rng.NextDouble(), yb = rng.NextDouble();
    a.Add(rows_a.data() + i * p, ya);
    ra.Add(rows_a.data() + i * p, ya, 1.0);
    b.Add(rows_b.data() + i * p, yb);
    rb.Add(rows_b.data() + i * p, yb, 1.0);
  }
  // Exactness of the flat sum: merging packed stats must equal element-wise
  // addition of the individual packed arrays, bit for bit.
  std::vector<double> expect = a.packed_xtwx();
  for (size_t i = 0; i < expect.size(); ++i) {
    expect[i] += b.packed_xtwx()[i];
  }
  a.Merge(b);
  EXPECT_EQ(a.packed_xtwx(), expect);
  // And it still agrees with the reference merge up to contraction drift.
  ra.Merge(rb);
  CompareToRef(a, ra);
}

TEST_P(SuffStatsEquivalenceTest, PackedIndexMatchesUnpackedLayout) {
  const size_t p = GetParam();
  Rng rng(500 + p);
  RegressionSuffStats s(p);
  std::vector<double> x(p);
  for (int i = 0; i < 20; ++i) {
    for (auto& v : x) v = rng.NextDouble(-3, 3);
    s.Add(x.data(), rng.NextDouble());
  }
  const linalg::Matrix full = s.xtwx();
  ASSERT_EQ(s.packed_xtwx().size(), RegressionSuffStats::PackedSize(p));
  for (size_t r = 0; r < p; ++r) {
    for (size_t c = r; c < p; ++c) {
      EXPECT_EQ(s.packed_xtwx()[RegressionSuffStats::PackedIndex(p, r, c)],
                full(r, c));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SuffStatsEquivalenceTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 13, 24));

// ---- Row-list kernel ----

// Same double: bit for bit, except that any NaN matches any NaN (payloads
// may differ with operand order).
::testing::AssertionResult SameDouble(double got, double want) {
  if (std::isnan(want) ? std::isnan(got)
                       : std::bit_cast<uint64_t>(got) ==
                             std::bit_cast<uint64_t>(want)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << got << " vs " << want;
}

void ExpectSameStats(const RegressionSuffStats& got,
                     const RegressionSuffStats& want, const std::string& what) {
  ASSERT_EQ(got.num_features(), want.num_features()) << what;
  EXPECT_EQ(got.num_examples(), want.num_examples()) << what;
  EXPECT_TRUE(SameDouble(got.sum_weights(), want.sum_weights()))
      << what << " sum_w";
  EXPECT_TRUE(SameDouble(got.ytwy(), want.ytwy())) << what << " ytwy";
  for (size_t j = 0; j < want.num_features(); ++j) {
    EXPECT_TRUE(SameDouble(got.xtwy()[j], want.xtwy()[j]))
        << what << " xtwy[" << j << "]";
  }
  for (size_t i = 0; i < want.packed_xtwx().size(); ++i) {
    EXPECT_TRUE(SameDouble(got.packed_xtwx()[i], want.packed_xtwx()[i]))
        << what << " packed xtwx[" << i << "]";
  }
}

// A row-major set of `rows` rows: random values, or with `special` about a
// third of the values drawn from ±0, subnormals, ±inf, NaN and huge values.
// Weights (when `weighted`) are positive, some subnormal or huge.
struct RowData {
  std::vector<double> xs, ys, ws;
};

RowData MakeRowData(Rng& rng, size_t rows, size_t p, bool weighted,
                    bool special) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double specials[] = {0.0,
                             -0.0,
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             1e-310,
                             kInf,
                             -kInf,
                             std::numeric_limits<double>::quiet_NaN(),
                             1e300,
                             -1e300};
  const auto value = [&](double lo, double hi) {
    if (special && rng.NextUint64(3) == 0) {
      return specials[rng.NextUint64(std::size(specials))];
    }
    return rng.NextDouble(lo, hi);
  };
  RowData d;
  d.xs.resize(rows * p);
  d.ys.resize(rows);
  for (auto& v : d.xs) v = value(-10, 10);
  for (auto& v : d.ys) v = value(-5, 5);
  if (weighted) {
    const double weights[] = {std::numeric_limits<double>::denorm_min(), 1e300,
                              1.0};
    d.ws.resize(rows);
    for (auto& w : d.ws) {
      w = special && rng.NextUint64(4) == 0
              ? weights[rng.NextUint64(std::size(weights))]
              : rng.NextDouble(0.1, 2.0);
    }
  }
  return d;
}

// The row lists AddRows must take, over a set of `rows` rows: all rows
// (null list), ascending with gaps, unsorted, and with repeats.
std::vector<std::pair<std::string, std::vector<uint32_t>>> RowListCases(
    Rng& rng, size_t n, size_t rows) {
  std::vector<std::pair<std::string, std::vector<uint32_t>>> out;
  std::vector<uint32_t> gaps;  // every other row, then a few skipped
  for (uint32_t r = 0; gaps.size() < n; r += 2 + (r % 7 == 0 ? 3 : 0)) {
    gaps.push_back(r % static_cast<uint32_t>(rows));
  }
  std::sort(gaps.begin(), gaps.end());
  out.emplace_back("ascending with gaps", gaps);
  std::vector<uint32_t> unsorted(n);
  for (auto& r : unsorted) r = static_cast<uint32_t>(rng.NextUint64(rows));
  out.emplace_back("unsorted with repeats", unsorted);
  std::vector<uint32_t> repeats;
  for (size_t i = 0; i < n; ++i) {
    repeats.push_back(static_cast<uint32_t>((i / 3) % rows));
  }
  out.emplace_back("runs of repeats", repeats);
  return out;
}

enum class AddRowsPath { kDispatch, kScalar, kAvx512, kBatch };

void AddRowsVia(AddRowsPath path, RegressionSuffStats* s, const RowData& d,
                const uint32_t* rows, size_t n) {
  const double* ws = d.ws.empty() ? nullptr : d.ws.data();
  switch (path) {
    case AddRowsPath::kDispatch:
      s->AddRows(d.xs.data(), d.ys.data(), ws, rows, n);
      break;
    case AddRowsPath::kScalar:
      regression::detail::AddRowsScalar(s, d.xs.data(), d.ys.data(), ws, rows,
                                        n);
      break;
    case AddRowsPath::kAvx512:
      regression::detail::AddRowsAvx512(s, d.xs.data(), d.ys.data(), ws, rows,
                                        n);
      break;
    case AddRowsPath::kBatch:
      ASSERT_EQ(rows, nullptr);
      s->AddBatch(d.xs.data(), d.ys.data(), ws, n);
      break;
  }
}

// Every list case, size, weighting and value mix: `path` onto a statistic
// that already holds a few rows must equal one Add() per listed row.
void ExpectPathMatchesSequentialAdds(AddRowsPath path, size_t p) {
  for (const size_t n : {0, 1, 2, 3, 7, 8, 9, 4000}) {
    for (const bool weighted : {false, true}) {
      for (const bool special : {false, true}) {
        Rng rng(1000 * p + n + (weighted ? 7 : 0) + (special ? 13 : 0));
        const size_t rows = n + 5;
        const RowData d = MakeRowData(rng, rows, p, weighted, special);
        auto cases = RowListCases(rng, n, rows);
        cases.emplace_back("all rows", std::vector<uint32_t>());
        for (const auto& [name, list] : cases) {
          if (path == AddRowsPath::kBatch && name != "all rows") continue;
          const uint32_t* listed = name == "all rows" ? nullptr : list.data();
          RegressionSuffStats want(p);
          for (size_t r = rows - 3; r < rows; ++r) {  // a non-empty start
            want.Add(d.xs.data() + r * p, d.ys[r], weighted ? d.ws[r] : 1.0);
          }
          RegressionSuffStats got = want;
          for (size_t i = 0; i < n; ++i) {
            const size_t r = listed == nullptr ? i : listed[i];
            want.Add(d.xs.data() + r * p, d.ys[r], weighted ? d.ws[r] : 1.0);
          }
          AddRowsVia(path, &got, d, listed, n);
          ExpectSameStats(got, want,
                          "p=" + std::to_string(p) + " n=" +
                              std::to_string(n) + " " + name +
                              (weighted ? " weighted" : " unweighted") +
                              (special ? " special values" : ""));
        }
      }
    }
  }
}

class AddRowsTest : public ::testing::TestWithParam<size_t> {};

TEST_P(AddRowsTest, AddRowsMatchesSequentialAdds) {
  ExpectPathMatchesSequentialAdds(AddRowsPath::kDispatch, GetParam());
}

TEST_P(AddRowsTest, ScalarLoopMatchesSequentialAdds) {
  ExpectPathMatchesSequentialAdds(AddRowsPath::kScalar, GetParam());
}

TEST_P(AddRowsTest, AddBatchMatchesSequentialAddsOnSpecialValues) {
  ExpectPathMatchesSequentialAdds(AddRowsPath::kBatch, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Arities, AddRowsTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 12));

// The vector kernel called directly, at every arity it takes.
class AddRowsAvx512Test : public ::testing::TestWithParam<size_t> {};

TEST_P(AddRowsAvx512Test, KernelMatchesSequentialAdds) {
  if (!regression::detail::AddRowsHasAvx512()) {
    GTEST_SKIP() << "this CPU has no AVX-512F, so AddRows runs its scalar "
                    "loop and the vector kernel cannot run";
  }
  ExpectPathMatchesSequentialAdds(AddRowsPath::kAvx512, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Arities, AddRowsAvx512Test,
                         ::testing::Values(1, 2, 3, 4, 5, 6));
static_assert(regression::detail::kAddRowsVectorMaxFeatures == 6);

// ---- Flat CUBE rollup ----

// Reference for the NumericAgg run specialization: the generic per-cell
// skip-empty merge (identical to the pre-flattening MergeSlice body).
void RefMergeRun(olap::NumericAgg* dst, const olap::NumericAgg* src,
                 size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (!src[i].empty()) dst[i].Merge(src[i]);
  }
}

TEST(FlatMergeRunTest, NumericAggRunMatchesPerCellReferenceExactly) {
  Rng rng(42);
  // Sizes around the chunk boundary (32) plus a big sparse run.
  for (size_t n : {0ul, 1ul, 31ul, 32ul, 33ul, 64ul, 100ul, 1000ul}) {
    for (double density : {0.0, 0.05, 0.5, 1.0}) {
      std::vector<olap::NumericAgg> src(n), dst(n);
      for (size_t i = 0; i < n; ++i) {
        if (rng.NextDouble() < density) {
          const int k = 1 + static_cast<int>(rng.NextUint64(3));
          for (int j = 0; j < k; ++j) src[i].Add(rng.NextDouble(-100, 100));
        }
        if (rng.NextDouble() < density) {
          dst[i].Add(rng.NextDouble(-100, 100));
        }
      }
      std::vector<olap::NumericAgg> expect = dst;
      RefMergeRun(expect.data(), src.data(), n);
      olap::detail::MergeAccRun(dst.data(), src.data(), n);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(dst[i].sum, expect[i].sum);
        EXPECT_EQ(dst[i].count, expect[i].count);
        EXPECT_EQ(dst[i].min, expect[i].min);
        EXPECT_EQ(dst[i].max, expect[i].max);
      }
    }
  }
}

// Key-set cells of kWords bitset words each (the pi_FK cube's layout): the
// flat word merges must give each cell the set union, for one source and
// for a fan-in of several.
TEST(FlatMergeRunTest, KeySetWordRunMatchesReference) {
  constexpr size_t kWords = 3;
  constexpr size_t kCells = 100;
  Rng rng(43);
  auto random_sets = [&](double fill) {
    std::vector<std::set<int32_t>> sets(kCells);
    for (auto& keys : sets) {
      if (rng.NextDouble() >= fill) continue;
      const int k = 1 + static_cast<int>(rng.NextUint64(5));
      for (int j = 0; j < k; ++j) {
        keys.insert(static_cast<int32_t>(rng.NextUint64(64 * kWords)));
      }
    }
    return sets;
  };
  auto to_words = [](const std::vector<std::set<int32_t>>& sets) {
    std::vector<uint64_t> words(kCells * kWords, 0);
    for (size_t c = 0; c < kCells; ++c) {
      for (int32_t key : sets[c]) {
        words[c * kWords + key / 64] |= uint64_t{1} << (key % 64);
      }
    }
    return words;
  };
  auto to_sets = [](const std::vector<uint64_t>& words) {
    std::vector<std::set<int32_t>> sets(kCells);
    for (size_t i = 0; i < words.size(); ++i) {
      for (int b = 0; b < 64; ++b) {
        if (words[i] >> b & 1) {
          sets[i / kWords].insert(static_cast<int32_t>(i % kWords * 64 + b));
        }
      }
    }
    return sets;
  };
  const auto dst_sets = random_sets(0.5);
  std::vector<std::vector<std::set<int32_t>>> src_sets;
  for (int k = 0; k < 3; ++k) src_sets.push_back(random_sets(0.8));
  auto expect = dst_sets;
  for (size_t c = 0; c < kCells; ++c) {
    expect[c].insert(src_sets[0][c].begin(), src_sets[0][c].end());
  }
  std::vector<uint64_t> dst = to_words(dst_sets);
  std::vector<uint64_t> src = to_words(src_sets[0]);
  olap::detail::MergeAccRun(dst.data(), src.data(), dst.size());
  EXPECT_EQ(to_sets(dst), expect);

  for (size_t k = 1; k < src_sets.size(); ++k) {
    for (size_t c = 0; c < kCells; ++c) {
      expect[c].insert(src_sets[k][c].begin(), src_sets[k][c].end());
    }
  }
  std::vector<std::vector<uint64_t>> srcs;
  std::vector<const uint64_t*> ptrs;
  for (const auto& sets : src_sets) srcs.push_back(to_words(sets));
  for (const auto& words : srcs) ptrs.push_back(words.data());
  dst = to_words(dst_sets);
  olap::detail::MergeAccRunFanIn(dst.data(), ptrs.data(), ptrs.size(),
                                 dst.size());
  EXPECT_EQ(to_sets(dst), expect);
}

// End-to-end rollup oracle: aggregate every draw directly into every
// containing region and compare against the cube after Rollup(). count/min/
// max are exact (order-independent); sum is compared within the
// contraction/reassociation bound because the rollup tree adds partial sums
// in a different order than direct accumulation.
TEST(FlatRollupTest, RollupMatchesContainingRegionOracle) {
  std::vector<olap::Dimension> dims;
  dims.emplace_back(olap::IntervalDimension("Time", 6));
  dims.emplace_back(
      datagen::BuildBalancedHierarchy("Loc", "All", {3, 3}, "L"));
  olap::RegionSpace space(std::move(dims));
  const auto& loc = std::get<olap::HierarchicalDimension>(space.dim(1));
  const auto& leaves = loc.leaves();

  const int32_t items = 7;
  olap::RegionItemCube<olap::NumericAgg> cube(&space, items);
  std::vector<std::vector<olap::NumericAgg>> oracle(
      space.NumRegions(), std::vector<olap::NumericAgg>(items));
  Rng rng(44);
  for (int draw = 0; draw < 500; ++draw) {
    const int32_t item = static_cast<int32_t>(rng.NextUint64(items));
    const olap::PointCoords point{
        static_cast<int32_t>(1 + rng.NextUint64(6)),
        leaves[rng.NextUint64(leaves.size())]};
    const double v = rng.NextDouble(-50, 50);
    cube.BaseCell(point, item).Add(v);
    space.ForEachContainingRegion(
        point, [&](olap::RegionId r) { oracle[r][item].Add(v); });
  }
  cube.Rollup();
  for (olap::RegionId r = 0; r < space.NumRegions(); ++r) {
    for (int32_t i = 0; i < items; ++i) {
      const auto& got = cube.Cell(r, i);
      const auto& want = oracle[r][i];
      EXPECT_EQ(got.count, want.count) << "region " << r << " item " << i;
      EXPECT_EQ(got.min, want.min);
      EXPECT_EQ(got.max, want.max);
      const double scale =
          std::max({std::abs(got.sum), std::abs(want.sum), 1.0});
      EXPECT_LE(std::abs(got.sum - want.sum), 1e-10 * scale);
    }
  }
}

// ---- Algebraic cross-validation ----

// Oracle row-gather: a new Dataset holding the listed examples.
Dataset RefGather(const Dataset& data, const std::vector<size_t>& indices) {
  Dataset out(data.num_features());
  out.Reserve(indices.size());
  std::vector<double> row(data.num_features());
  for (size_t i : indices) {
    row.assign(data.x(i), data.x(i) + data.num_features());
    if (data.weighted()) {
      out.AddWeighted(row, data.y(i), data.w(i));
    } else {
      out.Add(row, data.y(i));
    }
  }
  return out;
}

// Oracle held-out error: weighted RMSE from the residual of every row.
double RefEvaluateRmse(const LinearModel& model, const Dataset& data) {
  if (data.num_examples() == 0) return 0.0;
  double sse = 0.0;
  double sum_w = 0.0;
  for (size_t i = 0; i < data.num_examples(); ++i) {
    const double e = data.y(i) - model.Predict(data.x(i));
    sse += data.w(i) * e * e;
    sum_w += data.w(i);
  }
  return sum_w > 0.0 ? std::sqrt(sse / sum_w) : 0.0;
}

// Oracle: the copy-and-refit k-fold CV that the algebraic implementation
// replaced. Every fold copies its training part into a new Dataset, refits
// it from rows, and scores the held-out rows one prediction at a time.
Result<ErrorStats> RefCrossValidationError(const Dataset& data, int32_t k,
                                           Rng* rng) {
  BW_CHECK(rng != nullptr);
  if (k < 2) return Status::InvalidArgument("cross-validation needs k >= 2");
  const size_t n = data.num_examples();
  if (n < 2) {
    return Status::FailedPrecondition(
        "cross-validation needs at least 2 examples");
  }
  const int32_t folds = std::min<int32_t>(k, static_cast<int32_t>(n));
  // Random permutation -> round-robin fold assignment.
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  rng->Shuffle(&order);

  std::vector<double> fold_errors;
  fold_errors.reserve(folds);
  std::vector<size_t> train_idx, test_idx;
  for (int32_t f = 0; f < folds; ++f) {
    train_idx.clear();
    test_idx.clear();
    for (size_t i = 0; i < n; ++i) {
      if (static_cast<int32_t>(i % folds) == f) {
        test_idx.push_back(order[i]);
      } else {
        train_idx.push_back(order[i]);
      }
    }
    if (test_idx.empty() || train_idx.empty()) continue;
    const Dataset train = RefGather(data, train_idx);
    auto model = regression::FitLeastSquares(train);
    if (!model.ok()) continue;  // degenerate fold (e.g. collinear subset)
    fold_errors.push_back(RefEvaluateRmse(*model, RefGather(data, test_idx)));
  }
  if (fold_errors.empty()) {
    return Status::NumericError("no usable cross-validation fold");
  }
  double mean = 0.0;
  for (double e : fold_errors) mean += e;
  mean /= static_cast<double>(fold_errors.size());
  double var = 0.0;
  for (double e : fold_errors) var += (e - mean) * (e - mean);
  var = fold_errors.size() > 1
            ? var / static_cast<double>(fold_errors.size() - 1)
            : 0.0;
  ErrorStats out;
  out.rmse = mean;
  out.stddev = std::sqrt(var);
  out.num_folds = static_cast<int32_t>(fold_errors.size());
  return out;
}

// A regression design like the bellwether layer's: intercept column, then
// features in [-10, 10); the target is linear in them plus unit Gaussian
// noise, so held-out errors are of order 1 against targets of order 10-100.
Dataset RandomDataset(Rng& rng, size_t n, size_t p, bool weighted) {
  std::vector<double> beta(p);
  for (auto& b : beta) b = rng.NextDouble(-2, 2);
  const std::vector<double> rows = RandomRows(rng, n, p);
  Dataset d(p);
  std::vector<double> x(p);
  for (size_t i = 0; i < n; ++i) {
    x.assign(rows.begin() + i * p, rows.begin() + (i + 1) * p);
    double y = rng.NextGaussian();
    for (size_t j = 0; j < p; ++j) y += beta[j] * x[j];
    if (weighted) {
      d.AddWeighted(x, y, rng.NextDouble(0.1, 2.0));
    } else {
      d.Add(x, y);
    }
  }
  return d;
}

void ExpectRelClose(double got, double want, double rel, double scale,
                    const std::string& what) {
  EXPECT_LE(std::abs(got - want), rel * scale)
      << what << ": " << got << " vs " << want;
}

// Runs both implementations on `data` from identically seeded generators and
// compares status, fold count and RNG position, and — when `well_posed` —
// the error values. The rmse is compared relative to itself. The stddev is
// compared relative to the error scale: it is a spread of fold RMSEs, so
// its rounding error follows the RMSEs, and when the fold errors coincide
// (p = 1, n = 2) both implementations return rounding noise around 0.
void ExpectMatchesOracle(const Dataset& data, int32_t k, uint64_t seed,
                         bool well_posed, const std::string& what) {
  Rng rng_ref(seed), rng_new(seed);
  const auto want = RefCrossValidationError(data, k, &rng_ref);
  const auto got = regression::CrossValidationError(data, k, &rng_new);
  ASSERT_EQ(got.status().code(), want.status().code())
      << what << ": " << got.status().ToString() << " vs "
      << want.status().ToString();
  EXPECT_EQ(rng_new.NextUint64(), rng_ref.NextUint64())
      << what << ": generator consumed differently";
  if (!want.ok()) return;
  EXPECT_EQ(got->num_folds, want->num_folds) << what;
  if (!well_posed) {
    EXPECT_EQ(std::isfinite(got->rmse), std::isfinite(want->rmse)) << what;
    return;
  }
  if (std::isnan(want->rmse)) {  // a kept fold holds a non-finite example
    EXPECT_TRUE(std::isnan(got->rmse)) << what;
    return;
  }
  const double scale = std::max({std::abs(got->rmse), std::abs(want->rmse),
                                 std::abs(got->stddev),
                                 std::abs(want->stddev)});
  ExpectRelClose(got->rmse, want->rmse, 1e-9,
                 std::max(std::abs(got->rmse), std::abs(want->rmse)),
                 what + " rmse");
  ExpectRelClose(got->stddev, want->stddev, 1e-9, scale, what + " stddev");
}

// Every training part of a k-fold split of n examples has at least
// n - ceil(n / folds) of them. With fewer than p the normal equations are
// singular and the fitted model is not unique: SolveSpd's unridged
// Cholesky then succeeds or fails on the sign of a rounding-level pivot, so
// any change of summation order may pick a different model. Such cases are
// checked for status, fold count and RNG use, not for equal values.
bool EveryTrainingPartDetermined(size_t n, size_t p, int32_t k) {
  if (n < 2 || k < 2) return false;
  const size_t folds = std::min(n, static_cast<size_t>(k));
  return n - (n + folds - 1) / folds >= p;
}

class CrossValidationOracleTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CrossValidationOracleTest, MatchesCopyAndRefitOracle) {
  const size_t p = GetParam();
  for (const int32_t k : {2, 5, 10}) {
    const size_t ks = static_cast<size_t>(k);
    for (const size_t n : {size_t{1}, size_t{2}, size_t{3}, ks - 1, ks,
                           ks + 1, size_t{1200}}) {
      for (const bool weighted : {false, true}) {
        const uint64_t seed = 1000 * p + 100 * ks + n + (weighted ? 7 : 0);
        Rng data_rng(seed);
        const Dataset data = RandomDataset(data_rng, n, p, weighted);
        ExpectMatchesOracle(data, k, seed, EveryTrainingPartDetermined(n, p, k),
                            "p=" + std::to_string(p) + " k=" +
                                std::to_string(k) + " n=" + std::to_string(n) +
                                (weighted ? " weighted" : " unweighted"));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Arities, CrossValidationOracleTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 12));

// The row-list CV over the listed rows of a larger set (every row, or the
// rows an item mask keeps) against the Dataset CV over a copy of those
// rows: same status, fold count and RNG position, and the same rmse and
// stddev bit for bit.
TEST_P(CrossValidationOracleTest, RowListMatchesDatasetForm) {
  const size_t p = GetParam();
  for (const int32_t k : {2, 10}) {
    for (const size_t n : {size_t{1}, size_t{2}, size_t{11}, size_t{1200}}) {
      for (const bool weighted : {false, true}) {
        for (const bool masked : {false, true}) {
          const uint64_t seed = 7000 * p + 100 * k + n + (weighted ? 7 : 0) +
                                (masked ? 3 : 0);
          Rng data_rng(seed);
          const Dataset all = RandomDataset(data_rng, n, p, weighted);
          // Items 0..9 of a region's rows; the mask keeps items 2..6.
          std::vector<uint32_t> list;
          std::vector<size_t> kept;
          for (size_t r = 0; r < n; ++r) {
            const size_t item = (r * 7) % 10;
            if (masked && (item < 2 || item > 6)) continue;
            list.push_back(static_cast<uint32_t>(r));
            kept.push_back(r);
          }
          regression::RowSet rows = all.rows();
          if (masked) {
            rows.rows = list.data();
            rows.n = list.size();
          }
          const Dataset copy = RefGather(all, kept);
          Rng rng_list(seed), rng_copy(seed);
          const auto got = regression::CrossValidationError(rows, k, &rng_list);
          const auto want =
              regression::CrossValidationError(copy, k, &rng_copy);
          const std::string what =
              "p=" + std::to_string(p) + " k=" + std::to_string(k) +
              " n=" + std::to_string(n) + (weighted ? " weighted" : "") +
              (masked ? " masked" : "");
          ASSERT_EQ(got.status().code(), want.status().code()) << what;
          EXPECT_EQ(rng_list.NextUint64(), rng_copy.NextUint64()) << what;
          if (!want.ok()) continue;
          EXPECT_EQ(got->num_folds, want->num_folds) << what;
          EXPECT_TRUE(SameDouble(got->rmse, want->rmse)) << what << " rmse";
          EXPECT_TRUE(SameDouble(got->stddev, want->stddev))
              << what << " stddev";
        }
      }
    }
  }
}

TEST(CrossValidationOracleEdgeTest, RejectsTooFewFoldsLikeOracle) {
  Rng data_rng(5);
  const Dataset data = RandomDataset(data_rng, 20, 3, false);
  ExpectMatchesOracle(data, 1, 6, false, "k=1");
  ExpectMatchesOracle(data, 0, 6, false, "k=0");
}

// The second feature is non-zero in exactly one example, so the training
// part of the fold holding it has an all-zero column (rank-deficient X'WX).
// Both implementations must treat that fold alike: same fold count, same
// errors.
TEST(CrossValidationOracleEdgeTest, RankDeficientTrainingPartMatchesOracle) {
  for (const bool weighted : {false, true}) {
    Rng rng(77);
    const size_t n = 60, p = 3;
    Dataset data(p);
    const size_t lone = 17;
    for (size_t i = 0; i < n; ++i) {
      const std::vector<double> x = {1.0, i == lone ? 4.0 : 0.0,
                                     rng.NextDouble(-10, 10)};
      const double y = 2.0 + 3.0 * x[1] - 0.5 * x[2] + rng.NextGaussian();
      if (weighted) {
        data.AddWeighted(x, y, rng.NextDouble(0.1, 2.0));
      } else {
        data.Add(x, y);
      }
    }
    ExpectMatchesOracle(data, 10, 78, true,
                        weighted ? "weighted" : "unweighted");
  }
}

// A NaN feature in one example makes every training part that contains it
// unsolvable, so exactly one fold survives in both implementations (and its
// held-out error is NaN in both).
TEST(CrossValidationOracleEdgeTest, UnsolvableTrainingPartsAreSkippedLikeOracle) {
  Rng data_rng(91);
  Dataset data = RandomDataset(data_rng, 40, 3, false);
  Dataset poisoned(3);
  for (size_t i = 0; i < data.num_examples(); ++i) {
    std::vector<double> x(data.x(i), data.x(i) + 3);
    if (i == 11) x[2] = std::numeric_limits<double>::quiet_NaN();
    poisoned.Add(x, data.y(i));
  }
  ExpectMatchesOracle(poisoned, 10, 92, true, "NaN feature");
  Rng rng(92);
  const auto got = regression::CrossValidationError(poisoned, 10, &rng);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->num_folds, 1);
}

}  // namespace
}  // namespace bellwether
