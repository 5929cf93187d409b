#ifndef BELLWETHER_OLAP_CUBE_H_
#define BELLWETHER_OLAP_CUBE_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "olap/region.h"
#include "table/ops.h"

// Runtime-dispatched AVX2 merge kernels (GCC/Clang function target
// attributes; no global -march change, scalar fallback kept for other
// builds and pre-AVX2 hosts).
#if defined(__x86_64__) && defined(__GNUC__)
#define BW_CUBE_X86_DISPATCH 1
#include <immintrin.h>
#endif

namespace bellwether::olap {

/// Distributive numeric accumulator covering SUM / COUNT / MIN / MAX and the
/// algebraic AVG. One instance per (region, item) cell.
struct NumericAgg {
  double sum = 0.0;
  int64_t count = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  void Add(double v) {
    sum += v;
    ++count;
    min = std::min(min, v);
    max = std::max(max, v);
  }

  void Merge(const NumericAgg& o) {
    sum += o.sum;
    count += o.count;
    min = std::min(min, o.min);
    max = std::max(max, o.max);
  }

  bool empty() const { return count == 0; }

  /// Aggregate result; nullopt when no values were accumulated (except
  /// kCount, which is 0).
  std::optional<double> Finish(table::AggFn fn) const {
    using table::AggFn;
    if (fn == AggFn::kCount) return static_cast<double>(count);
    if (count == 0) return std::nullopt;
    switch (fn) {
      case AggFn::kSum:
        return sum;
      case AggFn::kMin:
        return min;
      case AggFn::kMax:
        return max;
      case AggFn::kAvg:
        return sum / static_cast<double>(count);
      default:
        BW_CHECK(false);
    }
    return std::nullopt;
  }
};

namespace detail {

/// Bitset words (KeySetCube below): set union is a word-wise OR, and OR-ing
/// an empty (zero) word is the identity, so a run merge is one flat loop.
inline void MergeAccRun(uint64_t* dst, const uint64_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] |= src[i];
}

/// Fan-in twin of the word merge: each destination word is read and
/// written once for all k sources.
inline void MergeAccRunFanIn(uint64_t* dst, const uint64_t* const* srcs,
                             size_t k, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    uint64_t w = dst[i];
    for (size_t j = 0; j < k; ++j) w |= srcs[j][i];
    dst[i] = w;
  }
}

#if defined(BW_CUBE_X86_DISPATCH)

inline const bool kCubeHasAvx2 = __builtin_cpu_supports("avx2");
inline const bool kCubeHasAvx512 = __builtin_cpu_supports("avx512f");

/// AVX-512 twin of the AVX2 kernels below: two cells per 512-bit vector,
/// count lanes 1 and 5, min lanes 2 and 6, max lanes 3 and 7. Same
/// bit-identical lane semantics (min/max take the second operand on ties,
/// matching std::min(d, s) / std::max(d, s)). The zero-masked min/max with
/// every lane selected compute the plain vminpd/vmaxpd; GCC defines the
/// unmasked intrinsics with an undefined pass-through operand, which
/// -Wmaybe-uninitialized reports in every file including this header.
__attribute__((target("avx512f"))) inline __m512d MergeCellsAvx512(
    __m512d d, __m512d s) {
  const __m512d fsum = _mm512_add_pd(d, s);
  const __m512d isum = _mm512_castsi512_pd(
      _mm512_add_epi64(_mm512_castpd_si512(d), _mm512_castpd_si512(s)));
  const __m512d mn = _mm512_maskz_min_pd(0xFF, s, d);
  const __m512d mx = _mm512_maskz_max_pd(0xFF, s, d);
  __m512d r = _mm512_mask_blend_pd(0b00100010, fsum, isum);
  r = _mm512_mask_blend_pd(0b01000100, r, mn);
  return _mm512_mask_blend_pd(0b10001000, r, mx);
}

__attribute__((target("avx512f"))) inline void MergeAccRunAvx512(
    NumericAgg* dst, const NumericAgg* src, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double* sp = reinterpret_cast<const double*>(src + i);
    const __m512d s0 = _mm512_loadu_pd(sp);
    const __m512d s1 = _mm512_loadu_pd(sp + 8);
    const __m512i any = _mm512_or_si512(_mm512_castpd_si512(s0),
                                        _mm512_castpd_si512(s1));
    if (_mm512_test_epi64_mask(any, _mm512_set_epi64(0, 0, -1, 0, 0, 0, -1,
                                                     0)) == 0) {
      continue;
    }
    double* dp = reinterpret_cast<double*>(dst + i);
    _mm512_storeu_pd(dp, MergeCellsAvx512(_mm512_loadu_pd(dp), s0));
    _mm512_storeu_pd(dp + 8, MergeCellsAvx512(_mm512_loadu_pd(dp + 8), s1));
  }
  for (; i < n; ++i) {
    if (src[i].count != 0) dst[i].Merge(src[i]);
  }
}

__attribute__((target("avx512f"))) inline void MergeAccRunFanInAvx512(
    NumericAgg* dst, const NumericAgg* const* srcs, size_t k, size_t n) {
  const __m512i count_lanes =
      _mm512_set_epi64(0, 0, -1, 0, 0, 0, -1, 0);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    double* dp = reinterpret_cast<double*>(dst + i);
    __m512d d0 = _mm512_setzero_pd(), d1 = d0;
    bool loaded = false;
    for (size_t j = 0; j < k; ++j) {
      const double* sp = reinterpret_cast<const double*>(srcs[j] + i);
      const __m512d s0 = _mm512_loadu_pd(sp);
      const __m512d s1 = _mm512_loadu_pd(sp + 8);
      const __m512i any = _mm512_or_si512(_mm512_castpd_si512(s0),
                                          _mm512_castpd_si512(s1));
      if (_mm512_test_epi64_mask(any, count_lanes) == 0) continue;
      if (!loaded) {
        d0 = _mm512_loadu_pd(dp);
        d1 = _mm512_loadu_pd(dp + 8);
        loaded = true;
      }
      d0 = MergeCellsAvx512(d0, s0);
      d1 = MergeCellsAvx512(d1, s1);
    }
    if (loaded) {
      _mm512_storeu_pd(dp, d0);
      _mm512_storeu_pd(dp + 8, d1);
    }
  }
  for (; i < n; ++i) {
    for (size_t j = 0; j < k; ++j) {
      if (srcs[j][i].count != 0) dst[i].Merge(srcs[j][i]);
    }
  }
}

/// One NumericAgg cell is exactly one 256-bit vector [sum, count, min, max]
/// (static_asserts below). Merging two cells is lane-parallel: fp add for
/// the sum lane, 64-bit integer add for the count lane, fp min/max for the
/// extrema lanes, blended back together by immediate masks. min_pd(s, d)
/// matches std::min(d, s) exactly (second operand on ties), ditto max, so
/// the result is bit-identical to the scalar merge.
__attribute__((target("avx2"))) inline __m256d MergeCellAvx2(__m256d d,
                                                             __m256d s) {
  const __m256d fsum = _mm256_add_pd(d, s);
  const __m256d isum = _mm256_castsi256_pd(
      _mm256_add_epi64(_mm256_castpd_si256(d), _mm256_castpd_si256(s)));
  const __m256d mn = _mm256_min_pd(s, d);
  const __m256d mx = _mm256_max_pd(s, d);
  __m256d r = _mm256_blend_pd(fsum, isum, 0b0010);
  r = _mm256_blend_pd(r, mn, 0b0100);
  return _mm256_blend_pd(r, mx, 0b1000);
}

__attribute__((target("avx2"))) inline void MergeAccRunAvx2(
    NumericAgg* dst, const NumericAgg* src, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double* sp = reinterpret_cast<const double*>(src + i);
    const __m256d s0 = _mm256_loadu_pd(sp);
    const __m256d s1 = _mm256_loadu_pd(sp + 4);
    const __m256d s2 = _mm256_loadu_pd(sp + 8);
    const __m256d s3 = _mm256_loadu_pd(sp + 12);
    // Lane 1 of the OR of the four cell vectors is the OR of their counts:
    // zero means the whole group is empty and dst is never touched.
    const __m256i any = _mm256_or_si256(
        _mm256_or_si256(_mm256_castpd_si256(s0), _mm256_castpd_si256(s1)),
        _mm256_or_si256(_mm256_castpd_si256(s2), _mm256_castpd_si256(s3)));
    if (_mm256_extract_epi64(any, 1) == 0) continue;
    double* dp = reinterpret_cast<double*>(dst + i);
    _mm256_storeu_pd(dp, MergeCellAvx2(_mm256_loadu_pd(dp), s0));
    _mm256_storeu_pd(dp + 4, MergeCellAvx2(_mm256_loadu_pd(dp + 4), s1));
    _mm256_storeu_pd(dp + 8, MergeCellAvx2(_mm256_loadu_pd(dp + 8), s2));
    _mm256_storeu_pd(dp + 12, MergeCellAvx2(_mm256_loadu_pd(dp + 12), s3));
  }
  for (; i < n; ++i) {
    if (src[i].count != 0) dst[i].Merge(src[i]);
  }
}

__attribute__((target("avx2"))) inline void MergeAccRunFanInAvx2(
    NumericAgg* dst, const NumericAgg* const* srcs, size_t k, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    double* dp = reinterpret_cast<double*>(dst + i);
    // The four dst vectors are loaded lazily on the first live source and
    // stay in registers across all k sources — one dst read + write per
    // group total, instead of one per source.
    __m256d d0 = _mm256_setzero_pd(), d1 = d0, d2 = d0, d3 = d0;
    bool loaded = false;
    for (size_t j = 0; j < k; ++j) {
      const double* sp = reinterpret_cast<const double*>(srcs[j] + i);
      const __m256d s0 = _mm256_loadu_pd(sp);
      const __m256d s1 = _mm256_loadu_pd(sp + 4);
      const __m256d s2 = _mm256_loadu_pd(sp + 8);
      const __m256d s3 = _mm256_loadu_pd(sp + 12);
      const __m256i any = _mm256_or_si256(
          _mm256_or_si256(_mm256_castpd_si256(s0), _mm256_castpd_si256(s1)),
          _mm256_or_si256(_mm256_castpd_si256(s2), _mm256_castpd_si256(s3)));
      if (_mm256_extract_epi64(any, 1) == 0) continue;
      if (!loaded) {
        d0 = _mm256_loadu_pd(dp);
        d1 = _mm256_loadu_pd(dp + 4);
        d2 = _mm256_loadu_pd(dp + 8);
        d3 = _mm256_loadu_pd(dp + 12);
        loaded = true;
      }
      d0 = MergeCellAvx2(d0, s0);
      d1 = MergeCellAvx2(d1, s1);
      d2 = MergeCellAvx2(d2, s2);
      d3 = MergeCellAvx2(d3, s3);
    }
    if (loaded) {
      _mm256_storeu_pd(dp, d0);
      _mm256_storeu_pd(dp + 4, d1);
      _mm256_storeu_pd(dp + 8, d2);
      _mm256_storeu_pd(dp + 12, d3);
    }
  }
  for (; i < n; ++i) {
    for (size_t j = 0; j < k; ++j) {
      if (srcs[j][i].count != 0) dst[i].Merge(srcs[j][i]);
    }
  }
}

#endif  // BW_CUBE_X86_DISPATCH

/// NumericAgg is a flat POD (four scalar fields, no indirection), and
/// merging an *empty* NumericAgg is the identity: sum += 0, count += 0,
/// min(x, +inf) = x, max(x, -inf) = x. That makes the run merge a plain
/// contiguous array addition the autovectorizer can lift — no per-cell
/// branch. Rollup sources are mostly empty (base cells are sparse), so
/// groups of four source counts are OR-ed first and an all-empty group is
/// skipped without touching dst at all. Four cells is the sweet spot: at a
/// few-percent base density a 32-cell block is ~70% likely to contain at
/// least one live cell (skipping almost nothing), while a 4-cell group
/// skips ~85% of dst read+write traffic and still amortizes the branch.
inline void MergeAccRun(NumericAgg* dst, const NumericAgg* src, size_t n) {
  static_assert(std::is_trivially_copyable_v<NumericAgg>);
  static_assert(sizeof(NumericAgg) == 32);
  static_assert(offsetof(NumericAgg, sum) == 0 &&
                offsetof(NumericAgg, count) == 8 &&
                offsetof(NumericAgg, min) == 16 &&
                offsetof(NumericAgg, max) == 24);
#if defined(BW_CUBE_X86_DISPATCH)
  if (kCubeHasAvx512) return MergeAccRunAvx512(dst, src, n);
  if (kCubeHasAvx2) return MergeAccRunAvx2(dst, src, n);
#endif
  constexpr size_t kGroup = 4;
  size_t i = 0;
  for (; i + kGroup <= n; i += kGroup) {
    const NumericAgg* __restrict s = src + i;
    if ((s[0].count | s[1].count | s[2].count | s[3].count) == 0) continue;
    NumericAgg* __restrict d = dst + i;
    for (size_t j = 0; j < kGroup; ++j) {
      d[j].sum += s[j].sum;
      d[j].count += s[j].count;
      d[j].min = std::min(d[j].min, s[j].min);
      d[j].max = std::max(d[j].max, s[j].max);
    }
  }
  for (; i < n; ++i) {
    if (src[i].count != 0) dst[i].Merge(src[i]);
  }
}

/// Fan-in merge: folds `k` source runs into one destination run in a single
/// pass. The group of destination cells stays in registers/L1 across all k
/// sources instead of the destination slice being re-streamed from memory
/// once per source (the hierarchy rollup's children -> parent pattern).
/// Per-element summation order equals k successive MergeAccRun calls in
/// srcs order.
inline void MergeAccRunFanIn(NumericAgg* dst, const NumericAgg* const* srcs,
                             size_t k, size_t n) {
#if defined(BW_CUBE_X86_DISPATCH)
  if (kCubeHasAvx512) return MergeAccRunFanInAvx512(dst, srcs, k, n);
  if (kCubeHasAvx2) return MergeAccRunFanInAvx2(dst, srcs, k, n);
#endif
  constexpr size_t kGroup = 4;
  size_t i = 0;
  for (; i + kGroup <= n; i += kGroup) {
    NumericAgg* __restrict d = dst + i;
    for (size_t j = 0; j < k; ++j) {
      const NumericAgg* __restrict s = srcs[j] + i;
      if ((s[0].count | s[1].count | s[2].count | s[3].count) == 0) continue;
      for (size_t c = 0; c < kGroup; ++c) {
        d[c].sum += s[c].sum;
        d[c].count += s[c].count;
        d[c].min = std::min(d[c].min, s[c].min);
        d[c].max = std::max(d[c].max, s[c].max);
      }
    }
  }
  for (; i < n; ++i) {
    for (size_t j = 0; j < k; ++j) {
      if (srcs[j][i].count != 0) dst[i].Merge(srcs[j][i]);
    }
  }
}

}  // namespace detail

/// Maps external item ids to dense indices [0, size).
class ItemDictionary {
 public:
  /// Index of `id`, inserting it if new.
  int32_t GetOrAdd(int64_t id) {
    auto [it, inserted] = index_.emplace(id, ids_.size());
    if (inserted) ids_.push_back(id);
    return static_cast<int32_t>(it->second);
  }

  /// Index of `id`, or -1 if unknown.
  int32_t Find(int64_t id) const {
    auto it = index_.find(id);
    return it == index_.end() ? -1 : static_cast<int32_t>(it->second);
  }

  int64_t IdAt(int32_t index) const { return ids_[index]; }
  int32_t size() const { return static_cast<int32_t>(ids_.size()); }

 private:
  std::unordered_map<int64_t, size_t> index_;
  std::vector<int64_t> ids_;
};

/// A dense cube of accumulators over (candidate region, item) implementing
/// the CUBE operation of the rewritten feature queries (paper §4.2):
/// alpha_{Z, ID, f(A)} with the aggregate computed for *every* region, not
/// only the finest ones. Fill base cells from fact rows, then call Rollup()
/// once; afterwards Cell(r, i) holds the aggregate over all fact rows of
/// item i falling inside region r.
///
/// Rollup runs one in-place pass per dimension: child tree nodes merge into
/// their parents bottom-up (hierarchical dimensions), and window t merges
/// into window t+1 (incremental-interval dimensions). Both are exact because
/// the accumulators are distributive.
template <typename Acc>
class RegionItemCube {
 public:
  RegionItemCube(const RegionSpace* space, int32_t num_items)
      : space_(space),
        num_items_(num_items),
        cells_(static_cast<size_t>(space->NumRegions()) * num_items) {
    BW_CHECK(num_items >= 0);
    // Region-id strides, identical to RegionSpace's row-major layout.
    const size_t nd = space->num_dims();
    cards_.resize(nd);
    strides_.assign(nd, 1);
    for (size_t d = 0; d < nd; ++d) cards_[d] = DimensionCardinality(space->dim(d));
    for (size_t d = nd - 1; d-- > 0;) strides_[d] = strides_[d + 1] * cards_[d + 1];
  }

  int32_t num_items() const { return num_items_; }
  const RegionSpace& space() const { return *space_; }

  /// Cell for the *base* region of a fact point; use during the fill phase.
  Acc& BaseCell(const PointCoords& point, int32_t item) {
    return Cell(space_->Encode(space_->BaseCellOf(point)), item);
  }

  Acc& Cell(RegionId r, int32_t item) {
    BW_DCHECK(item >= 0 && item < num_items_);
    return cells_[static_cast<size_t>(r) * num_items_ + item];
  }
  const Acc& Cell(RegionId r, int32_t item) const {
    BW_DCHECK(item >= 0 && item < num_items_);
    return cells_[static_cast<size_t>(r) * num_items_ + item];
  }

  /// Performs the bottom-up CUBE rollup. Call exactly once, after all base
  /// cells are filled.
  void Rollup() {
    BW_CHECK(!rolled_up_);
    rolled_up_ = true;
    for (size_t d = 0; d < space_->num_dims(); ++d) {
      if (const auto* h =
              std::get_if<HierarchicalDimension>(&space_->dim(d))) {
        // Fan-in: all children of a node merge into it in one fused pass,
        // so the parent slice is read and written once instead of once per
        // child. Bottom-up order guarantees every child's subtree is
        // complete before the child is consumed as a source.
        for (NodeId n : h->NodesBottomUp()) {
          if (h->IsLeaf(n)) continue;
          MergeSliceFanIn(d, h->children(n), n);
        }
      } else {
        const auto& iv = std::get<IntervalDimension>(space_->dim(d));
        // Window-kind-specific merge schedule (prefix accumulation for
        // incremental windows; shorter-into-longer for sliding ones),
        // applied column-tile by column-tile so the window chain's tiles
        // stay cache-resident across the whole schedule. Merges are
        // element-wise, so tiling reorders work only across columns —
        // per-cell arithmetic order is identical to applying the schedule
        // slice by slice.
        MergeSlicesTiled(d, iv.RollupMerges());
      }
    }
  }

  bool rolled_up() const { return rolled_up_; }

 private:
  // Merges every cell whose dim-d coordinate is `from` into the cell with
  // coordinate `to` (all other coordinates and the item fixed). The regions
  // {hi + from*stride + lo : lo in [0, stride)} are consecutive region ids,
  // so in the row-major cells_ layout each hi block's slice is ONE
  // contiguous run of stride * num_items accumulators — merged flat
  // (vectorized for POD accumulators) instead of per-cell.
  void MergeSlice(size_t d, int32_t from, int32_t to) {
    const int64_t stride = strides_[d];               // in region units
    const int64_t block = stride * cards_[d];         // one full digit cycle
    const int64_t num_regions = space_->NumRegions();
    const size_t run = static_cast<size_t>(stride) * num_items_;
    for (int64_t hi = 0; hi < num_regions; hi += block) {
      const Acc* src =
          &cells_[static_cast<size_t>(hi + from * stride) * num_items_];
      Acc* dst = &cells_[static_cast<size_t>(hi + to * stride) * num_items_];
      detail::MergeAccRun(dst, src, run);
    }
  }

  // MergeSlice generalized to many sources: every `from` coordinate merges
  // into `to` in one fused pass (detail::MergeAccRunFanIn), srcs order
  // preserved.
  void MergeSliceFanIn(size_t d, const std::vector<int32_t>& from,
                       int32_t to) {
    if (from.empty()) return;
    const int64_t stride = strides_[d];
    const int64_t block = stride * cards_[d];
    const int64_t num_regions = space_->NumRegions();
    const size_t run = static_cast<size_t>(stride) * num_items_;
    std::vector<const Acc*> srcs(from.size());
    for (int64_t hi = 0; hi < num_regions; hi += block) {
      for (size_t k = 0; k < from.size(); ++k) {
        srcs[k] =
            &cells_[static_cast<size_t>(hi + from[k] * stride) * num_items_];
      }
      Acc* dst = &cells_[static_cast<size_t>(hi + to * stride) * num_items_];
      detail::MergeAccRunFanIn(dst, srcs.data(), srcs.size(), run);
    }
  }

  // Applies a (from, to) merge schedule column-tile by column-tile: a tile
  // of kTileCells accumulators is pushed through the *entire* schedule
  // before moving on, so a chain like the incremental-window prefix reuses
  // each freshly written tile from cache as the next merge's source
  // instead of re-streaming full slices from memory.
  void MergeSlicesTiled(
      size_t d, const std::vector<std::pair<int32_t, int32_t>>& merges) {
    constexpr size_t kTileCells = 4096;
    const int64_t stride = strides_[d];
    const int64_t block = stride * cards_[d];
    const int64_t num_regions = space_->NumRegions();
    const size_t run = static_cast<size_t>(stride) * num_items_;
    for (int64_t hi = 0; hi < num_regions; hi += block) {
      for (size_t off = 0; off < run; off += kTileCells) {
        const size_t len = std::min(kTileCells, run - off);
        for (const auto& [from, to] : merges) {
          const Acc* src =
              &cells_[static_cast<size_t>(hi + from * stride) * num_items_ +
                      off];
          Acc* dst =
              &cells_[static_cast<size_t>(hi + to * stride) * num_items_ +
                      off];
          detail::MergeAccRun(dst, src, len);
        }
      }
    }
  }

  const RegionSpace* space_;
  int32_t num_items_;
  std::vector<Acc> cells_;
  std::vector<int32_t> cards_;
  std::vector<int64_t> strides_;
  bool rolled_up_ = false;
};

/// The pi_FK cube: the CUBE form (§4.2) of the pi_FK feature queries (§4.1,
/// third form). Cell (r, i) is the set of distinct foreign keys item i
/// references inside region r. The caller ranks each item's K_i keys
/// 0..K_i-1; a cell is a bitset of ceil(K_i/64) words, bit b of word w
/// standing for rank 64w + b. Every region keeps all items' words side by
/// side in one row, so the cube is a RegionItemCube of words: set union is
/// distributive and is an OR of words, and Rollup() is the numeric cubes'
/// flat run merge. Memory is NumRegions * sum_i ceil(K_i/64) * 8 bytes.
class KeySetCube {
 public:
  /// `keys_per_item[i]` is K_i.
  KeySetCube(const RegionSpace* space,
             const std::vector<int32_t>& keys_per_item)
      : word_offsets_(WordOffsets(keys_per_item)),
        words_(space, word_offsets_.back()) {}

  /// sum_i ceil(K_i/64).
  int32_t words_per_region() const { return word_offsets_.back(); }

  /// Adds `rank` to item `item`'s set in region `r`; use on base regions
  /// during the fill phase.
  void Insert(RegionId r, int32_t item, int32_t rank) {
    BW_DCHECK(rank >= 0 &&
              word_offsets_[item] + (rank >> 6) < word_offsets_[item + 1]);
    words_.Cell(r, word_offsets_[item] + (rank >> 6)) |= uint64_t{1}
                                                         << (rank & 63);
  }

  /// The bottom-up CUBE rollup; call once, after the fill.
  void Rollup() { words_.Rollup(); }

  /// Calls fn(rank) for every rank in cell (r, item), in ascending order.
  template <typename Fn>
  void ForEachRank(RegionId r, int32_t item, Fn&& fn) const {
    const int32_t begin = word_offsets_[item];
    for (int32_t w = begin; w < word_offsets_[item + 1]; ++w) {
      for (uint64_t bits = words_.Cell(r, w); bits != 0; bits &= bits - 1) {
        fn((w - begin) * 64 + std::countr_zero(bits));
      }
    }
  }

 private:
  static std::vector<int32_t> WordOffsets(
      const std::vector<int32_t>& keys_per_item) {
    std::vector<int32_t> offsets(keys_per_item.size() + 1, 0);
    for (size_t i = 0; i < keys_per_item.size(); ++i) {
      BW_CHECK(keys_per_item[i] >= 0);
      offsets[i + 1] = offsets[i] + (keys_per_item[i] + 63) / 64;
    }
    return offsets;
  }

  std::vector<int32_t> word_offsets_;  // item i: words [off[i], off[i + 1])
  RegionItemCube<uint64_t> words_;
};

}  // namespace bellwether::olap

#endif  // BELLWETHER_OLAP_CUBE_H_
