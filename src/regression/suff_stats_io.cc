#include "regression/suff_stats_io.h"

#include <utility>
#include <vector>

namespace bellwether::regression {

namespace {

// Bounds on the serialized statistic header. A corrupt arity must not turn
// into a gigabyte triangle allocation, and a corrupt (or overflowed)
// example count must not silently poison degrees-of-freedom arithmetic
// downstream — 2^48 examples is far beyond anything a real accumulation
// reaches.
constexpr int32_t kMaxArity = 4096;
constexpr int64_t kMaxExamples = int64_t{1} << 48;

}  // namespace

void WriteSuffStats(ChecksummedWriter& out, const RegressionSuffStats& s) {
  out.Put(static_cast<int32_t>(s.num_features()));
  out.Put(s.num_examples());
  out.Put(s.sum_weights());
  out.Put(s.ytwy());
  out.PutArray(s.packed_xtwx().data(), s.packed_xtwx().size());
  out.PutArray(s.xtwy().data(), s.xtwy().size());
}

Result<RegressionSuffStats> ReadSuffStats(ChecksummedReader& in) {
  int32_t p = 0;
  int64_t n = 0;
  double sum_w = 0.0;
  double ytwy = 0.0;
  BW_RETURN_IF_ERROR(in.Get(&p));
  BW_RETURN_IF_ERROR(in.Get(&n));
  if (p < 0 || p > kMaxArity) {
    return Status::IoError("implausible feature count in suff-stats");
  }
  if (n < 0 || n > kMaxExamples) {
    return Status::IoError("implausible example count in suff-stats");
  }
  BW_RETURN_IF_ERROR(in.Get(&sum_w));
  BW_RETURN_IF_ERROR(in.Get(&ytwy));
  const size_t arity = static_cast<size_t>(p);
  std::vector<double> packed;
  BW_RETURN_IF_ERROR(
      in.GetVector(&packed, RegressionSuffStats::PackedSize(arity)));
  linalg::Vector xtwy;
  BW_RETURN_IF_ERROR(in.GetVector(&xtwy, arity));
  return RegressionSuffStats::FromPacked(arity, std::move(packed),
                                         std::move(xtwy), ytwy, n, sum_w);
}

}  // namespace bellwether::regression
