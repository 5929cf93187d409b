#ifndef BELLWETHER_REGRESSION_SUFF_STATS_IO_H_
#define BELLWETHER_REGRESSION_SUFF_STATS_IO_H_

#include "common/checksummed_io.h"
#include "common/status.h"
#include "regression/linear_model.h"

namespace bellwether::regression {

/// Binary wire format of one RegressionSuffStats in the bellwether state
/// file (common/checksummed_io.h framing):
///
///   int32 p, int64 n, double sum_w, double ytwy,
///   double packed[p*(p+1)/2], double xtwy[p]
///
/// The packed upper triangle is copied as raw doubles — no unpack to a full
/// p x p matrix, no re-pack on restore, and inf/NaN round-trip bit for bit.

/// Writes one statistic.
void WriteSuffStats(ChecksummedWriter& out, const RegressionSuffStats& s);

/// Reads one statistic. Corruption fails cleanly with kIoError: an
/// implausible feature arity (p outside [0, 4096]), an implausible or
/// negative example count (count overflow), or a truncated triangle never
/// turn into a huge allocation or a bogus statistic.
Result<RegressionSuffStats> ReadSuffStats(ChecksummedReader& in);

}  // namespace bellwether::regression

#endif  // BELLWETHER_REGRESSION_SUFF_STATS_IO_H_
