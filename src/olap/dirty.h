#ifndef BELLWETHER_OLAP_DIRTY_H_
#define BELLWETHER_OLAP_DIRTY_H_

#include <cstdint>
#include <vector>

#include "olap/region.h"

namespace bellwether::olap {

/// Dense dirty-flag set over a region (or cube-subset) id space: O(1)
/// marking and lookup, and a running count. The incremental
/// cube-maintenance path uses one to track which lattice cells a delta
/// batch touched, so finalization re-derives only those instead of the
/// whole cube.
class DirtySet {
 public:
  /// Resizes the id space; all flags cleared.
  void Resize(int64_t size) {
    flags_.assign(static_cast<size_t>(size), 0);
    count_ = 0;
  }

  void Mark(RegionId id) {
    if (flags_[id] == 0) {
      flags_[id] = 1;
      ++count_;
    }
  }
  void Clear() {
    flags_.assign(flags_.size(), 0);
    count_ = 0;
  }
  bool IsMarked(RegionId id) const { return flags_[id] != 0; }
  int64_t count() const { return count_; }

 private:
  std::vector<uint8_t> flags_;
  int64_t count_ = 0;
};

}  // namespace bellwether::olap

#endif  // BELLWETHER_OLAP_DIRTY_H_
