#ifndef BELLWETHER_COMMON_FINGERPRINT_H_
#define BELLWETHER_COMMON_FINGERPRINT_H_

#include <cstdint>
#include <string_view>

namespace bellwether {

/// FNV-1a 64 accumulator. Fingerprints the identity of a BellwetherState
/// (stored in the state file and checked on Open), a run report's config,
/// and the seed of a fault point's probabilistic trigger, so its values
/// must never change.
class FingerprintBuilder {
 public:
  /// Mixes the eight bytes of `v`, least significant first.
  FingerprintBuilder& Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) Mix(static_cast<uint8_t>(v >> (8 * i)));
    return *this;
  }
  FingerprintBuilder& AddBytes(std::string_view bytes) {
    for (const char c : bytes) Mix(static_cast<uint8_t>(c));
    return *this;
  }
  uint64_t value() const { return h_; }

 private:
  void Mix(uint8_t byte) {
    h_ ^= byte;
    h_ *= 0x100000001B3ULL;
  }

  uint64_t h_ = 0xCBF29CE484222325ULL;
};

}  // namespace bellwether

#endif  // BELLWETHER_COMMON_FINGERPRINT_H_
