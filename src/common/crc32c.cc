#include "common/crc32c.h"

#include <array>
#include <cstring>

// Runtime-dispatched SSE4.2 kernel (GCC/Clang function target attribute; no
// global -march change), the same scheme as the AVX2 rollup in olap/cube.h.
#if defined(__x86_64__) && defined(__GNUC__)
#define BW_CRC32C_X86_DISPATCH 1
#include <nmmintrin.h>
#endif

namespace bellwether {

namespace crc32c_internal {

namespace {

constexpr uint32_t kPolynomial = 0x82F63B78u;  // reflected Castagnoli

constexpr std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c >> 1) ^ (kPolynomial & (0u - (c & 1u)));
    }
    table[i] = c;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kTable = MakeTable();

}  // namespace

uint32_t Crc32cTable(uint32_t crc, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = ~crc;
  for (size_t i = 0; i < n; ++i) c = kTable[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return ~c;
}

#ifdef BW_CRC32C_X86_DISPATCH

__attribute__((target("sse4.2"))) uint32_t Crc32cHardware(uint32_t crc,
                                                           const void* data,
                                                           size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = ~crc;
  // Single bytes up to 8-byte alignment, then one instruction per 8 bytes.
  for (; n > 0 && (reinterpret_cast<uintptr_t>(p) & 7u) != 0; --n) {
    c = _mm_crc32_u8(c, *p++);
  }
  uint64_t c64 = c;
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));
    c64 = _mm_crc32_u64(c64, word);
  }
  c = static_cast<uint32_t>(c64);
  for (; n > 0; --n) c = _mm_crc32_u8(c, *p++);
  return ~c;
}

bool HasHardwareCrc32c() {
  static const bool has = __builtin_cpu_supports("sse4.2");
  return has;
}

#else

uint32_t Crc32cHardware(uint32_t crc, const void* data, size_t n) {
  return Crc32cTable(crc, data, n);
}

bool HasHardwareCrc32c() { return false; }

#endif

}  // namespace crc32c_internal

uint32_t Crc32c(uint32_t crc, const void* data, size_t n) {
  return crc32c_internal::HasHardwareCrc32c()
             ? crc32c_internal::Crc32cHardware(crc, data, n)
             : crc32c_internal::Crc32cTable(crc, data, n);
}

}  // namespace bellwether
