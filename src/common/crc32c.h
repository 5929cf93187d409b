#ifndef BELLWETHER_COMMON_CRC32C_H_
#define BELLWETHER_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace bellwether {

/// CRC-32C (Castagnoli, reflected polynomial 0x82F63B78), the checksum of the
/// binary artifact trailers. Extends `crc` — the CRC of the bytes before
/// `data` (0 for none) — over `n` more bytes, so a stream can be checksummed
/// chunk by chunk: Crc32c(Crc32c(0, a, na), b, nb) == CRC of a followed by b.
/// Runs on the SSE4.2 crc32 instruction when the host has it, else on a
/// byte-wise table; both give the same value.
uint32_t Crc32c(uint32_t crc, const void* data, size_t n);

namespace crc32c_internal {

/// The two implementations behind Crc32c, exposed so tests can check them
/// against each other. Crc32cHardware requires HasHardwareCrc32c().
uint32_t Crc32cTable(uint32_t crc, const void* data, size_t n);
uint32_t Crc32cHardware(uint32_t crc, const void* data, size_t n);
bool HasHardwareCrc32c();

}  // namespace crc32c_internal

}  // namespace bellwether

#endif  // BELLWETHER_COMMON_CRC32C_H_
