#ifndef BELLWETHER_COMMON_CHECKSUMMED_IO_H_
#define BELLWETHER_COMMON_CHECKSUMMED_IO_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/status.h"

namespace bellwether {

// Binary bodies are raw host-order fields, like the spill file; the formats
// are defined as little-endian.
static_assert(std::endian::native == std::endian::little,
              "binary artifact formats assume a little-endian host");

/// Buffered binary output with a running CRC-32C over every byte written.
/// Small fields are staged in a 64 KiB buffer; arrays at least that large
/// are checksummed and written straight from the caller's memory, so a
/// writer never holds more than one buffer of the output.
class ChecksummedWriter {
 public:
  explicit ChecksummedWriter(std::ostream& out);
  ChecksummedWriter(const ChecksummedWriter&) = delete;
  ChecksummedWriter& operator=(const ChecksummedWriter&) = delete;

  template <typename T>
  void Put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (sizeof(T) <= kBufferBytes - used_) {
      std::memcpy(buffer_.get() + used_, &v, sizeof(T));
      used_ += sizeof(T);
    } else {
      Append(&v, sizeof(T));
    }
  }

  template <typename T>
  void PutArray(const T* data, size_t n) {
    static_assert(std::is_trivially_copyable_v<T>);
    Append(data, n * sizeof(T));
  }

  /// Hands the staged bytes to the stream and returns the CRC-32C of
  /// everything written so far. Stream errors surface on the stream.
  uint32_t Flush();

 private:
  static constexpr size_t kBufferBytes = size_t{1} << 16;

  void Append(const void* data, size_t bytes);

  std::ostream& out_;
  std::unique_ptr<char[]> buffer_;
  size_t used_ = 0;
  uint32_t crc_ = 0;
};

/// Buffered binary input over exactly `size` bytes of a stream, with a
/// running CRC-32C over every byte read. Every read is checked against the
/// bytes left, and GetVector checks a count before it resizes anything, so
/// a truncated file or a corrupt count fails with kIoError instead of
/// reading garbage or allocating more than the file holds. Arrays at least
/// one buffer large are read straight into their destination.
class ChecksummedReader {
 public:
  ChecksummedReader(std::istream& in, uint64_t size);
  ChecksummedReader(const ChecksummedReader&) = delete;
  ChecksummedReader& operator=(const ChecksummedReader&) = delete;

  template <typename T>
  Status Get(T* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (sizeof(T) <= end_ - pos_) {
      std::memcpy(v, buffer_.get() + pos_, sizeof(T));
      pos_ += sizeof(T);
      return Status::OK();
    }
    return Read(v, sizeof(T));
  }

  /// Resizes `v` to `n` elements and fills it; kIoError, with `v`
  /// untouched, when `n` elements do not fit in the bytes left.
  template <typename T>
  Status GetVector(std::vector<T>* v, uint64_t n) {
    static_assert(std::is_trivially_copyable_v<T>);
    BW_RETURN_IF_ERROR(CheckFits(n, sizeof(T)));
    v->resize(static_cast<size_t>(n));
    return Read(v->data(), static_cast<size_t>(n) * sizeof(T));
  }

  /// kIoError unless `n` elements of `element_bytes` each fit in the bytes
  /// left.
  Status CheckFits(uint64_t n, uint64_t element_bytes) const;

  uint64_t remaining() const { return unread_ + (end_ - pos_); }
  /// CRC-32C of every byte taken from the stream so far; that is every
  /// byte read once remaining() is 0.
  uint32_t crc() const { return crc_; }

 private:
  static constexpr size_t kBufferBytes = size_t{1} << 16;

  Status Read(void* dst, size_t bytes);
  Status FromStream(char* dst, size_t bytes);

  std::istream& in_;
  std::unique_ptr<char[]> buffer_;
  size_t pos_ = 0;
  size_t end_ = 0;
  uint64_t unread_ = 0;  // bytes of the span not yet taken from the stream
  uint32_t crc_ = 0;
};

/// Reads the text magic line that starts every bellwether artifact. An
/// artifact of the wrong kind or version is kFailedPrecondition (the caller
/// picked the wrong loader, or the file predates the current format);
/// anything else is kInvalidArgument, and an empty file kIoError.
Status CheckMagicLine(std::istream& in, std::string_view magic,
                      const std::string& path);

/// Binary artifact framing of the bellwether state file:
///
///   <magic>\n                text line, outside the checksum
///   body                     raw little-endian fields (write_body)
///   end marker               uint64 "BWENDMRK"
///   CRC-32C                  uint32 over body and end marker
///
/// and nothing after it. Written atomically (common/atomic_file.h).
Status WriteChecksummedFile(
    const std::string& path, std::string_view magic,
    const std::function<Status(ChecksummedWriter&)>& write_body);

/// Streams a file written by WriteChecksummedFile through `read_body`. The
/// end marker must follow the body, the CRC must match, and no byte may
/// follow the trailer; each failure is kIoError. A body that reports an
/// error stops the read with that error.
Status ReadChecksummedFile(
    const std::string& path, std::string_view magic,
    const std::function<Status(ChecksummedReader&)>& read_body);

}  // namespace bellwether

#endif  // BELLWETHER_COMMON_CHECKSUMMED_IO_H_
