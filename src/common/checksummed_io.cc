#include "common/checksummed_io.h"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>

#include "common/atomic_file.h"
#include "common/crc32c.h"

namespace bellwether {

namespace {

constexpr uint64_t kEndMarker = 0x4B524D444E455742ULL;  // "BWENDMRK"

// A file of another kind may hold no newline at all; the magic check must
// not read it whole looking for one.
constexpr size_t kMaxMagicLineBytes = 256;

Status CheckMagicLine(std::istream& in, std::string_view magic,
                      const std::string& path) {
  std::string line;
  bool newline = false;
  char c = 0;
  while (line.size() < kMaxMagicLineBytes && in.get(c)) {
    if (c == '\n') {
      newline = true;
      break;
    }
    line.push_back(c);
  }
  if (line.empty() && !newline) {
    return Status::IoError(path + ": empty file, expected " +
                           std::string(magic));
  }
  if (line == magic) return Status::OK();
  if (line.rfind("bellwether-", 0) == 0) {
    return Status::FailedPrecondition(path + ": format '" + line +
                                      "' does not match expected '" +
                                      std::string(magic) + "'");
  }
  return Status::InvalidArgument(path + ": not a " + std::string(magic) +
                                 " file");
}

}  // namespace

ChecksummedWriter::ChecksummedWriter(std::ostream& out)
    : out_(out), buffer_(new char[kBufferBytes]) {}

void ChecksummedWriter::Append(const void* data, size_t bytes) {
  if (bytes == 0) return;
  const char* p = static_cast<const char*>(data);
  if (bytes <= kBufferBytes - used_) {
    std::memcpy(buffer_.get() + used_, p, bytes);
    used_ += bytes;
    return;
  }
  Flush();
  if (bytes < kBufferBytes) {
    std::memcpy(buffer_.get(), p, bytes);
    used_ = bytes;
    return;
  }
  crc_ = Crc32c(crc_, p, bytes);
  out_.write(p, static_cast<std::streamsize>(bytes));
}

uint32_t ChecksummedWriter::Flush() {
  if (used_ > 0) {
    crc_ = Crc32c(crc_, buffer_.get(), used_);
    out_.write(buffer_.get(), static_cast<std::streamsize>(used_));
    used_ = 0;
  }
  return crc_;
}

ChecksummedReader::ChecksummedReader(std::istream& in, uint64_t size)
    : in_(in), buffer_(new char[kBufferBytes]), unread_(size) {}

Status ChecksummedReader::CheckFits(uint64_t n, uint64_t element_bytes) const {
  if (element_bytes != 0 && n > remaining() / element_bytes) {
    return Status::IoError("corrupt count: " + std::to_string(n) + " x " +
                           std::to_string(element_bytes) +
                           " bytes exceeds the " +
                           std::to_string(remaining()) +
                           " bytes left in the file");
  }
  return Status::OK();
}

Status ChecksummedReader::Read(void* dst, size_t bytes) {
  if (bytes == 0) return Status::OK();
  if (bytes > remaining()) {
    return Status::IoError("truncated file: " + std::to_string(bytes) +
                           " bytes needed, " + std::to_string(remaining()) +
                           " left");
  }
  char* out = static_cast<char*>(dst);
  const size_t buffered = std::min(bytes, end_ - pos_);
  std::memcpy(out, buffer_.get() + pos_, buffered);
  pos_ += buffered;
  out += buffered;
  bytes -= buffered;
  if (bytes == 0) return Status::OK();
  // The buffer is drained. Large arrays go straight to their destination.
  if (bytes >= kBufferBytes) return FromStream(out, bytes);
  const size_t fill =
      static_cast<size_t>(std::min<uint64_t>(kBufferBytes, unread_));
  BW_RETURN_IF_ERROR(FromStream(buffer_.get(), fill));
  end_ = fill;
  std::memcpy(out, buffer_.get(), bytes);
  pos_ = bytes;
  return Status::OK();
}

Status ChecksummedReader::FromStream(char* dst, size_t bytes) {
  in_.read(dst, static_cast<std::streamsize>(bytes));
  if (static_cast<size_t>(in_.gcount()) != bytes) {
    return Status::IoError("short read (file changed while reading?)");
  }
  unread_ -= bytes;
  crc_ = Crc32c(crc_, dst, bytes);
  return Status::OK();
}

Status WriteChecksummedFile(
    const std::string& path, std::string_view magic,
    const std::function<Status(ChecksummedWriter&)>& write_body) {
  return WriteFileAtomically(path, [&](std::ostream& out) -> Status {
    out << magic << '\n';
    ChecksummedWriter body(out);
    BW_RETURN_IF_ERROR(write_body(body));
    body.Put(kEndMarker);
    const uint32_t crc = body.Flush();
    out.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
    return Status::OK();
  });
}

Status ReadChecksummedFile(
    const std::string& path, std::string_view magic,
    const std::function<Status(ChecksummedReader&)>& read_body) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot read " + path);
  BW_RETURN_IF_ERROR(CheckMagicLine(in, magic, path));
  const std::streamoff body_start = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streamoff file_end = in.tellg();
  in.seekg(body_start);
  if (!in || body_start < 0 || file_end < body_start) {
    return Status::IoError(path + ": truncated after the magic line");
  }
  const uint64_t span = static_cast<uint64_t>(file_end - body_start);
  if (span < sizeof(kEndMarker) + sizeof(uint32_t)) {
    return Status::IoError(path + ": truncated (no end marker or checksum)");
  }
  // The last four bytes are the trailer; the reader covers everything
  // before it, so a body count can never claim the trailer's bytes.
  ChecksummedReader body(in, span - sizeof(uint32_t));
  BW_RETURN_IF_ERROR(read_body(body));
  uint64_t marker = 0;
  BW_RETURN_IF_ERROR(body.Get(&marker));
  if (marker != kEndMarker) {
    return Status::IoError(path + ": missing end marker");
  }
  if (body.remaining() != 0) {
    return Status::IoError(path + ": unexpected bytes after the end marker");
  }
  uint32_t stored = 0;
  in.read(reinterpret_cast<char*>(&stored), sizeof(stored));
  if (in.gcount() != static_cast<std::streamsize>(sizeof(stored))) {
    return Status::IoError(path + ": truncated checksum");
  }
  if (stored != body.crc()) {
    return Status::IoError(path + ": checksum mismatch (corrupt file)");
  }
  return Status::OK();
}

}  // namespace bellwether
