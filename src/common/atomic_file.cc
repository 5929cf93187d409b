#include "common/atomic_file.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

namespace bellwether {

namespace {

Status WriteBody(const std::string& tmp,
                 const std::function<Status(std::ostream&)>& write_body) {
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IoError("cannot write " + tmp + ": " +
                           std::strerror(errno));
  }
  BW_RETURN_IF_ERROR(write_body(out));
  out.close();
  if (out.fail()) return Status::IoError("write failed: " + tmp);
  return Status::OK();
}

}  // namespace

Status WriteFileAtomically(
    const std::string& path,
    const std::function<Status(std::ostream&)>& write_body) {
  // Same directory as the destination, so the rename never crosses a file
  // system boundary.
  std::string tmp = path + ".tmp.XXXXXX";
  const int fd = mkstemp(tmp.data());
  if (fd < 0) {
    return Status::IoError("cannot create a temporary file for " + path +
                           ": " + std::strerror(errno));
  }
  // mkstemp creates the file 0600; artifacts keep the usual 0644.
  Status status = fchmod(fd, 0644) == 0
                      ? Status::OK()
                      : Status::IoError("cannot chmod " + tmp + ": " +
                                        std::strerror(errno));
  close(fd);
  if (status.ok()) status = WriteBody(tmp, write_body);
  if (status.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    status = Status::IoError("cannot rename " + tmp + " to " + path + ": " +
                             std::strerror(errno));
  }
  if (!status.ok()) std::remove(tmp.c_str());
  return status;
}

}  // namespace bellwether
