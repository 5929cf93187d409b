#ifndef BELLWETHER_COMMON_ATOMIC_FILE_H_
#define BELLWETHER_COMMON_ATOMIC_FILE_H_

#include <functional>
#include <iosfwd>
#include <string>

#include "common/status.h"

namespace bellwether {

/// Replaces the file at `path` with what `write_body` streams out, all or
/// nothing. The body goes to a unique temporary file (mkstemp) in `path`'s
/// directory, which is renamed over `path` only after `write_body` returned
/// OK and every byte reached the file. On any failure the temporary file is
/// removed and `path` keeps its previous contents (or stays absent), so a
/// crash or an error mid-save never leaves a truncated artifact, and
/// concurrent writers of one path never share a temporary file (the last
/// rename wins). The file gets mode 0644. Nothing is fsync'd: the
/// replacement survives a process crash, not a power loss.
Status WriteFileAtomically(
    const std::string& path,
    const std::function<Status(std::ostream&)>& write_body);

}  // namespace bellwether

#endif  // BELLWETHER_COMMON_ATOMIC_FILE_H_
