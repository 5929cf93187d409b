#ifndef BELLWETHER_TABLE_CSV_H_
#define BELLWETHER_TABLE_CSV_H_

#include <string>

#include "common/status.h"
#include "robust/quarantine.h"
#include "table/table.h"

namespace bellwether::table {

/// Writes `t` as CSV with a header row, replacing `path` atomically
/// (common/atomic_file.h). Strings containing commas, quotes, or newlines
/// are quoted; nulls are written as empty fields.
Status WriteCsv(const Table& t, const std::string& path);

struct CsvReadOptions {
  /// kStrict: the first malformed row fails the whole read (no partial
  /// table is ever returned). kPermissive: malformed rows are counted,
  /// logged, and skipped; the read completes on the clean remainder.
  robust::RowErrorPolicy row_policy = robust::RowErrorPolicy::kStrict;
  /// Optional quarantine accounting for the read (counts + sampled errors).
  robust::QuarantineStats* stats = nullptr;
};

/// Reads a CSV written by WriteCsv (header required) into a table with the
/// given schema. Field count per row must match the schema; empty fields
/// become nulls. Errors carry path:line plus column context, and a failed
/// read never returns a partially-filled Table.
Result<Table> ReadCsv(const std::string& path, const Schema& schema,
                      const CsvReadOptions& options);

/// Strict-mode ReadCsv (historical signature).
Result<Table> ReadCsv(const std::string& path, const Schema& schema);

}  // namespace bellwether::table

#endif  // BELLWETHER_TABLE_CSV_H_
