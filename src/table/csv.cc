#include "table/csv.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string_view>
#include <vector>

#include "common/string_util.h"
#include "obs/logger.h"
#include "obs/metrics.h"
#include "robust/fault_injection.h"

namespace bellwether::table {

namespace {

bool NeedsQuoting(const std::string& s) {
  return s.find_first_of(",\"\n") != std::string::npos;
}

std::string QuoteField(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

Status WriteCsv(const Table& t, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::IoError("cannot open for write: " + path + ": " +
                           std::strerror(errno));
  }
  for (size_t c = 0; c < t.schema().num_fields(); ++c) {
    if (c) out << ',';
    out << t.schema().field(c).name;
  }
  out << '\n';
  for (size_t r = 0; r < t.num_rows(); ++r) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      if (c) out << ',';
      const Value v = t.ValueAt(r, c);
      if (v.is_null()) continue;
      const std::string s = v.ToString();
      out << (NeedsQuoting(s) ? QuoteField(s) : s);
    }
    out << '\n';
  }
  out.flush();
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

namespace {

// Reads the whole file into `buf`, followed by one NUL byte, so that the
// last field of a final line without '\n' can be terminated in place.
Status ReadFile(const std::string& path, std::string* buf) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (f == nullptr) {
    return Status::IoError("cannot open for read: " + path + ": " +
                           std::strerror(errno));
  }
  struct stat st {};
  if (fstat(fileno(f.get()), &st) == 0 && st.st_size > 0) {
    buf->reserve(static_cast<size_t>(st.st_size) + 1);
  }
  char chunk[1 << 16];
  size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof chunk, f.get())) > 0) {
    buf->append(chunk, n);
  }
  if (std::ferror(f.get())) {
    return Status::IoError("read failed: " + path + ": " +
                           std::strerror(errno));
  }
  if (buf->empty()) {
    return Status::IoError("empty CSV (missing header): " + path);
  }
  buf->push_back('\0');
  return Status::OK();
}

// Splits the physical line [p, end) into `fields` in place. Quotes may open
// and close anywhere in a field and are removed; inside quotes a doubled
// quote is one quote. Each field is NUL-terminated where it ends, so it is
// a C string inside the line. A field's unescaped text is never longer
// than its source, so the write cursor never passes the read cursor; `*end`
// must be writable.
Status SplitInPlace(char* p, char* end,
                    std::vector<std::string_view>* fields) {
  fields->clear();
  char* out = p;
  char* field = p;
  bool in_quotes = false;
  for (; p < end; ++p) {
    const char c = *p;
    if (in_quotes) {
      if (c != '"') {
        *out++ = c;
      } else if (p + 1 < end && p[1] == '"') {
        *out++ = '"';
        ++p;
      } else {
        in_quotes = false;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields->emplace_back(field, out - field);
      *out++ = '\0';
      field = out;
    } else {
      *out++ = c;
    }
  }
  if (in_quotes) return Status::InvalidArgument("unterminated quote in CSV");
  fields->emplace_back(field, out - field);
  *out = '\0';
  return Status::OK();
}

// End of the physical line that starts at p: its '\n', or `end`.
char* LineEnd(char* p, char* end) {
  char* eol = static_cast<char*>(std::memchr(p, '\n', end - p));
  return eol == nullptr ? end : eol;
}

Status BadField(const Schema& schema, size_t c, const char* type,
                std::string_view f) {
  return Status::InvalidArgument("column '" + schema.field(c).name + "' (#" +
                                 std::to_string(c) + "): bad " + type + " '" +
                                 std::string(f) + "'");
}

// Parses one physical line [line, eol) into `row`; the whole record is
// checked before the caller appends it. Errors name the offending column so
// a bad value in a wide fact table is findable.
Status ParseLine(const Schema& schema, char* line, char* eol,
                 std::vector<std::string_view>* fields,
                 std::vector<Value>* row) {
  if (robust::ShouldCorrupt(robust::kFaultCsvRow)) {
    return Status::InvalidArgument("injected corrupt row");
  }
  BW_RETURN_IF_ERROR(SplitInPlace(line, eol, fields));
  if (fields->size() != schema.num_fields()) {
    return Status::InvalidArgument(
        "expected " + std::to_string(schema.num_fields()) + " fields, got " +
        std::to_string(fields->size()));
  }
  for (size_t c = 0; c < fields->size(); ++c) {
    const std::string_view f = (*fields)[c];
    if (f.empty()) {
      (*row)[c] = Value::Null();
      continue;
    }
    // f is NUL-terminated, so the parse must end exactly at its end.
    char* end = nullptr;
    errno = 0;
    switch (schema.field(c).type) {
      case DataType::kInt64: {
        const long long v = std::strtoll(f.data(), &end, 10);
        if (errno != 0 || end == f.data() || *end != '\0') {
          return BadField(schema, c, "int64", f);
        }
        (*row)[c] = Value(static_cast<int64_t>(v));
        break;
      }
      case DataType::kDouble: {
        const double v = std::strtod(f.data(), &end);
        if (errno != 0 || end == f.data() || *end != '\0') {
          return BadField(schema, c, "double", f);
        }
        (*row)[c] = Value(v);
        break;
      }
      case DataType::kString:
        (*row)[c] = Value(std::string(f));
        break;
    }
  }
  return Status::OK();
}

}  // namespace

Result<Table> ReadCsv(const std::string& path, const Schema& schema,
                      const CsvReadOptions& options) {
  std::string buf;
  BW_RETURN_IF_ERROR(ReadFile(path, &buf));
  char* const end = buf.data() + buf.size() - 1;  // before the sentinel
  // The header line is skipped unparsed.
  char* p = std::min(LineEnd(buf.data(), end) + 1, end);
  // The table is built locally and only returned on success, so a failed
  // strict read can never hand back partially-filled state.
  Table out(schema);
  std::vector<Value> row(schema.num_fields());
  std::vector<std::string_view> fields;
  robust::QuarantineStats local_stats;
  robust::QuarantineStats* stats =
      options.stats != nullptr ? options.stats : &local_stats;
  static obs::Counter* quarantined =
      obs::DefaultMetrics().GetCounter(obs::kMCsvRowsQuarantined);
  size_t line_no = 1;
  while (p < end) {
    // One physical line per record: a newline inside quotes ends the line
    // and leaves its quote unterminated.
    char* const line = p;
    char* const eol = LineEnd(line, end);
    p = std::min(eol + 1, end);
    ++line_no;
    if (eol == line) continue;
    ++stats->rows_seen;
    const Status st = ParseLine(schema, line, eol, &fields, &row);
    if (!st.ok()) {
      const std::string context =
          path + ":" + std::to_string(line_no) + ": " + st.message();
      if (options.row_policy == robust::RowErrorPolicy::kStrict) {
        return Status(st.code(), context);
      }
      stats->Quarantine(context);
      quarantined->Increment();
      BW_LOG(obs::LogLevel::kWarn, "table.csv")
          << "quarantined row: " << context;
      continue;
    }
    out.AppendRow(row);
  }
  return out;
}

Result<Table> ReadCsv(const std::string& path, const Schema& schema) {
  return ReadCsv(path, schema, CsvReadOptions{});
}

}  // namespace bellwether::table
