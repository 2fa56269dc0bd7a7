#ifndef GORDIAN_TABLE_SERIALIZE_H_
#define GORDIAN_TABLE_SERIALIZE_H_

#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "table/table.h"

namespace gordian {

// Compact binary persistence for tables, so repeated profiling runs skip
// CSV/XML parsing and dictionary rebuilding. The GRDT format, written with
// the codec of common/byte_codec.h:
//
//   magic "GRDT", format version (u32),
//   column count (u32), row count (u64),
//   per column: name, dictionary (u32 size, typed values in code order),
//   then the code vector (one u32 per row).
//
// A round trip preserves the table exactly — names, each dictionary in code
// order (values no row uses included) and every code — so a row sample
// (Table::SampleRows shares its parent's dictionaries) or a FromColumns
// table keeps its fingerprint (table/fingerprint.h), and the RPC layer
// (src/net) ships a table to its shard-owner worker as exactly these bytes.
// Loading validates magic, version, type tags, code ranges, duplicate
// dictionary values and truncation, and refuses any count the remaining
// bytes cannot hold: corrupt input gives InvalidArgument, never a crash or
// an oversized allocation.

// Writes `table` to `path`, overwriting it.
Status WriteTableFile(const Table& table, const std::string& path);

// Reads a table written by WriteTableFile.
Status ReadTableFile(const std::string& path, Table* out);

// The same bytes in memory: appended to *out, or written to a stream.
void WriteTable(const Table& table, std::string* out);
Status WriteTable(const Table& table, std::ostream& os);
Status ReadTable(std::string_view bytes, Table* out);

// GRDD, the metadata half of a spilled table artifact: the GRDT layout
// under magic "GRDD" without the code vectors (those live in per-column
// GRDL files next to it — see service/table_artifacts.h). Reading rebuilds
// each Dictionary with its original code assignment.
void WriteSchemaAndDicts(const Table& table, std::string* out);
Status ReadSchemaAndDicts(std::string_view bytes, Schema* schema,
                          std::vector<std::shared_ptr<Dictionary>>* dicts,
                          int64_t* num_rows);

}  // namespace gordian

#endif  // GORDIAN_TABLE_SERIALIZE_H_
