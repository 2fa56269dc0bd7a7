#ifndef GORDIAN_CORE_REPORT_H_
#define GORDIAN_CORE_REPORT_H_

#include <string>
#include <vector>

#include "core/foreign_key.h"
#include "core/gordian.h"
#include "table/table.h"

namespace gordian {

// Machine- and human-consumable outputs of a profiling run. A downstream
// tool (index wizard, catalog browser, data-integration pipeline) wants the
// discovered metadata in a structured form; a DBA wants a picture. Both are
// derived from the same inputs: per-table discovery results and, optionally,
// cross-table foreign-key candidates.

// A profiled database: names, data, and per-table discovery results.
struct DatabaseProfile {
  struct Entry {
    std::string name;
    const Table* table = nullptr;
    KeyDiscoveryResult result;
  };
  std::vector<Entry> tables;
  std::vector<ForeignKeyCandidate> foreign_keys;
};

// JSON rendering of a profile: one object per table with rows/attributes,
// keys (attribute names, estimated/exact strengths), maximal non-keys,
// statistics, and the foreign-key candidate list. Stable field order,
// two-space indentation; strings are JSON-escaped.
std::string ProfileToJson(const DatabaseProfile& profile);

// Graphviz (DOT) entity-relationship diagram: one record-shaped node per
// table listing its attributes with the primary key candidate marked, and
// one edge per foreign-key candidate (labeled with coverage when < 1).
std::string ProfileToDot(const DatabaseProfile& profile);

// Helper exposed for tests: JSON string escaping per RFC 8259.
std::string JsonEscape(const std::string& s);

}  // namespace gordian

#endif  // GORDIAN_CORE_REPORT_H_
