#ifndef GORDIAN_TABLE_RECORDS_H_
#define GORDIAN_TABLE_RECORDS_H_

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "table/table.h"

namespace gordian {

// Support for profiling semi-structured entities. The paper applies GORDIAN
// to "any collection of entities, e.g., ... key leaf-node sets in a
// collection of XML documents with a common schema": such a collection is a
// bag of (path, value) records. FlattenRecords turns it into a Table whose
// columns are the union of all leaf paths (sorted for determinism); fields a
// record lacks become NULL.

// One semi-structured entity: field path -> value.
using Record = std::vector<std::pair<std::string, Value>>;

// Flattens the records into a table. Duplicate field names within one
// record are rejected, and so is a union of more than
// AttributeSet::kMaxAttributes paths (InvalidArgument).
Status FlattenRecords(const std::vector<Record>& records, Table* out);

}  // namespace gordian

#endif  // GORDIAN_TABLE_RECORDS_H_
