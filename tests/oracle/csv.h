#ifndef GORDIAN_TESTS_ORACLE_CSV_H_
#define GORDIAN_TESTS_ORACLE_CSV_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "table/csv.h"
#include "table/value.h"

namespace gordian {

// The reference CSV reader: the whole file is read into memory and split
// by one RFC-4180 state machine a byte at a time, each field goes through
// ParseCsvField's strtoll -> strtod -> string chain, and codes come from an
// ordered map in first-seen order rather than from a Dictionary. ReadCsv is
// pinned against it: same names, same values in code order, same codes, and
// the same Status code and message on every input it rejects.
struct OracleCsvTable {
  std::vector<std::string> names;
  int64_t num_rows = 0;
  // Per column: the distinct values in code order (first seen under
  // Value ==), and one code per row.
  std::vector<std::vector<Value>> dictionaries;
  std::vector<std::vector<uint32_t>> codes;
};

Status OracleReadCsv(const std::string& path, const CsvOptions& options,
                     OracleCsvTable* out);

// Splits one CSV record respecting RFC-4180 quoting (single-line form; a
// CR outside quotes is dropped).
Status SplitCsvRecord(const std::string& line, char delimiter,
                      std::vector<std::string>* fields);

// Converts one raw field to a Value: with inference, empty is NULL, a field
// strtoll consumes whole without overflow is an int64, else one strtod
// consumes whole without a range error is a double, else it is a string.
Value ParseCsvField(const std::string& field, bool infer_types);

}  // namespace gordian

#endif  // GORDIAN_TESTS_ORACLE_CSV_H_
