#include "table/records.h"

#include <algorithm>
#include <map>
#include <set>

namespace gordian {

Status FlattenRecords(const std::vector<Record>& records, Table* out) {
  // Union of field paths, sorted for a deterministic column order.
  std::set<std::string> paths;
  for (const Record& rec : records) {
    std::set<std::string> in_record;
    for (const auto& [path, value] : rec) {
      if (!in_record.insert(path).second) {
        return Status::InvalidArgument("duplicate field '" + path +
                                       "' in record");
      }
      paths.insert(path);
    }
  }
  if (paths.empty()) {
    return Status::InvalidArgument("no fields in any record");
  }

  std::vector<std::string> names(paths.begin(), paths.end());
  std::map<std::string, int> position;
  for (size_t i = 0; i < names.size(); ++i) {
    position[names[i]] = static_cast<int>(i);
  }

  TableBuilder builder{Schema(names)};
  std::vector<Value> row(names.size());
  for (const Record& rec : records) {
    std::fill(row.begin(), row.end(), Value::Null());
    for (const auto& [path, value] : rec) row[position[path]] = value;
    builder.AddRow(row);
  }
  return builder.Build(out);
}

}  // namespace gordian
