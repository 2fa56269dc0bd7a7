#include "service/table_artifacts.h"

#include <algorithm>
#include <cstdio>
#include <string_view>
#include <utility>
#include <vector>

#include "common/byte_codec.h"
#include "table/serialize.h"

namespace gordian {

namespace {

std::string FingerprintHex(uint64_t fingerprint) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  return std::string(buf, 16);
}

}  // namespace

TableArtifactStore::TableArtifactStore(std::string dir, Options options)
    : dir_(std::move(dir)), options_(options) {
  if (options_.fs == nullptr) options_.fs = DefaultFileSystem();
  if (options_.chunk_rows <= 0) options_.chunk_rows = kSpillChunkRows;
}

std::string TableArtifactStore::ArtifactDir(uint64_t fingerprint) const {
  return dir_ + "/" + FingerprintHex(fingerprint);
}

std::string TableArtifactStore::MetaPath(uint64_t fingerprint) const {
  return ArtifactDir(fingerprint) + "/meta.grdd";
}

std::string TableArtifactStore::ColumnPath(uint64_t fingerprint,
                                           int col) const {
  return ArtifactDir(fingerprint) + "/c" + std::to_string(col) + ".grdl";
}

Status TableArtifactStore::Init() { return fs()->CreateDir(dir_); }

bool TableArtifactStore::Contains(uint64_t fingerprint) {
  return fs()->FileExists(MetaPath(fingerprint));
}

Status TableArtifactStore::Put(uint64_t fingerprint, const Table& table) {
  if (Contains(fingerprint)) return Status::OK();
  Status s = Init();
  const std::string adir = ArtifactDir(fingerprint);
  if (s.ok()) s = fs()->CreateDir(adir);

  // Columns first: each GRDL file is published durably on its own (temp +
  // fsync + rename + dir fsync inside SpillColumnWriter::Finish), streamed
  // a chunk at a time so a spilled column never rematerializes in memory.
  int64_t bytes = 0;
  for (int c = 0; s.ok() && c < table.num_columns(); ++c) {
    const CodeColumn& codes = table.column_codes(c);
    const uint32_t null_code = table.dictionary(c).Lookup(Value::Null());
    SpillColumnWriter writer(fs(), ColumnPath(fingerprint, c),
                             options_.chunk_rows);
    for (int64_t row = 0; s.ok() && row < codes.size();
         row += options_.chunk_rows) {
      const int64_t n = std::min(options_.chunk_rows, codes.size() - row);
      s = writer.Append(codes.data() + row, n, null_code);
    }
    if (s.ok()) s = writer.Finish(table.dictionary(c).size(), null_code);
    bytes += codes.size() * static_cast<int64_t>(sizeof(uint32_t));
  }

  // Meta last — its successful rename is the artifact's commit point.
  std::string payload;
  if (s.ok()) {
    WriteSchemaAndDicts(table, &payload);
    AppendChecksum(&payload);
  }
  const std::string meta = MetaPath(fingerprint);
  const std::string tmp = meta + ".tmp";
  if (s.ok()) s = fs()->WriteFile(tmp, payload);
  if (s.ok()) s = fs()->SyncFile(tmp);
  if (s.ok()) s = fs()->Rename(tmp, meta);
  if (s.ok()) s = fs()->SyncDir(adir);
  if (s.ok()) s = fs()->SyncDir(dir_);

  if (s.ok()) {
    Add(options_.metrics, Counter::kArtifactPuts);
    Add(options_.metrics, Counter::kArtifactPutBytes,
        bytes + static_cast<int64_t>(payload.size()));
  } else {
    Add(options_.metrics, Counter::kArtifactPutErrors);
  }
  return s;
}

Status TableArtifactStore::Get(uint64_t fingerprint, Table* out) {
  const std::string meta = MetaPath(fingerprint);
  std::string payload;
  if (!fs()->FileExists(meta)) {
    return Status::NotFound("no table artifact for " +
                            FingerprintHex(fingerprint));
  }
  Status s = fs()->ReadFile(meta, &payload);
  auto corrupt = [&](const std::string& what) {
    Add(options_.metrics, Counter::kArtifactGetErrors);
    return Status::InvalidArgument("table artifact " + meta + ": " + what);
  };
  if (!s.ok()) {
    Add(options_.metrics, Counter::kArtifactGetErrors);
    return s;
  }
  std::string_view body;
  if (!VerifyChecksum(payload, &body)) {
    return corrupt("meta checksum mismatch or short file");
  }

  Schema schema;
  std::vector<std::shared_ptr<Dictionary>> dicts;
  int64_t num_rows = 0;
  s = ReadSchemaAndDicts(body, &schema, &dicts, &num_rows);
  if (!s.ok()) return corrupt(s.message());

  std::vector<CodeColumn> columns;
  columns.reserve(dicts.size());
  for (int c = 0; c < static_cast<int>(dicts.size()); ++c) {
    CodeColumn col;
    s = CodeColumn::OpenSpilled(fs(), ColumnPath(fingerprint, c),
                                dicts[c]->size(), &col);
    if (!s.ok()) return corrupt(s.message());
    if (col.size() != num_rows) {
      return corrupt("column " + std::to_string(c) + " has " +
                     std::to_string(col.size()) + " rows, meta says " +
                     std::to_string(num_rows));
    }
    columns.push_back(std::move(col));
  }
  *out = Table::FromCodeColumns(std::move(schema), std::move(dicts),
                                std::move(columns));
  Add(options_.metrics, Counter::kArtifactServes);
  return Status::OK();
}

}  // namespace gordian
