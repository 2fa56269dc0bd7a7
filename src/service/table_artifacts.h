#ifndef GORDIAN_SERVICE_TABLE_ARTIFACTS_H_
#define GORDIAN_SERVICE_TABLE_ARTIFACTS_H_

#include <cstdint>
#include <string>

#include "common/fault_fs.h"
#include "common/status.h"
#include "service/metrics.h"
#include "table/code_column.h"
#include "table/table.h"

namespace gordian {

// Durable, fingerprint-addressed table storage next to the key catalog:
// once a table has been ingested (and possibly spilled) it can be persisted
// here and reattached later without re-parsing its source or rebuilding its
// dictionaries — the reloaded table's columns stay on disk as mmap-backed
// CodeColumns, so serving a 100M-row artifact costs dictionary memory only.
//
// On-disk layout (one subdirectory per table, named by its 16-hex-digit
// TableFingerprint — content-addressed, so a Put of an already-stored
// fingerprint is a no-op):
//
//   <dir>/<fingerprint>/meta.grdd    schema + dictionaries + row count
//                                    (serialize.h GRDD stream) followed by
//                                    a checksum (common/byte_codec.h)
//   <dir>/<fingerprint>/c<N>.grdl    column N's codes, one self-validating
//                                    GRDL file per column (code_column.h)
//
// Publication order makes a readable meta file the commit point: column
// files are each written via SpillColumnWriter's durable-replace sequence
// first, meta.grdd last (write temp + fsync + rename + directory fsync).
// A crash mid-Put leaves a directory without meta.grdd, which Contains/Get
// treat as absent and a retried Put simply overwrites.
//
// All I/O goes through the FileSystem seam; corrupt artifacts (checksum
// mismatch, truncated columns, row-count disagreement) fail Get with a
// clean InvalidArgument, never out-of-bounds decoding.
class TableArtifactStore {
 public:
  struct Options {
    FileSystem* fs = nullptr;           // null = DefaultFileSystem()
    int64_t chunk_rows = kSpillChunkRows;
    ServiceMetrics* metrics = nullptr;  // optional put/get counters
  };

  TableArtifactStore(std::string dir, Options options);
  explicit TableArtifactStore(std::string dir)
      : TableArtifactStore(std::move(dir), Options()) {}

  TableArtifactStore(const TableArtifactStore&) = delete;
  TableArtifactStore& operator=(const TableArtifactStore&) = delete;

  // Creates the root directory. Called lazily by Put as well; exposed so
  // callers can fail fast on an unusable path.
  Status Init();

  // True iff a complete artifact for `fingerprint` is published (its
  // meta.grdd exists — the commit point of Put).
  bool Contains(uint64_t fingerprint);

  // Persists `table` under its fingerprint. A no-op returning OK when the
  // fingerprint is already stored (same fingerprint = same contents). On
  // failure the partially written directory is left without its meta file,
  // i.e. absent to readers.
  Status Put(uint64_t fingerprint, const Table& table);

  // Reattaches a stored table: dictionaries reload into memory, columns
  // open as mmap-backed CodeColumns. NotFound when absent, InvalidArgument
  // when present but corrupt.
  Status Get(uint64_t fingerprint, Table* out);

  const std::string& dir() const { return dir_; }

  // Paths, exposed for tests and tooling.
  std::string ArtifactDir(uint64_t fingerprint) const;
  std::string MetaPath(uint64_t fingerprint) const;
  std::string ColumnPath(uint64_t fingerprint, int col) const;

 private:
  FileSystem* fs() const { return options_.fs; }

  const std::string dir_;
  Options options_;
};

}  // namespace gordian

#endif  // GORDIAN_SERVICE_TABLE_ARTIFACTS_H_
