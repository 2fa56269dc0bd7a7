#include "table/code_column.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/byte_codec.h"
#include "common/hashing.h"

namespace gordian {

namespace {

constexpr std::string_view kMagic = "GRDL";
constexpr uint32_t kFormatVersion = 1;
constexpr size_t kTrailerBytes = 56;
constexpr size_t kChunkStatBytes = 16;

Status Corrupt(const std::string& path, const std::string& what) {
  return Status::InvalidArgument("spilled column " + path + ": " + what);
}

std::string DirOf(const std::string& path) {
  size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string(".")
                                    : path.substr(0, slash);
}

}  // namespace

CodeColumn CodeColumn::Resident(std::vector<uint32_t> codes) {
  CodeColumn out;
  out.size_ = static_cast<int64_t>(codes.size());
  out.resident_ =
      std::make_shared<const std::vector<uint32_t>>(std::move(codes));
  out.data_ = out.resident_->data();
  return out;
}

Status CodeColumn::OpenSpilled(FileSystem* fs, const std::string& path,
                               uint32_t dict_size, CodeColumn* out) {
  if (fs == nullptr) fs = DefaultFileSystem();
  std::shared_ptr<MappedRegion> region;
  Status s = fs->MapFile(path, &region);
  if (!s.ok()) return s;
  if (region->size() < kTrailerBytes) {
    return Corrupt(path, "file shorter than trailer");
  }
  const std::string_view trailer(
      region->data() + region->size() - kTrailerBytes, kTrailerBytes);
  ByteReader r(trailer);
  if (!r.Magic(kMagic)) return Corrupt(path, "bad magic");
  uint32_t version, chunk_rows, stored_dict_size, null_code, num_chunks;
  uint64_t rows, codes_bytes;
  if (!r.U32(&version) || !r.U64(&rows) || !r.U32(&chunk_rows) ||
      !r.U32(&stored_dict_size) || !r.U32(&null_code) ||
      !r.U32(&num_chunks) || !r.U64(&codes_bytes)) {
    return Corrupt(path, "short trailer");
  }
  if (version != kFormatVersion) {
    return Corrupt(path, "unsupported version " + std::to_string(version));
  }
  std::string_view body;
  if (!VerifyChecksum(trailer, &body)) {
    return Corrupt(path, "trailer checksum mismatch");
  }

  if (rows > 0 && chunk_rows == 0) return Corrupt(path, "zero chunk size");
  if (codes_bytes != rows * sizeof(uint32_t)) {
    return Corrupt(path, "code-section size disagrees with row count");
  }
  uint64_t expect_chunks =
      rows == 0 ? 0 : (rows + chunk_rows - 1) / chunk_rows;
  if (num_chunks != expect_chunks) {
    return Corrupt(path, "chunk count disagrees with row count");
  }
  uint64_t expect_size = codes_bytes +
                         uint64_t{num_chunks} * kChunkStatBytes +
                         kTrailerBytes;
  if (region->size() != expect_size) {
    return Corrupt(path, "file size disagrees with trailer");
  }
  if (stored_dict_size != dict_size) {
    return Corrupt(path, "dictionary size mismatch (file " +
                             std::to_string(stored_dict_size) +
                             ", expected " + std::to_string(dict_size) + ")");
  }
  if (null_code != UINT32_MAX && null_code >= dict_size) {
    return Corrupt(path, "null code out of dictionary range");
  }

  auto meta = std::make_shared<SpillMeta>();
  meta->path = path;
  meta->region = region;
  meta->chunk_rows = static_cast<int64_t>(chunk_rows);
  meta->dict_size = dict_size;
  meta->null_code = null_code;
  meta->chunks.resize(num_chunks);

  const char* codes_base = region->data();
  const uint32_t* codes = reinterpret_cast<const uint32_t*>(codes_base);
  ByteReader stats(std::string_view(codes_base + codes_bytes,
                                    size_t{num_chunks} * kChunkStatBytes));
  for (uint32_t i = 0; i < num_chunks; ++i) {
    ChunkStat& cs = meta->chunks[i];
    if (!stats.U64(&cs.hash) || !stats.U32(&cs.max_code) ||
        !stats.U32(&cs.null_count)) {
      return Corrupt(path, "short chunk table");
    }

    uint64_t begin = uint64_t{i} * chunk_rows;
    uint64_t count = std::min<uint64_t>(chunk_rows, rows - begin);
    std::string_view bytes(codes_base + begin * sizeof(uint32_t),
                           count * sizeof(uint32_t));
    if (HashBytes(bytes) != cs.hash) {
      return Corrupt(path, "chunk " + std::to_string(i) +
                               " checksum mismatch");
    }
    uint32_t max_code = 0;
    uint32_t null_count = 0;
    for (uint64_t r = begin; r < begin + count; ++r) {
      max_code = std::max(max_code, codes[r]);
      null_count += codes[r] == null_code ? 1 : 0;
    }
    if (max_code != cs.max_code || max_code >= dict_size) {
      return Corrupt(path, "chunk " + std::to_string(i) +
                               " codes exceed the dictionary");
    }
    if (null_count != cs.null_count) {
      return Corrupt(path, "chunk " + std::to_string(i) +
                               " null count mismatch");
    }
    meta->null_total += null_count;
  }

  CodeColumn col;
  col.size_ = static_cast<int64_t>(rows);
  col.meta_ = std::move(meta);
  col.data_ = codes;
  *out = std::move(col);
  return Status::OK();
}

const std::string& CodeColumn::path() const {
  static const std::string kEmpty;
  return meta_ ? meta_->path : kEmpty;
}

int64_t CodeColumn::chunk_rows() const {
  return meta_ ? meta_->chunk_rows : kSpillChunkRows;
}

int64_t CodeColumn::num_chunks() const {
  if (size_ == 0) return 0;
  int64_t cr = chunk_rows();
  return (size_ + cr - 1) / cr;
}

CodeColumn::Span CodeColumn::Scan(int64_t chunk_index) const {
  int64_t begin = chunk_index * chunk_rows();
  assert(begin >= 0 && begin < size_);
  return Span{data_ + begin, begin, std::min(chunk_rows(), size_ - begin)};
}

int64_t CodeColumn::CountEqual(uint32_t code) const {
  if (meta_ && code == meta_->null_code && code != UINT32_MAX) {
    return meta_->null_total;
  }
  int64_t n = 0;
  for (int64_t r = 0; r < size_; ++r) n += data_[r] == code ? 1 : 0;
  return n;
}

uint32_t CodeColumn::spilled_null_code() const {
  return meta_ ? meta_->null_code : UINT32_MAX;
}

int64_t CodeColumn::resident_bytes() const {
  return resident_ ? static_cast<int64_t>(resident_->capacity() *
                                          sizeof(uint32_t))
                   : 0;
}

int64_t CodeColumn::mapped_bytes() const {
  return meta_ ? static_cast<int64_t>(meta_->region->size()) : 0;
}

const std::shared_ptr<MappedRegion>& CodeColumn::region() const {
  static const std::shared_ptr<MappedRegion> kNull;
  return meta_ ? meta_->region : kNull;
}

SpillColumnWriter::SpillColumnWriter(FileSystem* fs, std::string final_path,
                                     int64_t chunk_rows)
    : fs_(fs == nullptr ? DefaultFileSystem() : fs),
      final_path_(std::move(final_path)),
      tmp_path_(final_path_ + ".tmp"),
      chunk_rows_(chunk_rows) {
  assert(chunk_rows_ > 0);
  // A stale temp from a previous crashed run must not be appended to.
  (void)fs_->Remove(tmp_path_);
}

SpillColumnWriter::~SpillColumnWriter() {
  if (!finished_) {
    (void)fs_->Remove(renamed_ ? final_path_ : tmp_path_);
  }
}

Status SpillColumnWriter::FlushChunk(int64_t rows_in_chunk) {
  CodeColumn::ChunkStat cs{0, 0, 0};
  for (int64_t i = 0; i < rows_in_chunk; ++i) {
    cs.max_code = std::max(cs.max_code, buffer_[i]);
    cs.null_count +=
        (latest_null_code_ != UINT32_MAX && buffer_[i] == latest_null_code_)
            ? 1
            : 0;
  }
  std::string_view bytes(reinterpret_cast<const char*>(buffer_.data()),
                         static_cast<size_t>(rows_in_chunk) *
                             sizeof(uint32_t));
  cs.hash = HashBytes(bytes);
  Status s = fs_->AppendFile(tmp_path_, bytes);
  if (!s.ok()) {
    failed_ = true;
    return s;
  }
  buffer_.erase(buffer_.begin(), buffer_.begin() + rows_in_chunk);
  rows_flushed_ += rows_in_chunk;
  chunks_.push_back(cs);
  return Status::OK();
}

Status SpillColumnWriter::Append(const uint32_t* codes, int64_t n,
                                 uint32_t null_code) {
  assert(!finished_);
  if (failed_) return Status::IOError("spill writer already failed");
  if (null_code != UINT32_MAX) latest_null_code_ = null_code;
  buffer_.insert(buffer_.end(), codes, codes + n);
  while (static_cast<int64_t>(buffer_.size()) >= chunk_rows_) {
    Status s = FlushChunk(chunk_rows_);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status SpillColumnWriter::Finish(uint32_t dict_size, uint32_t null_code) {
  assert(!finished_);
  if (failed_) return Status::IOError("spill writer already failed");
  if (null_code != UINT32_MAX) latest_null_code_ = null_code;
  if (!buffer_.empty()) {
    Status s = FlushChunk(static_cast<int64_t>(buffer_.size()));
    if (!s.ok()) return s;
  }

  std::string tail;
  tail.reserve(chunks_.size() * kChunkStatBytes + kTrailerBytes);
  ByteWriter w(&tail);
  for (const CodeColumn::ChunkStat& cs : chunks_) {
    w.U64(cs.hash);
    w.U32(cs.max_code);
    w.U32(cs.null_count);
  }
  // The trailer's checksum covers the trailer alone.
  std::string trailer;
  ByteWriter t(&trailer);
  t.Raw(kMagic);
  t.U32(kFormatVersion);
  t.U64(static_cast<uint64_t>(rows_flushed_));
  t.U32(static_cast<uint32_t>(chunk_rows_));
  t.U32(dict_size);
  t.U32(latest_null_code_);
  t.U32(static_cast<uint32_t>(chunks_.size()));
  t.U64(static_cast<uint64_t>(rows_flushed_) * sizeof(uint32_t));
  t.U64(0);  // reserved
  AppendChecksum(&trailer);
  tail += trailer;

  Status s = fs_->AppendFile(tmp_path_, tail);
  if (!s.ok()) {
    failed_ = true;
    return s;
  }
  s = fs_->SyncFile(tmp_path_);
  if (!s.ok()) {
    failed_ = true;
    return s;
  }
  s = fs_->Rename(tmp_path_, final_path_);
  if (!s.ok()) {
    failed_ = true;
    return s;
  }
  renamed_ = true;
  s = fs_->SyncDir(DirOf(final_path_));
  if (!s.ok()) {
    failed_ = true;
    return s;
  }
  finished_ = true;
  return Status::OK();
}

Status SpillColumnWriter::Reabsorb(std::vector<uint32_t>* out) {
  assert(!finished_);
  // A failure after the rename (the directory fsync) leaves the flushed
  // bytes under the final name instead of the temp one.
  const std::string& flushed_path = renamed_ ? final_path_ : tmp_path_;
  std::string bytes;
  if (rows_flushed_ > 0) {
    Status s = fs_->ReadFile(flushed_path, &bytes);
    if (!s.ok()) return s;
    size_t need = static_cast<size_t>(rows_flushed_) * sizeof(uint32_t);
    if (bytes.size() < need) {
      return Status::IOError("spill temp file " + flushed_path +
                             " lost flushed data");
    }
    size_t old = out->size();
    out->resize(old + static_cast<size_t>(rows_flushed_));
    std::memcpy(out->data() + old, bytes.data(), need);
  }
  out->insert(out->end(), buffer_.begin(), buffer_.end());
  buffer_.clear();
  rows_flushed_ = 0;
  chunks_.clear();
  failed_ = true;  // the writer is dead either way
  (void)fs_->Remove(flushed_path);
  return Status::OK();
}

}  // namespace gordian
