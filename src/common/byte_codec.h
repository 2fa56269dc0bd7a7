#ifndef GORDIAN_COMMON_BYTE_CODEC_H_
#define GORDIAN_COMMON_BYTE_CODEC_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/hashing.h"

namespace gordian {

// The byte codec behind every binary format of the library: GRDT and GRDD
// (table/serialize.h), GRDL (table/code_column.h), GRDC and GRDS
// (service/key_catalog.h, service/catalog_store.h), the GRDM manifest, and
// the GRDN frames and RPC payloads of src/net. Integers are little-endian
// fixed width, doubles travel as their IEEE-754 bit patterns, and strings
// carry a u32 length prefix.

// Appends encoded values to a std::string.
class ByteWriter {
 public:
  explicit ByteWriter(std::string* out) : out_(out) {}

  void U8(uint8_t v) { Fixed(v); }
  void U32(uint32_t v) { Fixed(v); }
  void U64(uint64_t v) { Fixed(v); }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    Raw(s);
  }
  // Bytes without a length prefix (magics, pre-encoded payloads).
  void Raw(std::string_view s) { out_->append(s); }

 private:
  template <typename T>
  void Fixed(T v) {
    char buf[sizeof(T)];
    for (size_t i = 0; i < sizeof(T); ++i) {
      buf[i] = static_cast<char>((uint64_t{v} >> (8 * i)) & 0xFF);
    }
    out_->append(buf, sizeof(T));
  }

  std::string* out_;
};

// Reads encoded values from bytes it does not own. Every read is
// bounds-checked and returns false past the end, so decoders turn
// truncation into a clean Status; after a failed read the position is
// unspecified, and decoders stop at the first failure. Counts obey the
// count rule: a count is refused unless that many items of the stated
// minimum size fit in the bytes left, so a container sized from a count
// never outgrows the input, whatever a corrupt or hostile count claims.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  size_t pos() const { return pos_; }
  size_t remaining() const { return bytes_.size() - pos_; }
  bool AtEnd() const { return pos_ == bytes_.size(); }

  bool U8(uint8_t* v) { return Fixed(v); }
  bool U32(uint32_t* v) { return Fixed(v); }
  bool U64(uint64_t* v) { return Fixed(v); }
  bool F64(double* v) {
    uint64_t bits;
    if (!U64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(bits));
    return true;
  }
  // A u32-length-prefixed string; lengths above `max_len` are refused.
  bool Str(std::string* s, uint32_t max_len) {
    uint32_t len;
    std::string_view bytes;
    if (!U32(&len) || len > max_len || !Raw(len, &bytes)) return false;
    s->assign(bytes);
    return true;
  }
  // The next `n` bytes, as a view into the input.
  bool Raw(size_t n, std::string_view* out) {
    if (remaining() < n) return false;
    *out = bytes_.substr(pos_, n);
    pos_ += n;
    return true;
  }
  // Consumes `magic` when the next bytes equal it.
  bool Magic(std::string_view magic) {
    if (bytes_.substr(pos_, magic.size()) != magic) return false;
    pos_ += magic.size();
    return true;
  }

  // The count rule: true iff `count` items of at least `min_item_bytes`
  // bytes each fit in the bytes left.
  bool Fits(uint64_t count, size_t min_item_bytes) const {
    return min_item_bytes == 0 || count <= remaining() / min_item_bytes;
  }
  // Reads a u32 or u64 count and applies the count rule to it.
  template <typename T>
  bool Count(T* count, size_t min_item_bytes) {
    return Fixed(count) && Fits(*count, min_item_bytes);
  }

 private:
  template <typename T>
  bool Fixed(T* v) {
    if (remaining() < sizeof(T)) return false;
    uint64_t x = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      x |= uint64_t{static_cast<uint8_t>(bytes_[pos_ + i])} << (8 * i);
    }
    pos_ += sizeof(T);
    *v = static_cast<T>(x);
    return true;
  }

  std::string_view bytes_;
  size_t pos_ = 0;
};

// The 8-byte checksum trailer of GRDS shards, the GRDM manifest, meta.grdd
// and the GRDL trailer: HashBytes of every byte before it. It makes a file
// self-validating, so a torn file whose prefix happens to parse is caught.
constexpr size_t kChecksumBytes = 8;

inline void AppendChecksum(std::string* bytes) {
  ByteWriter(bytes).U64(HashBytes(*bytes));
}

// Splits `bytes` into its body and checksum trailer. False when `bytes` is
// shorter than the trailer or the checksum does not match the body.
inline bool VerifyChecksum(std::string_view bytes, std::string_view* body) {
  if (bytes.size() < kChecksumBytes) return false;
  *body = bytes.substr(0, bytes.size() - kChecksumBytes);
  uint64_t stored;
  return ByteReader(bytes.substr(body->size())).U64(&stored) &&
         stored == HashBytes(*body);
}

}  // namespace gordian

#endif  // GORDIAN_COMMON_BYTE_CODEC_H_
