#ifndef GORDIAN_TABLE_VALUE_H_
#define GORDIAN_TABLE_VALUE_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

#include "common/hashing.h"

namespace gordian {

enum class ValueType { kNull, kInt64, kDouble, kString };

// A single attribute value. The table layer dictionary-encodes values into
// dense uint32 codes, so Value only appears at the boundaries (loading,
// generation, printing); the algorithms operate on codes.
//
// NULL is modeled as a first-class value that compares equal to itself,
// i.e., two rows that are both NULL in a column "match" there. This is the
// conservative choice for key discovery: a column containing two NULLs can
// never be part of a key by itself. Likewise every NaN equals every other
// NaN, and -0.0 equals 0.0; a dictionary stores the first one it sees.
class Value {
 public:
  Value() : v_(std::monostate{}) {}
  explicit Value(int64_t i) : v_(i) {}
  explicit Value(double d) : v_(d) {}
  explicit Value(std::string s) : v_(std::move(s)) {}
  explicit Value(const char* s) : v_(std::string(s)) {}

  static Value Null() { return Value(); }

  ValueType type() const {
    switch (v_.index()) {
      case 0: return ValueType::kNull;
      case 1: return ValueType::kInt64;
      case 2: return ValueType::kDouble;
      default: return ValueType::kString;
    }
  }

  bool is_null() const { return v_.index() == 0; }
  int64_t int64() const { return std::get<int64_t>(v_); }
  double dbl() const { return std::get<double>(v_); }
  const std::string& str() const { return std::get<std::string>(v_); }

  // Per-type hashes, exposed so typed encode paths (Dictionary::EncodeBatch)
  // can probe without materializing a Value. Hash() composes exactly these.
  static uint64_t NullHash() { return 0x6e61736eULL; }  // arbitrary NULL tag
  static uint64_t HashOf(int64_t i) {
    return Mix64(static_cast<uint64_t>(i));
  }
  static uint64_t HashOf(double d) {
    // -0.0 == 0.0, and NaN is one value (SameDouble): each hashes as one.
    if (d == 0.0) d = 0.0;
    if (std::isnan(d)) d = std::numeric_limits<double>::quiet_NaN();
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(d));
    __builtin_memcpy(&bits, &d, sizeof(bits));
    return Mix64(bits ^ 0xd0e1f2a3ULL);
  }
  static uint64_t HashOf(std::string_view s) { return HashBytes(s); }

  // Double identity: == except that every NaN is one value, whatever its
  // payload, as NULL equals NULL. operator== and the typed double probe
  // (Dictionary::Encode(double)) both compare through this.
  static bool SameDouble(double a, double b) {
    return a == b || (std::isnan(a) && std::isnan(b));
  }

  // Double order: < except that every NaN sorts after every other double,
  // so the order is strict weak and its equivalence is SameDouble (-0.0
  // and 0.0 are equivalent too). operator< compares doubles through this.
  static bool DoubleLess(double a, double b) {
    if (std::isnan(a)) return false;
    return std::isnan(b) || a < b;
  }

  uint64_t Hash() const {
    switch (v_.index()) {
      case 0: return NullHash();
      case 1: return HashOf(std::get<int64_t>(v_));
      case 2: return HashOf(std::get<double>(v_));
      default: return HashOf(std::string_view(std::get<std::string>(v_)));
    }
  }

  std::string ToString() const {
    switch (v_.index()) {
      case 0: return "NULL";
      case 1: return std::to_string(std::get<int64_t>(v_));
      case 2: return std::to_string(std::get<double>(v_));
      default: return std::get<std::string>(v_);
    }
  }

  friend bool operator==(const Value& a, const Value& b) {
    if (a.type() == ValueType::kDouble && b.type() == ValueType::kDouble) {
      return SameDouble(a.dbl(), b.dbl());
    }
    return a.v_ == b.v_;
  }
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }
  // Values of different types keep std::variant's order: NULL, int64,
  // double, string.
  friend bool operator<(const Value& a, const Value& b) {
    if (a.type() == ValueType::kDouble && b.type() == ValueType::kDouble) {
      return DoubleLess(a.dbl(), b.dbl());
    }
    return a.v_ < b.v_;
  }

 private:
  std::variant<std::monostate, int64_t, double, std::string> v_;
};

struct ValueHash {
  size_t operator()(const Value& v) const {
    return static_cast<size_t>(v.Hash());
  }
};

}  // namespace gordian

#endif  // GORDIAN_TABLE_VALUE_H_
