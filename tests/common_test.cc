// Unit tests for the common substrate: PRNG, Zipf sampler, hashing,
// memory tracking, status, and the byte codec.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/byte_codec.h"
#include "common/hashing.h"
#include "common/memory_tracker.h"
#include "common/random.h"
#include "common/status.h"

namespace gordian {
namespace {

TEST(Random, DeterministicPerSeed) {
  Random a(7), b(7), c(8);
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.Next();
    EXPECT_EQ(va, b.Next());
    (void)c;
  }
  Random d(8);
  bool any_diff = false;
  Random e(7);
  for (int i = 0; i < 100; ++i) {
    if (d.Next() != e.Next()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Random, UniformStaysInRange) {
  Random rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
    int64_t v = rng.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Random, UniformCoversTheRange) {
  Random rng(2);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.Uniform(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Random, NextDoubleInUnitInterval) {
  Random rng(3);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Random, BernoulliMatchesProbabilityRoughly) {
  Random rng(4);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Zipf, ThetaZeroIsRoughlyUniform) {
  ZipfGenerator z(10, 0.0);
  Random rng(5);
  std::vector<int> counts(10, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[z.Sample(rng)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.02);
  }
}

TEST(Zipf, PositiveThetaSkewsTowardLowRanks) {
  ZipfGenerator z(100, 1.0);
  Random rng(6);
  std::vector<int> counts(100, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[z.Sample(rng)];
  // Rank 0 should be roughly 1/H_100 ~ 19% of draws and dominate rank 50.
  EXPECT_GT(counts[0], counts[50] * 5);
  EXPECT_GT(counts[0], n / 10);
}

TEST(Zipf, SamplesStayInDomain) {
  ZipfGenerator z(7, 0.5);
  Random rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(z.Sample(rng), 7u);
}

TEST(Hashing, Mix64IsDeterministicAndSpreads) {
  EXPECT_EQ(Mix64(42), Mix64(42));
  std::unordered_set<uint64_t> outs;
  for (uint64_t i = 0; i < 10000; ++i) outs.insert(Mix64(i));
  EXPECT_EQ(outs.size(), 10000u);  // no collisions among consecutive inputs
}

TEST(Hashing, HashBytesDiscriminates) {
  EXPECT_NE(HashBytes("abc"), HashBytes("abd"));
  EXPECT_NE(HashBytes(""), HashBytes("a"));
  EXPECT_EQ(HashBytes("gordian"), HashBytes("gordian"));
}

TEST(Hashing, FingerprintOrderSensitive) {
  Fingerprint128 a, b;
  a.Update(1);
  a.Update(2);
  b.Update(2);
  b.Update(1);
  EXPECT_FALSE(a == b);
}

TEST(Hashing, FingerprintEqualForEqualStreams) {
  Fingerprint128 a, b;
  for (uint64_t v : {5u, 6u, 7u}) {
    a.Update(v);
    b.Update(v);
  }
  EXPECT_TRUE(a == b);
}

TEST(MemoryTracker, TracksCurrentAndPeak) {
  MemoryTracker t;
  t.Add(100);
  t.Add(50);
  EXPECT_EQ(t.current_bytes(), 150);
  EXPECT_EQ(t.peak_bytes(), 150);
  t.Release(120);
  EXPECT_EQ(t.current_bytes(), 30);
  EXPECT_EQ(t.peak_bytes(), 150);
  t.Add(10);
  EXPECT_EQ(t.peak_bytes(), 150);
  t.Reset();
  EXPECT_EQ(t.current_bytes(), 0);
  EXPECT_EQ(t.peak_bytes(), 0);
}

TEST(MemoryTracker, MappedBytesAreTalliedSeparatelyFromHeap) {
  // Pinned: mmap-backed bytes must never leak into the heap-resident
  // counters — a spilled column would otherwise count against the very
  // budget that spilling exists to relieve.
  MemoryTracker t;
  t.Add(100);
  t.AddMapped(4096);
  EXPECT_EQ(t.current_bytes(), 100);
  EXPECT_EQ(t.peak_bytes(), 100);
  EXPECT_EQ(t.current_mapped_bytes(), 4096);
  EXPECT_EQ(t.peak_mapped_bytes(), 4096);
  t.ReleaseMapped(4096);
  t.AddMapped(1024);
  EXPECT_EQ(t.current_mapped_bytes(), 1024);
  EXPECT_EQ(t.peak_mapped_bytes(), 4096);
  EXPECT_EQ(t.current_bytes(), 100);
  t.Reset();
  EXPECT_EQ(t.current_mapped_bytes(), 0);
  EXPECT_EQ(t.peak_mapped_bytes(), 0);
}

TEST(MemoryTracker, ConcurrentAddReleaseBalancesAndBoundsPeak) {
  // Several threads each add then release the same total; the final current
  // count must be exactly zero and the peak must be at least one thread's
  // worth (it held that much on its own) and at most the combined worth.
  MemoryTracker t;
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  constexpr int64_t kBytes = 64;
  std::vector<std::thread> workers;
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back([&t] {
      for (int j = 0; j < kIters; ++j) t.Add(kBytes);
      for (int j = 0; j < kIters; ++j) t.Release(kBytes);
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(t.current_bytes(), 0);
  EXPECT_GE(t.peak_bytes(), kIters * kBytes);
  EXPECT_LE(t.peak_bytes(), int64_t{kThreads} * kIters * kBytes);
}

TEST(Status, OkAndErrors) {
  EXPECT_TRUE(Status::OK().ok());
  Status s = Status::InvalidArgument("bad");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad");
  EXPECT_EQ(Status::IOError("x").code(), Status::Code::kIOError);
  EXPECT_EQ(Status::NotFound("x").code(), Status::Code::kNotFound);
}

TEST(Status, PartialIsNotOkButDetectable) {
  Status s = Status::Partial("3 of 16 shards quarantined");
  EXPECT_FALSE(s.ok());  // strict callers reject partial results for free
  EXPECT_TRUE(s.IsPartial());
  EXPECT_FALSE(Status::OK().IsPartial());
  EXPECT_FALSE(Status::IOError("x").IsPartial());
  EXPECT_EQ(s.code(), Status::Code::kPartial);
  EXPECT_EQ(s.ToString(), "Partial: 3 of 16 shards quarantined");
}

// One value of every kind the codec reads, written in a fixed order.
std::string CodecSample() {
  std::string bytes;
  ByteWriter w(&bytes);
  w.Raw("MAGI");
  w.U8(0xAB);
  w.U32(0xDEADBEEF);
  w.U64(0x0123456789ABCDEFull);
  w.F64(-2.5);
  w.Str("hello");
  w.U32(3);  // a count of three 2-byte items
  w.Raw("xxyyzz");
  return bytes;
}

// Reads CodecSample back; false at the first read that fails.
bool ReadCodecSample(std::string_view bytes) {
  ByteReader r(bytes);
  uint8_t u8;
  uint32_t u32, count;
  uint64_t u64;
  double f64;
  std::string str;
  std::string_view items;
  if (!r.Magic("MAGI") || !r.U8(&u8) || !r.U32(&u32) || !r.U64(&u64) ||
      !r.F64(&f64) || !r.Str(&str, 64) || !r.Count(&count, 2) ||
      !r.Raw(size_t{count} * 2, &items)) {
    return false;
  }
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(f64, -2.5);
  EXPECT_EQ(str, "hello");
  EXPECT_EQ(items, "xxyyzz");
  EXPECT_TRUE(r.AtEnd());
  return true;
}

TEST(ByteCodec, EveryReadFailsCleanlyAtEveryTruncation) {
  const std::string bytes = CodecSample();
  ASSERT_TRUE(ReadCodecSample(bytes));
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    // A heap copy of exactly `cut` bytes, so an overread is a sanitizer
    // error rather than a silent read of the tail.
    const std::string prefix = bytes.substr(0, cut);
    EXPECT_FALSE(ReadCodecSample(prefix)) << "cut at " << cut;
  }
  // Each read kind alone, one byte short.
  uint8_t u8;
  uint32_t u32;
  uint64_t u64;
  double f64;
  std::string str;
  std::string_view raw;
  EXPECT_FALSE(ByteReader("").U8(&u8));
  EXPECT_FALSE(ByteReader("abc").U32(&u32));
  EXPECT_FALSE(ByteReader("abcdefg").U64(&u64));
  EXPECT_FALSE(ByteReader("abcdefg").F64(&f64));
  EXPECT_FALSE(ByteReader(std::string("\x03\0\0\0ab", 6)).Str(&str, 64));
  EXPECT_FALSE(ByteReader("ab").Raw(3, &raw));
  EXPECT_FALSE(ByteReader("GRD").Magic("GRDT"));
  EXPECT_FALSE(ByteReader("GRDX").Magic("GRDT"));
}

TEST(ByteCodec, CountRuleHoldsExactlyAtItsBoundary) {
  // Three 17-byte items fit in exactly 51 bytes and not in 50.
  for (size_t left : {size_t{50}, size_t{51}}) {
    std::string bytes;
    ByteWriter(&bytes).U32(3);
    bytes.append(left, '\0');
    ByteReader r(bytes);
    uint32_t count;
    EXPECT_EQ(r.Count(&count, 17), left == 51) << left << " bytes left";
  }
  std::string bytes;
  ByteWriter w(&bytes);
  w.U64(UINT64_MAX);
  w.U64(0);
  uint64_t count;
  EXPECT_FALSE(ByteReader(bytes).Count(&count, 1));
  ByteReader r(std::string_view(bytes).substr(8));
  EXPECT_TRUE(r.Count(&count, 1));  // zero items always fit
  EXPECT_EQ(count, 0u);

  const std::string hundred(100, '\0');
  ByteReader fits(hundred);
  EXPECT_TRUE(fits.Fits(25, 4));
  EXPECT_FALSE(fits.Fits(26, 4));
  EXPECT_TRUE(fits.Fits(100, 1));
  EXPECT_FALSE(fits.Fits(101, 1));
  EXPECT_TRUE(fits.Fits(UINT64_MAX, 0));  // zero-byte items take no room
  EXPECT_FALSE(fits.Fits(UINT64_MAX, 1));
}

TEST(ByteCodec, ExtremesRoundTrip) {
  const std::string mib(1 << 20, 'm');
  std::string bytes;
  ByteWriter w(&bytes);
  w.U8(0);
  w.U8(UINT8_MAX);
  w.U32(0);
  w.U32(UINT32_MAX);
  w.U64(0);
  w.U64(UINT64_MAX);
  w.F64(std::numeric_limits<double>::infinity());
  w.F64(-0.0);
  w.Str("");
  w.Str(mib);
  // Little-endian, fixed width.
  EXPECT_EQ(bytes.substr(0, 10),
            std::string("\x00\xff\x00\x00\x00\x00\xff\xff\xff\xff", 10));

  ByteReader r(bytes);
  uint8_t a, b;
  uint32_t c, d;
  uint64_t e, f;
  double inf, neg_zero;
  std::string empty = "junk", big;
  ASSERT_TRUE(r.U8(&a) && r.U8(&b) && r.U32(&c) && r.U32(&d) && r.U64(&e) &&
              r.U64(&f) && r.F64(&inf) && r.F64(&neg_zero) &&
              r.Str(&empty, 0) && r.Str(&big, 1 << 20));
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, UINT8_MAX);
  EXPECT_EQ(c, 0u);
  EXPECT_EQ(d, UINT32_MAX);
  EXPECT_EQ(e, 0u);
  EXPECT_EQ(f, UINT64_MAX);
  EXPECT_TRUE(std::isinf(inf));
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_EQ(empty, "");
  EXPECT_EQ(big, mib);
  EXPECT_TRUE(r.AtEnd());

  // The length cap is inclusive.
  std::string one_mib;
  ByteWriter(&one_mib).Str(mib);
  EXPECT_TRUE(ByteReader(one_mib).Str(&big, 1 << 20));
  EXPECT_FALSE(ByteReader(one_mib).Str(&big, (1 << 20) - 1));
}

TEST(ByteCodec, ChecksumTrailerCatchesEveryFlipAndTruncation) {
  std::string bytes = "payload";
  AppendChecksum(&bytes);
  ASSERT_EQ(bytes.size(), 7 + kChecksumBytes);
  std::string_view body;
  ASSERT_TRUE(VerifyChecksum(bytes, &body));
  EXPECT_EQ(body, "payload");
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string flipped = bytes;
    flipped[i] ^= 0x01;
    EXPECT_FALSE(VerifyChecksum(flipped, &body)) << "flip at " << i;
  }
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(VerifyChecksum(bytes.substr(0, cut), &body)) << cut;
  }
}

}  // namespace
}  // namespace gordian
