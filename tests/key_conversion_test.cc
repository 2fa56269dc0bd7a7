// Unit and property tests for the non-key -> key conversion (Algorithm 6),
// checked against a direct enumeration oracle, plus a differential fuzz
// against the paper's product fold (oracle/key_conversion.h) that compares
// the output exactly, order included. The fuzz loop count honours
// GORDIAN_FUZZ_ITERS.

#include "core/key_conversion.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "common/random.h"
#include "oracle/key_conversion.h"

namespace gordian {
namespace {

std::vector<AttributeSet> Sorted(std::vector<AttributeSet> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// Oracle: a set K is a key iff it is not covered by (a subset of) any
// non-key. Enumerate all 2^d subsets, keep the keys, minimize.
std::vector<AttributeSet> OracleKeys(const std::vector<AttributeSet>& non_keys,
                                     int d) {
  std::vector<AttributeSet> keys;
  for (uint64_t mask = 1; mask < (uint64_t{1} << d); ++mask) {
    AttributeSet k;
    for (int i = 0; i < d; ++i) {
      if (mask & (uint64_t{1} << i)) k.Set(i);
    }
    bool covered = false;
    for (const AttributeSet& nk : non_keys) {
      if (nk.Covers(k)) {
        covered = true;
        break;
      }
    }
    if (!covered) keys.push_back(k);
  }
  return MinimizeSets(std::move(keys));
}

TEST(MinimizeSets, RemovesDuplicatesAndSupersets) {
  std::vector<AttributeSet> in = {
      AttributeSet{0, 1}, AttributeSet{0}, AttributeSet{0, 1, 2},
      AttributeSet{0}, AttributeSet{2}};
  auto out = MinimizeSets(in);
  EXPECT_EQ(Sorted(out), Sorted({AttributeSet{0}, AttributeSet{2}}));
}

TEST(MinimizeSets, KeepsIncomparableSets) {
  std::vector<AttributeSet> in = {AttributeSet{0, 1}, AttributeSet{1, 2},
                                  AttributeSet{0, 2}};
  EXPECT_EQ(MinimizeSets(in).size(), 3u);
}

TEST(NonKeysToKeys, PaperExample) {
  // Non-keys <First,Last> = {0,1} and <Phone> = {2} over 4 attributes give
  // keys <EmpNo> = {3}, <First,Phone> = {0,2}, <Last,Phone> = {1,2}.
  std::vector<AttributeSet> non_keys = {AttributeSet{0, 1}, AttributeSet{2}};
  auto keys = NonKeysToKeys(non_keys, 4);
  EXPECT_EQ(Sorted(keys), Sorted({AttributeSet{3}, AttributeSet{0, 2},
                                  AttributeSet{1, 2}}));
}

TEST(NonKeysToKeys, NoNonKeysMeansAllSingletons) {
  auto keys = NonKeysToKeys({}, 3);
  EXPECT_EQ(Sorted(keys),
            Sorted({AttributeSet{0}, AttributeSet{1}, AttributeSet{2}}));
}

TEST(NonKeysToKeys, FullNonKeyMeansNoKeys) {
  EXPECT_TRUE(NonKeysToKeys({AttributeSet::FirstN(3)}, 3).empty());
}

TEST(NonKeysToKeys, SingleNonKeyYieldsItsComplementSingletons) {
  auto keys = NonKeysToKeys({AttributeSet{1}}, 3);
  EXPECT_EQ(Sorted(keys), Sorted({AttributeSet{0}, AttributeSet{2}}));
}

TEST(NonKeysToKeys, AllSingletonNonKeysForceTheFullCompositeKeyChain) {
  // Non-keys {0},{1},{2} over d=3: the only sets hitting every complement
  // are pairs; minimal keys = all pairs? No: a key must not be covered by
  // any non-key — any 2-subset qualifies. Oracle confirms.
  std::vector<AttributeSet> nks = {AttributeSet{0}, AttributeSet{1},
                                   AttributeSet{2}};
  EXPECT_EQ(Sorted(NonKeysToKeys(nks, 3)), Sorted(OracleKeys(nks, 3)));
}

TEST(NonKeysToKeys, ResultIsAlwaysAnAntichain) {
  std::vector<AttributeSet> nks = {AttributeSet{0, 1, 2}, AttributeSet{2, 3},
                                   AttributeSet{4}};
  auto keys = NonKeysToKeys(nks, 6);
  for (size_t i = 0; i < keys.size(); ++i) {
    for (size_t j = 0; j < keys.size(); ++j) {
      if (i != j) {
        EXPECT_FALSE(keys[i].Covers(keys[j]));
      }
    }
  }
}

// Property sweep: random antichains of non-keys vs. the enumeration oracle.
struct ConvCase {
  int d;
  int num_non_keys;
  uint64_t seed;
};

class ConversionProperty : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConversionProperty, MatchesEnumerationOracle) {
  const ConvCase& c = GetParam();
  Random rng(c.seed);
  // Draw random subsets, keep them as a (possibly redundant) non-key list —
  // the conversion must cope with redundancy-free input, so minimize first
  // (GORDIAN's NonKeySet guarantees an antichain).
  std::vector<AttributeSet> nks;
  for (int i = 0; i < c.num_non_keys; ++i) {
    AttributeSet s;
    for (int a = 0; a < c.d; ++a) {
      if (rng.Bernoulli(0.4)) s.Set(a);
    }
    if (!s.Empty()) nks.push_back(s);
  }
  // Keep maximal sets (antichain of non-keys = no member covered by another).
  std::vector<AttributeSet> antichain;
  for (const AttributeSet& s : nks) {
    bool covered = false;
    for (const AttributeSet& o : nks) {
      if (o != s && o.Covers(s)) {
        covered = true;
        break;
      }
    }
    if (!covered) antichain.push_back(s);
  }
  std::sort(antichain.begin(), antichain.end());
  antichain.erase(std::unique(antichain.begin(), antichain.end()),
                  antichain.end());

  EXPECT_EQ(Sorted(NonKeysToKeys(antichain, c.d)),
            Sorted(OracleKeys(antichain, c.d)))
      << "d=" << c.d << " seed=" << c.seed;
}

std::vector<ConvCase> MakeConvCases() {
  std::vector<ConvCase> cases;
  uint64_t seed = 100;
  for (int d : {2, 3, 4, 5, 6, 8, 10}) {
    for (int n : {1, 2, 4, 8}) {
      for (int rep = 0; rep < 3; ++rep) {
        cases.push_back({d, n, seed++});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RandomAntichains, ConversionProperty,
                         ::testing::ValuesIn(MakeConvCases()));

int FuzzIters() {
  const char* env = std::getenv("GORDIAN_FUZZ_ITERS");
  if (env != nullptr && *env != '\0') {
    int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 3;
}

// Random families per fuzz iteration, for each family shape below.
constexpr int kFamiliesPerIter = 300;

AttributeSet RandomSet(Random* rng, int d, double density) {
  AttributeSet s;
  for (int a = 0; a < d; ++a) {
    if (rng->Bernoulli(density)) s.Set(a);
  }
  return s;
}

// Up to 40 sets over d attributes, as an arbitrary family: duplicates,
// subsets and supersets of earlier members, the empty set and (rarely, as
// it empties the result) the full set all occur.
std::vector<AttributeSet> ArbitraryFamily(Random* rng, int d) {
  const double density = 0.15 + 0.6 * rng->NextDouble();
  const int n = static_cast<int>(rng->UniformRange(0, 40));
  std::vector<AttributeSet> family;
  for (int i = 0; i < n; ++i) {
    const int kind = static_cast<int>(rng->Uniform(10));
    if (kind == 0) {
      family.push_back(AttributeSet());
    } else if (kind == 1 && rng->Bernoulli(0.05)) {
      family.push_back(AttributeSet::FirstN(d));
    } else if (kind >= 2 && kind <= 4 && !family.empty()) {
      const AttributeSet& earlier = family[rng->Uniform(family.size())];
      if (kind == 2) {
        family.push_back(earlier);
      } else if (kind == 3) {
        family.push_back(earlier & RandomSet(rng, d, 0.7));
      } else {
        family.push_back(earlier | RandomSet(rng, d, 0.2));
      }
    } else {
      family.push_back(RandomSet(rng, d, density));
    }
  }
  return family;
}

// The maximal members of `family`, deduplicated: the antichains GORDIAN's
// NonKeySet produces, shuffled so the input order carries no information.
std::vector<AttributeSet> MaximalMembers(
    Random* rng, const std::vector<AttributeSet>& family) {
  std::vector<AttributeSet> antichain;
  for (const AttributeSet& s : family) {
    bool covered = false;
    for (const AttributeSet& o : family) {
      if (o != s && o.Covers(s)) {
        covered = true;
        break;
      }
    }
    if (!covered &&
        std::find(antichain.begin(), antichain.end(), s) == antichain.end()) {
      antichain.push_back(s);
    }
  }
  for (size_t i = antichain.size(); i > 1; --i) {
    std::swap(antichain[i - 1], antichain[rng->Uniform(i)]);
  }
  return antichain;
}

void ExpectMatchesProductFold(const std::vector<AttributeSet>& non_keys,
                              int d, const char* shape, int iter, int f) {
  EXPECT_EQ(NonKeysToKeys(non_keys, d), OracleNonKeysToKeys(non_keys, d))
      << shape << " d=" << d << " non_keys=" << non_keys.size()
      << " iter=" << iter << " family=" << f;
}

TEST(NonKeysToKeysDifferential, AntichainsMatchProductFold) {
  const int iters = FuzzIters();
  for (int iter = 0; iter < iters; ++iter) {
    Random rng(0xa6a60001 + iter * 7919);
    for (int f = 0; f < kFamiliesPerIter; ++f) {
      const int d = static_cast<int>(rng.UniformRange(1, 20));
      ExpectMatchesProductFold(MaximalMembers(&rng, ArbitraryFamily(&rng, d)),
                               d, "antichain", iter, f);
    }
  }
}

TEST(NonKeysToKeysDifferential, ArbitraryFamiliesMatchProductFold) {
  const int iters = FuzzIters();
  for (int iter = 0; iter < iters; ++iter) {
    Random rng(0xa6a60002 + iter * 7919);
    for (int f = 0; f < kFamiliesPerIter; ++f) {
      const int d = static_cast<int>(rng.UniformRange(1, 20));
      ExpectMatchesProductFold(ArbitraryFamily(&rng, d), d, "family", iter, f);
    }
  }
}

// Wide schemas: d in [60, 128] with up to 5 dense non-keys, each missing a
// handful of attributes, so keys mix attributes from both words of an
// AttributeSet.
TEST(NonKeysToKeysDifferential, WideDenseFamiliesMatchProductFold) {
  const int iters = FuzzIters();
  int high_word_keys = 0;
  for (int iter = 0; iter < iters; ++iter) {
    Random rng(0xa6a60003 + iter * 7919);
    for (int f = 0; f < kFamiliesPerIter; ++f) {
      const int d = static_cast<int>(rng.UniformRange(60, 128));
      const AttributeSet all = AttributeSet::FirstN(d);
      std::vector<AttributeSet> non_keys;
      const int n = static_cast<int>(rng.UniformRange(1, 5));
      for (int i = 0; i < n; ++i) {
        AttributeSet missing;
        // Rarely no hole at all: the full set, which empties the result.
        const int holes =
            rng.Bernoulli(0.02) ? 0 : static_cast<int>(rng.UniformRange(1, 6));
        for (int h = 0; h < holes; ++h) {
          missing.Set(static_cast<int>(rng.Uniform(d)));
        }
        non_keys.push_back(all - missing);
      }
      ExpectMatchesProductFold(non_keys, d, "wide", iter, f);
      for (const AttributeSet& key : NonKeysToKeys(non_keys, d)) {
        if (key.Next(63) >= 0) ++high_word_keys;
      }
    }
  }
  EXPECT_GT(high_word_keys, 0);
}

}  // namespace
}  // namespace gordian
