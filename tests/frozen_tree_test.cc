// Tests for the frozen prefix-tree (core/frozen_tree.h): flat-layout
// invariants after Freeze, the direct-build layout fuzz (FrozenTree::Build
// equals Freeze of either PrefixTree build, array for array), the absorb
// layout fuzz (every absorbed batch leaves arrays equal to a fresh build of
// the concatenated rows), the agree-seed fuzz (Build's seeds equal the
// oracle's, are non-keys by brute force and survive an Absorb),
// byte-identical equivalence of the frozen traversal against the
// pointer-tree oracle (complete and aborted runs, work counters included),
// SIMD kernel agreement with the scalar reference, and the tree-cache
// integration that serves prefrozen artifacts on hits.
//
// The layout and seed fuzzes' iteration counts honour GORDIAN_FUZZ_ITERS
// (CI's incremental-fuzz leg raises it).

#include "core/frozen_tree.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_fs.h"
#include "core/gordian.h"
#include "core/non_key_set.h"
#include "core/pipeline.h"
#include "core/prefix_tree.h"
#include "datagen/synthetic.h"
#include "oracle/non_key_finder.h"
#include "service/tree_cache.h"
#include "table/fingerprint.h"

namespace gordian {
namespace {

Table MakeTable(int64_t rows, uint64_t seed, int columns = 6) {
  SyntheticSpec spec = UniformSpec(columns, rows, 24, 0.4, seed);
  spec.columns[0].cardinality = 200;
  spec.columns[2].cardinality = 48;
  spec.planted_keys.push_back({0, 2});
  spec.planted_keys.push_back({1, 3, 4});
  Table t;
  Status s = GenerateSynthetic(spec, &t);
  EXPECT_TRUE(s.ok());
  return t;
}

void ExpectSameReport(const Table& table, const KeyDiscoveryResult& a,
                      const KeyDiscoveryResult& b) {
  EXPECT_EQ(FormatResult(table, a), FormatResult(table, b));
  EXPECT_EQ(a.no_keys, b.no_keys);
  EXPECT_EQ(a.incomplete, b.incomplete);
  EXPECT_EQ(a.incomplete_reason, b.incomplete_reason);
  ASSERT_EQ(a.non_keys.size(), b.non_keys.size());
  for (size_t i = 0; i < a.non_keys.size(); ++i) {
    EXPECT_EQ(a.non_keys[i], b.non_keys[i]);
  }
}

// The frozen traversal replays the oracle's traversal decision for
// decision, so the work counters must agree exactly, not just the results.
void ExpectSameCounters(const GordianStats& a, const GordianStats& b) {
  EXPECT_EQ(a.nodes_visited, b.nodes_visited);
  EXPECT_EQ(a.merges_performed, b.merges_performed);
  EXPECT_EQ(a.merge_nodes_created, b.merge_nodes_created);
  EXPECT_EQ(a.singleton_traversal_prunes, b.singleton_traversal_prunes);
  EXPECT_EQ(a.singleton_merge_prunes, b.singleton_merge_prunes);
  EXPECT_EQ(a.single_entity_prunes, b.single_entity_prunes);
  EXPECT_EQ(a.futility_prunes, b.futility_prunes);
  EXPECT_EQ(a.final_non_keys, b.final_non_keys);
}

TEST(FrozenTreeLayoutTest, FreezePreservesStructure) {
  Table t = MakeTable(2000, 11);
  std::vector<int> order(static_cast<size_t>(t.num_columns()));
  std::iota(order.begin(), order.end(), 0);
  PrefixTree tree =
      PrefixTree::Build(t, order, GordianOptions::TreeBuild::kSorted);
  std::unique_ptr<FrozenTree> frozen = FrozenTree::Freeze(tree);
  ASSERT_NE(frozen, nullptr);

  EXPECT_EQ(frozen->num_levels(), tree.num_levels());
  EXPECT_EQ(frozen->num_entities(), tree.num_entities());
  EXPECT_EQ(frozen->node_count(), tree.node_count());
  EXPECT_EQ(frozen->cell_count(), tree.cell_count());
  EXPECT_EQ(frozen->attr_order(), tree.attr_order());
  EXPECT_GT(frozen->ApproxBytes(), 0);
  EXPECT_GT(frozen->BytesPerNode(), 0.0);
  EXPECT_TRUE(frozen->AllRefsAreOne());

  const int depth = frozen->num_levels();
  EXPECT_EQ(frozen->level(0).num_nodes(), 1u);  // the root
  int64_t total_nodes = 0, total_cells = 0;
  for (int l = 0; l < depth; ++l) {
    const FrozenTree::Level& lv = frozen->level(l);
    ASSERT_EQ(lv.cell_begin.size(), lv.num_nodes() + 1);
    ASSERT_EQ(lv.count.size(), lv.num_cells());
    ASSERT_EQ(lv.ref.size(), lv.num_nodes());
    EXPECT_EQ(lv.cell_begin.front(), 0u);
    EXPECT_EQ(lv.cell_begin.back(), lv.num_cells());
    for (size_t i = 0; i < lv.num_nodes(); ++i) {
      const uint32_t b = lv.cell_begin[i], e = lv.cell_begin[i + 1];
      ASSERT_LE(b, e);
      int64_t entity_sum = 0;
      for (uint32_t c = b; c < e; ++c) {
        if (c > b) EXPECT_LT(lv.code[c - 1], lv.code[c]);  // sorted, strict
        EXPECT_GT(lv.count[c], 0);
        entity_sum += lv.count[c];
      }
      EXPECT_EQ(entity_sum, lv.entity_total[i]);
      EXPECT_EQ(lv.ref[i], 1);
    }
    // BFS identity: level l's cell with global index g is the parent of
    // node g at level l + 1.
    if (l + 1 < depth) {
      EXPECT_EQ(frozen->level(l + 1).num_nodes(), lv.num_cells());
    }
    total_nodes += static_cast<int64_t>(lv.num_nodes());
    total_cells += static_cast<int64_t>(lv.num_cells());
  }
  EXPECT_EQ(total_nodes, frozen->node_count());
  EXPECT_EQ(total_cells, frozen->cell_count());
}

// ---------------------------------------------------------------------------
// Layout fuzzes: FrozenTree::Build against Freeze(PrefixTree::Build(...)) in
// both modes, and FrozenTree::Absorb against a fresh build of the
// concatenated rows.

int FuzzIters() {
  const char* env = std::getenv("GORDIAN_FUZZ_ITERS");
  if (env != nullptr && *env != '\0') {
    int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 3;
}

using Rows = std::vector<std::vector<int64_t>>;

// The first `n` rows as a table, its columns spilled to GRDL files under
// `spill` when that policy is enabled. TableBuilder assigns codes in
// first-seen order, so every prefix of `rows` shares its codes with the
// whole.
Table RowsTable(const Rows& rows, size_t n, int width,
                const SpillPolicy& spill = SpillPolicy()) {
  std::vector<std::string> names;
  for (int c = 0; c < width; ++c) names.push_back("c" + std::to_string(c));
  // One batch: the builder decides to spill after each batch it adds.
  RowBatch batch(width);
  for (size_t r = 0; r < n; ++r) {
    for (int c = 0; c < width; ++c) {
      batch.column(c).AppendValue(Value(rows[r][static_cast<size_t>(c)]));
    }
  }
  TableBuilder b{Schema(names), spill};
  if (n > 0) b.AddBatch(batch);
  Table t;
  EXPECT_TRUE(b.Build(&t).ok());
  return t;
}

std::unique_ptr<FrozenTree> FreezeRows(const Rows& rows, size_t n, int width,
                                       const std::vector<int>& order) {
  return FrozenTree::Freeze(PrefixTree::Build(
      RowsTable(rows, n, width), order, GordianOptions::TreeBuild::kSorted));
}

std::unique_ptr<FrozenTree> BuildRows(const Rows& rows, size_t n, int width,
                                      const std::vector<int>& order) {
  return FrozenTree::Build(RowsTable(rows, n, width), order);
}

void ExpectSameLayout(const FrozenTree& got, const FrozenTree& want) {
  ASSERT_EQ(got.num_levels(), want.num_levels());
  EXPECT_EQ(got.attr_order(), want.attr_order());
  EXPECT_EQ(got.num_entities(), want.num_entities());
  EXPECT_EQ(got.node_count(), want.node_count());
  EXPECT_EQ(got.cell_count(), want.cell_count());
  EXPECT_EQ(got.ApproxBytes(), want.ApproxBytes());
  EXPECT_EQ(got.has_duplicate_entities(), want.has_duplicate_entities());
  for (int l = 0; l < got.num_levels(); ++l) {
    const FrozenTree::Level& a = got.level(l);
    const FrozenTree::Level& b = want.level(l);
    EXPECT_TRUE(a.cell_begin == b.cell_begin) << "cell_begin, level " << l;
    EXPECT_TRUE(a.code == b.code) << "code, level " << l;
    EXPECT_TRUE(a.count == b.count) << "count, level " << l;
    EXPECT_TRUE(a.entity_total == b.entity_total) << "entity_total, level "
                                                  << l;
    EXPECT_TRUE(a.ref == b.ref) << "ref, level " << l;
    EXPECT_EQ(a.max_code, b.max_code) << "level " << l;
  }
}

// Every level array, byte for byte, plus the scalar state.
void ExpectUnchanged(const FrozenTree& tree,
                     const std::vector<FrozenTree::Level>& levels,
                     int64_t entities, int64_t bytes) {
  EXPECT_EQ(tree.num_entities(), entities);
  EXPECT_EQ(tree.ApproxBytes(), bytes);
  ASSERT_EQ(static_cast<size_t>(tree.num_levels()), levels.size());
  for (int l = 0; l < tree.num_levels(); ++l) {
    const FrozenTree::Level& a = tree.level(l);
    const FrozenTree::Level& b = levels[static_cast<size_t>(l)];
    EXPECT_TRUE(a.cell_begin == b.cell_begin && a.code == b.code &&
                a.count == b.count && a.entity_total == b.entity_total &&
                a.ref == b.ref && a.max_code == b.max_code)
        << "level " << l;
  }
}

// Random shapes: widths 1 to 128, 0 and 1 rows, per-column cardinalities
// down to 1 (long shared prefixes), repeated rows, random attribute orders,
// and every other shape spilled to GRDL files.
TEST(FrozenBuildTest, LayoutMatchesFreezeOfBothBuildModes) {
  std::mt19937_64 rng(20261018);
  const std::string dir = ::testing::TempDir() + "gordian_frozen_build_" +
                          std::to_string(::getpid());
  ASSERT_TRUE(DefaultFileSystem()->CreateDir(dir).ok());
  SpillPolicy spill;
  spill.memory_budget_bytes = 1 << 10;  // spills every column
  spill.spill_dir = dir;
  spill.chunk_rows = 64;
  const int iters = FuzzIters();
  for (int iter = 0; iter < iters; ++iter) {
    for (int shape = 0; shape < 10; ++shape) {
      int width = 1 + static_cast<int>(rng() % 10);
      if (shape == 0) width = 1;
      if (shape == 1) width = AttributeSet::kMaxAttributes;
      if (shape == 2) width = 11 + static_cast<int>(rng() % 118);  // 11..128
      size_t n = rng() % 700;
      if (shape == 3) n = 0;
      if (shape == 4) n = 1;
      const bool spilled = (iter + shape) % 2 == 1;
      std::vector<int64_t> card(static_cast<size_t>(width));
      for (int64_t& c : card) c = 1 + static_cast<int64_t>(rng() % 6);
      Rows rows(n, std::vector<int64_t>(static_cast<size_t>(width)));
      for (auto& row : rows) {
        for (size_t c = 0; c < row.size(); ++c) {
          row[c] = static_cast<int64_t>(rng() % static_cast<uint64_t>(card[c]));
        }
      }
      // Duplicates as generated, exactly one repeated row (the rows made
      // distinct through one column first), or several repeated rows.
      const int dup_mode = static_cast<int>(rng() % 3);
      if (n > 1 && dup_mode == 1) {
        const size_t c = rng() % static_cast<size_t>(width);
        for (size_t r = 0; r < n; ++r) rows[r][c] = static_cast<int64_t>(r);
        const size_t from = rng() % n;
        rows[(from + 1 + rng() % (n - 1)) % n] = rows[from];
      } else if (n > 1 && dup_mode == 2) {
        for (size_t k = 0; k < 1 + n / 20; ++k) {
          rows[rng() % n] = rows[rng() % n];
        }
      }
      std::vector<int> order(static_cast<size_t>(width));
      std::iota(order.begin(), order.end(), 0);
      std::shuffle(order.begin(), order.end(), rng);
      SCOPED_TRACE("iter=" + std::to_string(iter) +
                   " shape=" + std::to_string(shape) +
                   " width=" + std::to_string(width) +
                   " rows=" + std::to_string(n) +
                   " dup_mode=" + std::to_string(dup_mode) +
                   " spilled=" + std::to_string(spilled));

      const Table t =
          RowsTable(rows, n, width, spilled ? spill : SpillPolicy());
      if (spilled && n >= 300) EXPECT_GT(t.spilled_column_count(), 0);
      std::unique_ptr<FrozenTree> built = FrozenTree::Build(t, order);
      const std::set<std::vector<int64_t>> distinct(rows.begin(), rows.end());
      EXPECT_EQ(built->has_duplicate_entities(), distinct.size() < n);
      EXPECT_TRUE(built->AllRefsAreOne());
      for (auto mode : {GordianOptions::TreeBuild::kSorted,
                        GordianOptions::TreeBuild::kInsertion}) {
        SCOPED_TRACE(mode == GordianOptions::TreeBuild::kSorted
                         ? "kSorted"
                         : "kInsertion");
        ExpectSameLayout(
            *built, *FrozenTree::Freeze(PrefixTree::Build(t, order, mode)));
      }
    }
  }
  std::filesystem::remove_all(dir);
}

// True iff two distinct rows of `t` agree on every attribute of `attrs`:
// the definition of a non-key, checked over the codes.
bool IsNonKeyByBruteForce(const Table& t, const AttributeSet& attrs) {
  std::set<std::vector<uint32_t>> seen;
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    std::vector<uint32_t> projected;
    attrs.ForEach([&](int c) { projected.push_back(t.code(r, c)); });
    if (!seen.insert(std::move(projected)).second) return true;
  }
  return false;
}

// Build's agree seeds equal the oracle's as a set, with no member repeated
// or covered by another, each is a non-key, and there are none exactly when
// the table has fewer than two rows or a repeated row.
void ExpectSeedsMatchOracle(const Table& t, const std::vector<int>& order) {
  std::unique_ptr<FrozenTree> built = FrozenTree::Build(t, order);
  const std::vector<AttributeSet>& seeds = built->agree_seeds();
  const std::set<AttributeSet> got(seeds.begin(), seeds.end());
  const std::vector<AttributeSet> oracle = OracleAgreeSeeds(t, order);
  EXPECT_EQ(got, std::set<AttributeSet>(oracle.begin(), oracle.end()));
  EXPECT_EQ(got.size(), seeds.size());
  EXPECT_EQ(seeds.empty(), t.num_rows() < 2 || built->has_duplicate_entities());
  for (const AttributeSet& s : seeds) {
    EXPECT_TRUE(IsNonKeyByBruteForce(t, s)) << s.ToString();
    for (const AttributeSet& other : seeds) {
      EXPECT_TRUE(s == other || !s.Covers(other))
          << s.ToString() << " covers " << other.ToString();
    }
  }
}

// Agree-set seeds over the layout fuzz's random shapes (distinct rows, or
// one repeated row in one shape of three), two rows, one column, a
// NULL-bearing table and a sample, whose code domain is sparse. Every other
// shape is then built from its first half and absorbs the rest: the seeds
// stay as they were and are still non-keys of the grown table.
TEST(FrozenBuildTest, AgreeSeedsMatchOracleAndAreNonKeys) {
  std::mt19937_64 rng(20261020);
  const int iters = FuzzIters();
  for (int iter = 0; iter < iters; ++iter) {
    for (int shape = 0; shape < 8; ++shape) {
      int width = 1 + static_cast<int>(rng() % 10);
      if (shape == 0) width = 1;
      if (shape == 1) width = 11 + static_cast<int>(rng() % 118);  // 11..128
      size_t n = rng() % 500;
      if (shape == 2) n = 2;
      const int64_t card = 1 + static_cast<int64_t>(rng() % 6);
      Rows rows;
      std::set<std::vector<int64_t>> seen;
      for (size_t r = 0; r < n; ++r) {
        for (int attempt = 0; attempt < 32; ++attempt) {
          std::vector<int64_t> row(static_cast<size_t>(width));
          for (int64_t& v : row) v = static_cast<int64_t>(rng() % card);
          if (seen.insert(row).second) {
            rows.push_back(std::move(row));
            break;
          }
        }
      }
      if (rows.size() > 1 && rng() % 3 == 0) {
        rows[rng() % rows.size()] = rows[rng() % rows.size()];
      }
      std::vector<int> order(static_cast<size_t>(width));
      std::iota(order.begin(), order.end(), 0);
      std::shuffle(order.begin(), order.end(), rng);
      SCOPED_TRACE("iter=" + std::to_string(iter) +
                   " shape=" + std::to_string(shape) +
                   " width=" + std::to_string(width) +
                   " rows=" + std::to_string(rows.size()));
      const Table t = RowsTable(rows, rows.size(), width);
      ExpectSeedsMatchOracle(t, order);

      if ((iter + shape) % 2 == 0) continue;
      const size_t base = rows.size() / 2;
      std::unique_ptr<FrozenTree> tree =
          FrozenTree::Build(RowsTable(rows, base, width), order);
      const std::vector<AttributeSet> before = tree->agree_seeds();
      std::vector<const uint32_t*> level_codes;
      for (int c : order) {
        level_codes.push_back(t.column_codes(c).data() + base);
      }
      const int64_t delta = static_cast<int64_t>(rows.size() - base);
      ASSERT_EQ(tree->Absorb(level_codes, delta), delta);
      EXPECT_EQ(tree->agree_seeds(), before);
      for (const AttributeSet& s : before) {
        EXPECT_TRUE(IsNonKeyByBruteForce(t, s)) << s.ToString();
      }
    }

    // NULL is an ordinary code here (kNullEqualsNull): a column may repeat
    // it, and an agree set may rest on it.
    {
      const int width = 4;
      RowBatch batch(width);
      for (int r = 0; r < 300; ++r) {
        batch.column(0).AppendValue(Value(static_cast<int64_t>(r)));
        for (int c = 1; c < width; ++c) {
          if (rng() % 4 == 0) {
            batch.column(c).AppendValue(Value::Null());
          } else {
            batch.column(c).AppendValue(Value(static_cast<int64_t>(rng() % 3)));
          }
        }
      }
      TableBuilder b{Schema(std::vector<std::string>{"a", "b", "c", "d"})};
      b.AddBatch(batch);
      Table t;
      ASSERT_TRUE(b.Build(&t).ok());
      SCOPED_TRACE("NULL-bearing, iter=" + std::to_string(iter));
      ExpectSeedsMatchOracle(t, {2, 0, 3, 1});
    }

    // A sample keeps its full dictionary, so order B's deep levels can hold
    // codes at or past the row count.
    {
      Table full;
      const Status s =
          GenerateSynthetic(UniformSpec(5, 4000, 900, 0.8, 100 + iter), &full);
      ASSERT_TRUE(s.ok());
      const Table t = full.SampleRows(150 + iter, 7 + iter);
      SCOPED_TRACE("sampled, iter=" + std::to_string(iter));
      ExpectSeedsMatchOracle(t, {4, 2, 0, 1, 3});
    }
  }
}

TEST(FrozenAbsorbTest, LayoutMatchesFreezeOfConcatenation) {
  std::mt19937_64 rng(20261017);
  const int iters = FuzzIters();
  for (int iter = 0; iter < iters; ++iter) {
    for (int width = 1; width <= 6; ++width) {
      const int64_t card = 1 + static_cast<int64_t>(rng() % 8);  // 1..8
      // Every third shape starts from an empty base.
      const size_t base_rows = (iter + width) % 3 == 0 ? 0 : rng() % 300;
      std::vector<int> order(static_cast<size_t>(width));
      std::iota(order.begin(), order.end(), 0);
      std::shuffle(order.begin(), order.end(), rng);
      SCOPED_TRACE("iter=" + std::to_string(iter) +
                   " width=" + std::to_string(width) +
                   " card=" + std::to_string(card) +
                   " base=" + std::to_string(base_rows));

      // Rows are distinct unless a duplicate is injected on purpose, so the
      // duplicate flag must flip exactly at the injection. A domain too
      // small for a fresh row (cardinality 1) yields fewer rows instead.
      Rows rows;
      std::set<std::vector<int64_t>> seen;
      auto add_fresh_row = [&](int64_t domain) {
        for (int attempt = 0; attempt < 32; ++attempt) {
          std::vector<int64_t> row(static_cast<size_t>(width));
          for (int64_t& v : row) v = static_cast<int64_t>(rng() % domain);
          if (seen.insert(row).second) {
            rows.push_back(std::move(row));
            return;
          }
        }
      };
      for (size_t r = 0; r < base_rows; ++r) add_fresh_row(card);
      const size_t base_end = rows.size();

      // Batch sizes 0, 1, small, medium and (first iteration) 4096, in a
      // random order. Deltas draw from a slightly wider domain, so they add
      // codes that the base never had; the first batch's last row takes a
      // new root value. One shape in three repeats an earlier row in a
      // delta, one in three repeats a row within a delta.
      std::vector<size_t> sizes = {0, 1, 2 + rng() % 63, 1 + rng() % 300};
      if (iter == 0) sizes.push_back(4096);
      std::shuffle(sizes.begin(), sizes.end(), rng);
      const int dup_mode = static_cast<int>(rng() % 3);
      SCOPED_TRACE("dup_mode=" + std::to_string(dup_mode));
      size_t dup_batch = sizes.size();  // none injected
      std::vector<size_t> ends;
      for (size_t b = 0; b < sizes.size(); ++b) {
        const size_t first = rows.size();
        for (size_t r = 0; r < sizes[b]; ++r) {
          add_fresh_row(card + static_cast<int64_t>(b % 3));
        }
        if (b == 0 && rows.size() > first) {
          rows.back()[static_cast<size_t>(order[0])] = card + 5;
        }
        if (dup_batch == sizes.size() && rows.size() > first) {
          if (dup_mode == 1 && first > 0) {
            std::vector<int64_t> earlier = rows[rng() % first];
            rows.push_back(std::move(earlier));
            dup_batch = b;
          } else if (dup_mode == 2) {
            std::vector<int64_t> same = rows.back();
            rows.push_back(std::move(same));
            dup_batch = b;
          }
        }
        ends.push_back(rows.size());
      }

      // Every other shape absorbs into a directly built base, and is then
      // also held to a direct build of the concatenation.
      const bool from_build = (iter + width) % 2 == 1;
      SCOPED_TRACE(from_build ? "base from Build" : "base from Freeze");
      const Table all = RowsTable(rows, rows.size(), width);
      std::unique_ptr<FrozenTree> tree =
          from_build ? BuildRows(rows, base_end, width, order)
                     : FreezeRows(rows, base_end, width, order);
      size_t done = base_end;
      for (size_t b = 0; b < ends.size(); ++b) {
        std::vector<const uint32_t*> level_codes;
        for (int c : order) {
          level_codes.push_back(all.column_codes(c).data() + done);
        }
        const int64_t n = static_cast<int64_t>(ends[b] - done);
        ASSERT_EQ(tree->Absorb(level_codes, n), n);
        done = ends[b];
        ExpectSameLayout(*tree, *FreezeRows(rows, done, width, order));
        if (from_build) {
          ExpectSameLayout(*tree, *BuildRows(rows, done, width, order));
        }
        EXPECT_EQ(tree->has_duplicate_entities(), b >= dup_batch);
        EXPECT_TRUE(tree->AllRefsAreOne());
      }
    }
  }
}

TEST(FrozenAbsorbTest, PreRaisedCancelLeavesArraysUntouched) {
  std::mt19937_64 rng(83);
  const int width = 5;
  Rows rows(1500, std::vector<int64_t>(width));
  for (auto& row : rows) {
    for (int64_t& v : row) v = static_cast<int64_t>(rng() % 12);
  }
  const std::vector<int> order = {3, 0, 4, 1, 2};
  const size_t base_rows = 1000;
  std::unique_ptr<FrozenTree> tree = FreezeRows(rows, base_rows, width, order);
  std::vector<FrozenTree::Level> before;
  for (int l = 0; l < tree->num_levels(); ++l) before.push_back(tree->level(l));
  const int64_t entities = tree->num_entities();
  const int64_t bytes = tree->ApproxBytes();

  const Table all = RowsTable(rows, rows.size(), width);
  std::vector<const uint32_t*> level_codes;
  for (int c : order) {
    level_codes.push_back(all.column_codes(c).data() + base_rows);
  }
  const int64_t delta = static_cast<int64_t>(rows.size() - base_rows);
  std::atomic<bool> cancel{true};
  EXPECT_EQ(tree->Absorb(level_codes, delta, &cancel), 0);
  ExpectUnchanged(*tree, before, entities, bytes);

  // Once the flag drops, the same delta absorbs in full.
  cancel.store(false);
  EXPECT_EQ(tree->Absorb(level_codes, delta, &cancel), delta);
  ExpectSameLayout(*tree, *FreezeRows(rows, rows.size(), width, order));
}

TEST(FrozenTraversalTest, MatchesOracle) {
  for (uint64_t seed : {3u, 7u, 17u, 29u, 41u}) {
    Table t = MakeTable(2500, seed);
    KeyDiscoveryResult oracle = OracleFindKeys(t);
    KeyDiscoveryResult frozen = FindKeys(t);
    EXPECT_GT(frozen.stats.frozen_tree_bytes, 0);
    ExpectSameReport(t, oracle, frozen);
    ExpectSameCounters(oracle.stats, frozen.stats);
  }
}

TEST(FrozenTraversalTest, RandomizedFuzzAcrossShapes) {
  std::mt19937_64 rng(20260808);
  for (int round = 0; round < 6; ++round) {
    const int columns = 4 + static_cast<int>(rng() % 4);       // 4..7
    const int64_t rows = 500 + static_cast<int64_t>(rng() % 2000);
    const int card = 4 + static_cast<int>(rng() % 40);
    SyntheticSpec spec =
        UniformSpec(columns, rows, card, 0.5, rng());
    Table t;
    ASSERT_TRUE(GenerateSynthetic(spec, &t).ok());

    GordianOptions opt;
    const GordianOptions::TreeBuild build =
        (round % 2 == 0) ? GordianOptions::TreeBuild::kSorted
                         : GordianOptions::TreeBuild::kInsertion;
    KeyDiscoveryResult oracle = OracleFindKeys(t, opt, build);
    KeyDiscoveryResult frozen = FindKeys(t, opt);
    ExpectSameReport(t, oracle, frozen);
    ExpectSameCounters(oracle.stats, frozen.stats);
  }
}

// A sampled table keeps its full dictionary, so a level's largest code can
// far exceed its cell count. Merges there take the sort-based union rather
// than the code-indexed one, over frozen nodes and over merge outputs alike.
TEST(FrozenTraversalTest, SparseCodeDomainMatchesOracle) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Table full;
    ASSERT_TRUE(
        GenerateSynthetic(UniformSpec(6, 40000, 8000, 1.0, seed), &full).ok());
    const Table t = full.SampleRows(300, seed);
    GordianOptions opt;
    opt.attribute_order = GordianOptions::AttributeOrder::kSchema;
    KeyDiscoveryResult oracle = OracleFindKeys(t, opt);
    KeyDiscoveryResult frozen = FindKeys(t, opt);
    ExpectSameReport(t, oracle, frozen);
    ExpectSameCounters(oracle.stats, frozen.stats);
  }
}

TEST(FrozenTraversalTest, NonKeyBudgetAbortMatchesOracle) {
  Table t = MakeTable(3000, 53);
  GordianOptions opt;
  opt.max_non_keys = 2;
  KeyDiscoveryResult oracle = OracleFindKeys(t, opt);
  ASSERT_TRUE(oracle.incomplete);
  EXPECT_EQ(oracle.incomplete_reason, AbortReason::kNonKeyBudget);

  KeyDiscoveryResult frozen = FindKeys(t, opt);
  ExpectSameReport(t, oracle, frozen);
  ExpectSameCounters(oracle.stats, frozen.stats);
}

TEST(FrozenTraversalTest, PreCancelledRunAbortsWithCancelled) {
  Table t = MakeTable(1500, 59);
  std::atomic<bool> cancel{true};
  GordianOptions opt;
  opt.cancel_flag = &cancel;
  KeyDiscoveryResult r = FindKeys(t, opt);
  EXPECT_TRUE(r.incomplete);
  EXPECT_EQ(r.incomplete_reason, AbortReason::kCancelled);
  EXPECT_TRUE(r.keys.empty());
}

TEST(FrozenTraversalTest, AbortedRunFullyUnwindsFrozenRefs) {
  Table t = MakeTable(3000, 61);
  std::vector<int> order(static_cast<size_t>(t.num_columns()));
  std::iota(order.begin(), order.end(), 0);
  PrefixTree tree =
      PrefixTree::Build(t, order, GordianOptions::TreeBuild::kSorted);
  std::unique_ptr<FrozenTree> frozen = FrozenTree::Freeze(tree);

  GordianOptions opt;
  opt.max_non_keys = 1;  // trips almost immediately, mid-recursion
  GordianStats stats;
  NonKeySet set(&stats);
  FrozenNonKeyFinder finder(*frozen, opt, &set, &stats);
  EXPECT_FALSE(finder.Run());
  EXPECT_EQ(finder.abort_reason(), AbortReason::kNonKeyBudget);
  // The abort unwound every temporary share: the frozen tree is
  // bit-identical to freshly frozen and can serve the next run.
  EXPECT_TRUE(frozen->AllRefsAreOne());

  GordianOptions opt2;  // named: the finder keeps a reference to it
  GordianStats stats2;
  NonKeySet set2(&stats2);
  FrozenNonKeyFinder second(*frozen, opt2, &set2, &stats2);
  EXPECT_TRUE(second.Run());
  EXPECT_TRUE(frozen->AllRefsAreOne());
}

TEST(FrozenSimdTest, KernelsAgreeWithScalarReference) {
  EXPECT_NE(frozen_simd::ActiveKernel(), nullptr);
  std::mt19937_64 rng(42);
  for (int round = 0; round < 200; ++round) {
    const size_t n = rng() % 70;
    std::vector<uint32_t> codes(n);
    uint32_t next = 0;
    for (size_t i = 0; i < n; ++i) {
      next += 1 + static_cast<uint32_t>(rng() % 50);
      codes[i] = next;
    }
    // Probe below, inside, between, and above the span — including values
    // past INT32_MAX, which the AVX2 kernel handles via the sign-bias trick.
    for (int probe = 0; probe < 8; ++probe) {
      uint32_t target = static_cast<uint32_t>(rng());
      if (probe < 4 && n > 0) target = codes[rng() % n] + (probe % 2);
      EXPECT_EQ(frozen_simd::LowerBound(codes.data(), n, target),
                frozen_simd::LowerBoundScalar(codes.data(), n, target))
          << "n=" << n << " target=" << target;
    }

    std::vector<int64_t> counts(n, 1);
    EXPECT_EQ(frozen_simd::AnyCountNotOne(counts.data(), n),
              frozen_simd::AnyCountNotOneScalar(counts.data(), n));
    if (n > 0) {
      counts[rng() % n] = 2 + static_cast<int64_t>(rng() % 5);
      EXPECT_TRUE(frozen_simd::AnyCountNotOne(counts.data(), n));
      EXPECT_EQ(frozen_simd::AnyCountNotOne(counts.data(), n),
                frozen_simd::AnyCountNotOneScalar(counts.data(), n));
    }
  }
}

TEST(FrozenTreeCacheTest, HitServesPrefrozenArtifact) {
  Table t = MakeTable(1500, 71);
  GordianOptions opt;
  const uint64_t fp = TableFingerprint(t);
  TreeArtifactCache cache;

  bool hit = false;
  KeyDiscoveryResult first = ProfileWithTreeCache(t, opt, fp, &cache, &hit);
  EXPECT_FALSE(hit);
  // The miss built the frozen layout directly (no freeze pass) and admitted
  // that very tree.
  EXPECT_EQ(first.stats.freeze_seconds, 0.0);
  EXPECT_GT(first.stats.frozen_tree_bytes, 0);
  TreeArtifactCache::Stats cs = cache.GetStats();
  EXPECT_EQ(cs.insertions, 1);
  EXPECT_EQ(cs.frozen_bytes, first.stats.frozen_tree_bytes);

  KeyDiscoveryResult second = ProfileWithTreeCache(t, opt, fp, &cache, &hit);
  EXPECT_TRUE(hit);
  EXPECT_GT(second.stats.frozen_tree_bytes, 0);
  // A hit pays neither build nor freeze: the prefrozen twin was injected.
  EXPECT_EQ(second.stats.freeze_seconds, 0.0);
  ExpectSameReport(t, first, second);

  // A run that stops at duplicate entities still ends with its frozen tree:
  // the miss admits it, so later hits are served frozen.
  SyntheticSpec dup_spec = UniformSpec(2, 200, 2, 0.0, 53);
  dup_spec.ensure_unique_rows = false;
  Table dup;
  ASSERT_TRUE(GenerateSynthetic(dup_spec, &dup).ok());
  const uint64_t dup_fp = TableFingerprint(dup);
  KeyDiscoveryResult dup_first =
      ProfileWithTreeCache(dup, opt, dup_fp, &cache, &hit);
  EXPECT_FALSE(hit);
  EXPECT_TRUE(dup_first.no_keys);
  EXPECT_EQ(cache.GetStats().insertions, 2);
  {
    TreeArtifactCache::Lease lease =
        cache.Acquire(MakeTreeCacheKey(dup_fp, dup.num_columns(), opt));
    ASSERT_TRUE(lease.valid());
    EXPECT_NE(lease.frozen(), nullptr);
    EXPECT_TRUE(lease.frozen()->has_duplicate_entities());
  }
  KeyDiscoveryResult dup_hit =
      ProfileWithTreeCache(dup, opt, dup_fp, &cache, &hit);
  EXPECT_TRUE(hit);
  ExpectSameReport(dup, dup_first, dup_hit);
}

// Regression for the cell_count data race: the memo used to be a plain
// mutable int64_t written on first call, racing when TreeArtifactCache
// served one tree to back-to-back runs probed from several threads. Build
// now fills the memo eagerly and the fallback publishes through an atomic;
// under TSan this test is the proof.
TEST(PrefixTreeTest, ConcurrentCellCountReadsAreRaceFree) {
  Table t = MakeTable(2000, 73);
  std::vector<int> order(static_cast<size_t>(t.num_columns()));
  std::iota(order.begin(), order.end(), 0);
  PrefixTree tree =
      PrefixTree::Build(t, order, GordianOptions::TreeBuild::kSorted);
  const int64_t expected = tree.cell_count();

  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&] {
      for (int k = 0; k < 1000; ++k) {
        if (tree.cell_count() != expected) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace gordian
