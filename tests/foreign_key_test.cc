// Tests for foreign-key (inclusion dependency) discovery — the paper's
// stated future-work extension implemented in core/foreign_key.

#include "core/foreign_key.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/gordian.h"
#include "datagen/tpch_lite.h"
#include "oracle/foreign_key.h"

namespace gordian {
namespace {

// A small orders -> customers pair with a clean FK.
struct TwoTables {
  Table customers;
  Table orders;
};

TwoTables MakeTwoTables(bool dangling_reference) {
  TableBuilder cb(Schema(std::vector<std::string>{"cust_id", "name"}));
  for (int64_t i = 0; i < 50; ++i) {
    cb.AddRow({Value(i), Value("cust" + std::to_string(i))});
  }
  TableBuilder ob(
      Schema(std::vector<std::string>{"order_id", "cust_ref", "amount"}));
  for (int64_t i = 0; i < 200; ++i) {
    int64_t ref = i % 50;
    if (dangling_reference && i == 17) ref = 999;  // no such customer
    ob.AddRow({Value(i), Value(ref), Value(i * 3 % 97)});
  }
  return {cb.Build(), ob.Build()};
}

std::vector<ProfiledTable> Profile(const TwoTables& tt) {
  std::vector<ProfiledTable> tables;
  tables.push_back({"customers", &tt.customers,
                    FindKeys(tt.customers).KeySets()});
  tables.push_back({"orders", &tt.orders, FindKeys(tt.orders).KeySets()});
  return tables;
}

TEST(InclusionCoverage, ExactAndPartial) {
  TwoTables clean = MakeTwoTables(false);
  EXPECT_DOUBLE_EQ(InclusionCoverage(clean.orders, AttributeSet{1},
                                     clean.customers, AttributeSet{0}),
                   1.0);
  TwoTables dirty = MakeTwoTables(true);
  // 50 distinct refs + the dangling one: 50/51 covered.
  EXPECT_NEAR(InclusionCoverage(dirty.orders, AttributeSet{1},
                                dirty.customers, AttributeSet{0}),
              50.0 / 51.0, 1e-12);
}

TEST(DiscoverForeignKeys, FindsTheCleanReference) {
  TwoTables tt = MakeTwoTables(false);
  auto tables = Profile(tt);
  ForeignKeyOptions opts;
  opts.min_distinct_values = 10;
  auto fks = DiscoverForeignKeys(tables, opts);

  bool found = false;
  for (const ForeignKeyCandidate& fk : fks) {
    if (fk.referencing_table == 1 && fk.referenced_table == 0 &&
        fk.foreign_key_columns == std::vector<int>{1} &&
        fk.referenced_key == AttributeSet{0}) {
      found = true;
      EXPECT_DOUBLE_EQ(fk.coverage, 1.0);
      EXPECT_EQ(fk.distinct_fk_tuples, 50);
    }
  }
  EXPECT_TRUE(found);
}

TEST(DiscoverForeignKeys, StrictModeRejectsDanglingReferences) {
  TwoTables tt = MakeTwoTables(true);
  auto tables = Profile(tt);
  ForeignKeyOptions strict;
  strict.min_distinct_values = 10;
  for (const ForeignKeyCandidate& fk : DiscoverForeignKeys(tables, strict)) {
    EXPECT_FALSE(fk.referencing_table == 1 && fk.referenced_table == 0 &&
                 fk.foreign_key_columns == std::vector<int>{1});
  }
  // Approximate mode keeps it.
  ForeignKeyOptions loose = strict;
  loose.min_coverage = 0.9;
  bool found = false;
  for (const ForeignKeyCandidate& fk : DiscoverForeignKeys(tables, loose)) {
    if (fk.referencing_table == 1 && fk.referenced_table == 0 &&
        fk.foreign_key_columns == std::vector<int>{1}) {
      found = true;
      EXPECT_LT(fk.coverage, 1.0);
      EXPECT_GT(fk.coverage, 0.9);
    }
  }
  EXPECT_TRUE(found);
}

TEST(DiscoverForeignKeys, ReferencedCoverageComputedAndFilterable) {
  // Orders reference only the first 10 of 50 customers: the candidate's
  // referenced_coverage is 20%, so a 0.5 threshold drops it.
  TableBuilder cb(Schema(std::vector<std::string>{"cust_id"}));
  for (int64_t i = 0; i < 50; ++i) cb.AddRow({Value(i)});
  TableBuilder ob(Schema(std::vector<std::string>{"order_id", "cust_ref"}));
  for (int64_t i = 0; i < 200; ++i) {
    ob.AddRow({Value(i), Value(i % 10)});
  }
  Table customers = cb.Build(), orders = ob.Build();
  std::vector<ProfiledTable> tables;
  tables.push_back({"customers", &customers, FindKeys(customers).KeySets()});
  tables.push_back({"orders", &orders, FindKeys(orders).KeySets()});

  ForeignKeyOptions opts;
  opts.min_distinct_values = 5;
  bool found = false;
  for (const ForeignKeyCandidate& fk : DiscoverForeignKeys(tables, opts)) {
    if (fk.referencing_table == 1 && fk.referenced_table == 0 &&
        fk.foreign_key_columns == std::vector<int>{1}) {
      found = true;
      EXPECT_NEAR(fk.referenced_coverage, 0.2, 1e-12);
    }
  }
  EXPECT_TRUE(found);

  opts.min_referenced_coverage = 0.5;
  for (const ForeignKeyCandidate& fk : DiscoverForeignKeys(tables, opts)) {
    EXPECT_FALSE(fk.referencing_table == 1 &&
                 fk.foreign_key_columns == std::vector<int>{1});
  }
}

TEST(DiscoverForeignKeys, MinDistinctFilterDropsTinyDomains) {
  TwoTables tt = MakeTwoTables(false);
  auto tables = Profile(tt);
  ForeignKeyOptions opts;
  opts.min_distinct_values = 1000;  // nothing qualifies
  EXPECT_TRUE(DiscoverForeignKeys(tables, opts).empty());
}

TEST(DiscoverForeignKeys, TypeCompatibilityFilter) {
  // A string column whose rendered values can never match integer keys;
  // with type checking off and a permissive threshold it is still not
  // covered, but the filter must remove it before any scan.
  TableBuilder kb(Schema(std::vector<std::string>{"id"}));
  TableBuilder fb(Schema(std::vector<std::string>{"ref"}));
  for (int64_t i = 0; i < 40; ++i) {
    kb.AddRow({Value(i)});
    fb.AddRow({Value("s" + std::to_string(i))});
  }
  Table keys = kb.Build(), refs = fb.Build();
  std::vector<ProfiledTable> tables;
  tables.push_back({"keys", &keys, FindKeys(keys).KeySets()});
  tables.push_back({"refs", &refs, FindKeys(refs).KeySets()});
  ForeignKeyOptions opts;
  opts.min_distinct_values = 10;
  opts.min_coverage = 0.0;
  auto found = DiscoverForeignKeys(tables, opts);
  for (const ForeignKeyCandidate& fk : found) {
    if (fk.referencing_table == 1 && fk.referenced_table == 0) {
      ADD_FAILURE() << "string->int candidate should have been filtered";
    }
  }
}

TEST(DiscoverForeignKeys, TpchLineitemReferencesOrdersAndPartsupp) {
  auto db = GenerateTpchLite(0.002, 31);
  std::vector<ProfiledTable> tables;
  std::vector<KeyDiscoveryResult> results(db.size());
  for (size_t i = 0; i < db.size(); ++i) {
    results[i] = FindKeys(db[i].table);
    tables.push_back({db[i].name, &db[i].table, results[i].KeySets()});
  }
  ForeignKeyOptions opts;
  opts.min_distinct_values = 20;
  auto fks = DiscoverForeignKeys(tables, opts);

  auto index_of = [&](const std::string& name) {
    for (size_t i = 0; i < db.size(); ++i) {
      if (db[i].name == name) return static_cast<int>(i);
    }
    return -1;
  };
  int lineitem = index_of("lineitem");
  int orders = index_of("orders");
  int okey_in_li = db[lineitem].table.schema().Find("l_orderkey");
  int okey_in_o = db[orders].table.schema().Find("o_orderkey");

  bool li_orders = false;
  for (const ForeignKeyCandidate& fk : fks) {
    if (fk.referencing_table == lineitem && fk.referenced_table == orders &&
        fk.foreign_key_columns == std::vector<int>{okey_in_li} &&
        fk.referenced_key == AttributeSet::Single(okey_in_o)) {
      li_orders = true;
      EXPECT_DOUBLE_EQ(fk.coverage, 1.0);
    }
  }
  EXPECT_TRUE(li_orders) << "lineitem.l_orderkey -> orders.o_orderkey missing";
}

TEST(DiscoverForeignKeys, CompositeForeignKeyPairing) {
  // Referencing table stores (a, b) that reference a composite key (x, y)
  // of the referenced table — the discovered candidate must pair the
  // columns in the right order.
  TableBuilder kb(Schema(std::vector<std::string>{"x", "y", "payload"}));
  for (int64_t x = 0; x < 10; ++x) {
    for (int64_t y = 0; y < 10; ++y) {
      kb.AddRow({Value(x), Value(y), Value(x * 100 + y)});
    }
  }
  Table keyed = kb.Build();
  TableBuilder fb(Schema(std::vector<std::string>{"b_ref", "a_ref"}));
  for (int64_t i = 0; i < 80; ++i) {
    // Columns swapped relative to the key: a_ref -> x, b_ref -> y. The two
    // columns vary independently so the pair has 80 distinct tuples.
    fb.AddRow({Value(i % 10), Value((i / 10) % 10)});
  }
  Table refs = fb.Build();

  std::vector<ProfiledTable> tables;
  auto keyed_keys = FindKeys(keyed).KeySets();
  tables.push_back({"keyed", &keyed, keyed_keys});
  tables.push_back({"refs", &refs, FindKeys(refs).KeySets()});

  ForeignKeyOptions opts;
  opts.min_distinct_values = 20;
  auto fks = DiscoverForeignKeys(tables, opts);
  bool found = false;
  for (const ForeignKeyCandidate& fk : fks) {
    if (fk.referencing_table == 1 && fk.referenced_table == 0 &&
        fk.referenced_key == (AttributeSet{0, 1}) &&
        fk.foreign_key_columns == std::vector<int>{1, 0}) {
      found = true;  // a_ref pairs with x, b_ref with y
      EXPECT_DOUBLE_EQ(fk.coverage, 1.0);
    }
  }
  EXPECT_TRUE(found);
}

TEST(DiscoverForeignKeys, MaxArityAboveTwoActsAsTwo) {
  // The referenced table's only key is (x, y, z): every pair repeats. The
  // referencing table holds a full copy of those triples next to its own
  // key, so a three-column search would find (a, b, c) -> (x, y, z).
  TableBuilder kb(Schema(std::vector<std::string>{"x", "y", "z"}));
  TableBuilder fb(Schema(std::vector<std::string>{"id", "a", "b", "c"}));
  for (int64_t i = 0; i < 64; ++i) {
    kb.AddRow({Value(i / 16), Value(i / 4 % 4), Value(i % 4)});
    fb.AddRow({Value(i), Value(i / 16), Value(i / 4 % 4), Value(i % 4)});
  }
  Table keyed = kb.Build(), refs = fb.Build();
  std::vector<ProfiledTable> tables;
  tables.push_back({"keyed", &keyed, FindKeys(keyed).KeySets()});
  tables.push_back({"refs", &refs, FindKeys(refs).KeySets()});
  const AttributeSet xyz{0, 1, 2};
  ASSERT_EQ(tables[0].keys, std::vector<AttributeSet>{xyz});

  ForeignKeyOptions two;
  two.min_distinct_values = 1;
  ForeignKeyOptions three = two;
  three.max_arity = 3;

  const std::vector<ForeignKeyCandidate> a = DiscoverForeignKeys(tables, two);
  const std::vector<ForeignKeyCandidate> b = DiscoverForeignKeys(tables, three);
  ASSERT_FALSE(a.empty());  // the single-column references into refs.id
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].referencing_table, b[i].referencing_table);
    EXPECT_EQ(a[i].foreign_key_columns, b[i].foreign_key_columns);
    EXPECT_EQ(a[i].referenced_table, b[i].referenced_table);
    EXPECT_EQ(a[i].referenced_key, b[i].referenced_key);
    EXPECT_EQ(a[i].coverage, b[i].coverage);
    EXPECT_EQ(a[i].referenced_coverage, b[i].referenced_coverage);
    EXPECT_EQ(a[i].distinct_fk_tuples, b[i].distinct_fk_tuples);
    EXPECT_NE(a[i].referenced_table, 0);
  }
}

}  // namespace
}  // namespace gordian
