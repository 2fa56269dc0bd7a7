// Tests for the profiling report module: JSON output and DOT ER diagrams
// over a DatabaseProfile assembled from FindKeys and DiscoverForeignKeys.

#include "core/report.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/foreign_key.h"
#include "core/gordian.h"
#include "datagen/tpch_lite.h"

namespace gordian {
namespace {

// A profile the way a caller assembles one: FindKeys per table (validated
// against the full table when sampled), then DiscoverForeignKeys across
// the tables when `with_fks` is set.
DatabaseProfile ProfileTables(
    const std::vector<std::pair<std::string, const Table*>>& tables,
    const GordianOptions& options = {}, bool with_fks = false,
    const ForeignKeyOptions& fk_options = {}) {
  DatabaseProfile profile;
  std::vector<ProfiledTable> profiled;
  for (const auto& [name, table] : tables) {
    DatabaseProfile::Entry e{name, table, FindKeys(*table, options)};
    if (e.result.sampled) ValidateKeys(*table, &e.result);
    profiled.push_back({name, table, e.result.KeySets()});
    profile.tables.push_back(std::move(e));
  }
  if (with_fks) {
    profile.foreign_keys = DiscoverForeignKeys(profiled, fk_options);
  }
  return profile;
}

struct TwoTables {
  Table customers;
  Table orders;
};

TwoTables MakeTwoTables() {
  TableBuilder cb(Schema(std::vector<std::string>{"cust_id", "name"}));
  for (int64_t i = 0; i < 40; ++i) {
    cb.AddRow({Value(i), Value("c" + std::to_string(i))});
  }
  TableBuilder ob(Schema(std::vector<std::string>{"order_id", "cust_ref"}));
  for (int64_t i = 0; i < 160; ++i) {
    ob.AddRow({Value(i), Value(i % 40)});
  }
  return {cb.Build(), ob.Build()};
}

DatabaseProfile MakeProfile(const TwoTables& tt, bool with_fks) {
  ForeignKeyOptions fk;
  fk.min_distinct_values = 10;
  return ProfileTables({{"customers", &tt.customers}, {"orders", &tt.orders}},
                       GordianOptions{}, with_fks, fk);
}

TEST(JsonEscape, EscapesControlAndSpecialCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(JsonEscape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(DatabaseProfile, ProfilesEveryTableAndFindsForeignKeys) {
  TwoTables tt = MakeTwoTables();
  DatabaseProfile p = MakeProfile(tt, /*with_fks=*/true);
  ASSERT_EQ(p.tables.size(), 2u);
  EXPECT_EQ(p.tables[0].name, "customers");
  EXPECT_FALSE(p.tables[0].result.keys.empty());
  EXPECT_FALSE(p.tables[1].result.keys.empty());
  // orders.cust_ref -> customers.cust_id must be among the candidates.
  bool found = false;
  for (const ForeignKeyCandidate& fk : p.foreign_keys) {
    if (fk.referencing_table == 1 && fk.referenced_table == 0 &&
        fk.foreign_key_columns == std::vector<int>{1}) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(ProfileToJson, ContainsTheExpectedStructure) {
  TwoTables tt = MakeTwoTables();
  std::string json = ProfileToJson(MakeProfile(tt, /*with_fks=*/true));
  // Structural spot checks (no JSON parser in the toolchain).
  EXPECT_NE(json.find("\"tables\": ["), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"customers\""), std::string::npos);
  EXPECT_NE(json.find("\"rows\": 40"), std::string::npos);
  EXPECT_NE(json.find("\"attributes\": [\"cust_id\", \"name\"]"),
            std::string::npos);
  EXPECT_NE(json.find("\"keys\": ["), std::string::npos);
  EXPECT_NE(json.find("\"cust_id\""), std::string::npos);
  EXPECT_NE(json.find("\"foreign_keys\": ["), std::string::npos);
  EXPECT_NE(json.find("\"coverage\": 1"), std::string::npos);
  // Balanced braces/brackets as a cheap well-formedness check.
  int braces = 0, brackets = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(ProfileToJson, MarksSampledAndValidatedRuns) {
  auto db = GenerateTpchLite(0.002, 61);
  const Table* orders = nullptr;
  for (const auto& nt : db) {
    if (nt.name == "orders") orders = &nt.table;
  }
  ASSERT_NE(orders, nullptr);
  GordianOptions o;
  o.sample_rows = orders->num_rows() / 4;
  DatabaseProfile p = ProfileTables({{"orders", orders}}, o);
  std::string json = ProfileToJson(p);
  EXPECT_NE(json.find("\"sampled\": true"), std::string::npos);
  // The sampled run was validated: exact strengths present.
  EXPECT_NE(json.find("\"strength\":"), std::string::npos);
}

TEST(ProfileToDot, EmitsNodesAndEdges) {
  TwoTables tt = MakeTwoTables();
  std::string dot = ProfileToDot(MakeProfile(tt, /*with_fks=*/true));
  EXPECT_EQ(dot.find("digraph schema {"), 0u);
  EXPECT_NE(dot.find("t0 [label=\"customers|"), std::string::npos);
  EXPECT_NE(dot.find("t1 [label=\"orders|"), std::string::npos);
  // PK candidate marked with "*".
  EXPECT_NE(dot.find("* cust_id"), std::string::npos);
  // FK edge from orders.cust_ref (column 1) to customers.cust_id (column 0).
  EXPECT_NE(dot.find("t1:f1 -> t0:f0;"), std::string::npos);
  EXPECT_EQ(dot.back(), '\n');
}

TEST(ProfileToDot, DashedEdgeForApproximateInclusion) {
  TwoTables tt = MakeTwoTables();
  DatabaseProfile p = MakeProfile(tt, /*with_fks=*/false);
  ForeignKeyCandidate fk;
  fk.referencing_table = 1;
  fk.referenced_table = 0;
  fk.foreign_key_columns = {1};
  fk.referenced_key = AttributeSet::Single(0);
  fk.coverage = 0.93;
  p.foreign_keys.push_back(fk);
  std::string dot = ProfileToDot(p);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);
  EXPECT_NE(dot.find("93%"), std::string::npos);
}

TEST(ProfileToDot, EscapesRecordCharactersInColumnNames) {
  TableBuilder b(Schema(std::vector<std::string>{"weird|name", "ok"}));
  b.AddRow({Value(int64_t{1}), Value(int64_t{2})});
  b.AddRow({Value(int64_t{3}), Value(int64_t{4})});
  Table t = b.Build();
  DatabaseProfile p = ProfileTables({{"t", &t}});
  std::string dot = ProfileToDot(p);
  EXPECT_NE(dot.find("weird\\|name"), std::string::npos);
}

}  // namespace
}  // namespace gordian
