// Tests for the minimal XML document-collection reader and its end-to-end
// use with GORDIAN.

#include "table/xml_lite.h"

#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "common/attribute_set.h"
#include "core/gordian.h"

namespace gordian {
namespace {

Status Parse(const std::string& xml, std::vector<Record>* out) {
  return ParseXmlCollection(xml, out);
}

const Value* Field(const Record& r, const std::string& path) {
  for (const auto& [p, v] : r) {
    if (p == path) return &v;
  }
  return nullptr;
}

TEST(XmlLite, ParsesFlatEntities) {
  std::vector<Record> records;
  ASSERT_TRUE(Parse("<db><emp><id>1</id><name>Ada</name></emp>"
                    "<emp><id>2</id><name>Bob</name></emp></db>",
                    &records)
                  .ok());
  ASSERT_EQ(records.size(), 2u);
  ASSERT_NE(Field(records[0], "id"), nullptr);
  EXPECT_EQ(*Field(records[0], "id"), Value(int64_t{1}));
  EXPECT_EQ(*Field(records[1], "name"), Value("Bob"));
}

TEST(XmlLite, NestedElementsBecomeSlashPaths) {
  std::vector<Record> records;
  ASSERT_TRUE(Parse("<db><p><addr><city>Zurich</city><zip>8001</zip></addr>"
                    "</p></db>",
                    &records)
                  .ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(*Field(records[0], "addr/city"), Value("Zurich"));
  EXPECT_EQ(*Field(records[0], "addr/zip"), Value(int64_t{8001}));
}

TEST(XmlLite, AttributesBecomeAtFields) {
  std::vector<Record> records;
  ASSERT_TRUE(Parse("<db><p id=\"7\" kind='x'><tag code=\"z\">t</tag></p></db>",
                    &records)
                  .ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(*Field(records[0], "@id"), Value(int64_t{7}));
  EXPECT_EQ(*Field(records[0], "@kind"), Value("x"));
  EXPECT_EQ(*Field(records[0], "tag/@code"), Value("z"));
  EXPECT_EQ(*Field(records[0], "tag"), Value("t"));
}

TEST(XmlLite, DecodesEntitiesAndSkipsCommentsAndProlog) {
  std::vector<Record> records;
  ASSERT_TRUE(Parse("<?xml version='1.0'?><!-- a comment -->\n"
                    "<db><p><t>a &lt;b&gt; &amp; &quot;c&quot; &#65;</t></p>"
                    "<!-- between --></db>",
                    &records)
                  .ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(*Field(records[0], "t"), Value("a <b> & \"c\" A"));
}

TEST(XmlLite, EmptyLeafIsNullAndSelfClosingEntityWithAttrsWorks) {
  std::vector<Record> records;
  ASSERT_TRUE(
      Parse("<db><p><opt></opt><x>1</x></p><p id='9'/></db>", &records).ok());
  ASSERT_EQ(records.size(), 2u);
  ASSERT_NE(Field(records[0], "opt"), nullptr);
  EXPECT_TRUE(Field(records[0], "opt")->is_null());
  EXPECT_EQ(*Field(records[1], "@id"), Value(int64_t{9}));
}

TEST(XmlLite, RejectsMalformedInput) {
  std::vector<Record> r;
  EXPECT_FALSE(Parse("", &r).ok());
  EXPECT_FALSE(Parse("<db><p><a>1</b></p></db>", &r).ok());  // mismatch
  EXPECT_FALSE(Parse("<db><p><a>1</a>", &r).ok());           // unterminated
  EXPECT_FALSE(Parse("<db><p><a>&bogus;</a></p></db>", &r).ok());
  EXPECT_FALSE(Parse("<db><p><a>1</a><a>2</a></p></db>", &r).ok());  // repeat
  EXPECT_FALSE(Parse("<db><p attr=unquoted></p></db>", &r).ok());
  EXPECT_FALSE(Parse("<!-- never closed", &r).ok());
}

TEST(XmlLite, RejectsMixedContent) {
  std::vector<Record> r;
  EXPECT_FALSE(
      Parse("<db><p><a>text<b>1</b></a></p></db>", &r).ok());
}

TEST(XmlLite, ReadXmlCollectionEndToEndKeyDiscovery) {
  // Entities with @id unique and (author, title) a composite key.
  std::string path = ::testing::TempDir() + "gordian_docs.xml";
  {
    std::ofstream os(path);
    os << "<library>\n";
    const char* authors[] = {"kim", "lee", "kim", "lee"};
    const char* titles[] = {"t1", "t1", "t2", "t2"};
    for (int i = 0; i < 4; ++i) {
      os << "  <book id='" << 100 + i << "'><author>" << authors[i]
         << "</author><title>" << titles[i] << "</title></book>\n";
    }
    os << "</library>\n";
  }
  Table t;
  ASSERT_TRUE(ReadXmlCollection(path, &t).ok());
  EXPECT_EQ(t.num_rows(), 4);
  ASSERT_EQ(t.num_columns(), 3);  // @id, author, title

  KeyDiscoveryResult r = FindKeys(t);
  ASSERT_FALSE(r.no_keys);
  int id = t.schema().Find("@id");
  int author = t.schema().Find("author");
  int title = t.schema().Find("title");
  std::vector<AttributeSet> keys = r.KeySets();
  EXPECT_NE(std::find(keys.begin(), keys.end(), AttributeSet::Single(id)),
            keys.end());
  AttributeSet composite;
  composite.Set(author);
  composite.Set(title);
  EXPECT_NE(std::find(keys.begin(), keys.end(), composite), keys.end());
}

TEST(XmlLite, TooManyFieldPathsIsInvalidArgument) {
  // One entity per field path: 129 distinct paths, one more than an
  // attribute set can address.
  std::string xml = "<db>";
  for (int i = 0; i <= AttributeSet::kMaxAttributes; ++i) {
    const std::string field = "f" + std::to_string(i);
    xml += "<e><" + field + ">1</" + field + "></e>";
  }
  xml += "</db>";
  std::vector<Record> records;
  ASSERT_TRUE(Parse(xml, &records).ok());
  Table t;
  EXPECT_EQ(FlattenRecords(records, &t).code(),
            Status::Code::kInvalidArgument);

  std::string path = ::testing::TempDir() + "gordian_wide.xml";
  {
    std::ofstream os(path);
    os << xml;
  }
  EXPECT_EQ(ReadXmlCollection(path, &t).code(),
            Status::Code::kInvalidArgument);
}

TEST(XmlLite, MissingFileAndEmptyCollection) {
  Table t;
  EXPECT_EQ(ReadXmlCollection("/no/such.xml", &t).code(),
            Status::Code::kIOError);
  std::string path = ::testing::TempDir() + "gordian_empty.xml";
  {
    std::ofstream os(path);
    os << "<db></db>";
  }
  EXPECT_FALSE(ReadXmlCollection(path, &t).ok());
}

}  // namespace
}  // namespace gordian
