#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "data/generators.h"
#include "xml/xml.h"

namespace twig::xml {
namespace {

using tree::NodeId;
using tree::Tree;
using tree::TreeBuilder;

TEST(XmlParseTest, SimpleElementTree) {
  auto result = ParseXml("<dblp><book><year>1993</year></book></dblp>");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Tree& t = *result;
  EXPECT_EQ(t.LabelName(t.root()), "dblp");
  NodeId book = t.Children(t.root())[0];
  EXPECT_EQ(t.LabelName(book), "book");
  NodeId year = t.Children(book)[0];
  EXPECT_EQ(t.LabelName(year), "year");
  NodeId value = t.Children(year)[0];
  EXPECT_TRUE(t.IsValue(value));
  EXPECT_EQ(t.Value(value), "1993");
}

TEST(XmlParseTest, AttributesBecomeChildren) {
  auto result = ParseXml(R"(<entry id="P1" status="ok"/>)");
  ASSERT_TRUE(result.ok());
  const Tree& t = *result;
  ASSERT_EQ(t.Children(t.root()).size(), 2u);
  NodeId id = t.Children(t.root())[0];
  EXPECT_EQ(t.LabelName(id), "id");
  EXPECT_EQ(t.Value(t.Children(id)[0]), "P1");
}

TEST(XmlParseTest, AttributesCanBeDropped) {
  XmlParseOptions options;
  options.attributes_as_children = false;
  auto result = ParseXml(R"(<entry id="P1"/>)", options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->Children(result->root()).empty());
}

TEST(XmlParseTest, EntityDecoding) {
  auto result = ParseXml("<t>a &amp; b &lt;c&gt; &quot;d&quot; &#65;</t>");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->Value(result->Children(result->root())[0]),
            "a & b <c> \"d\" A");
}

/// The single value a one-element document parses to.
std::string ParsedValue(std::string_view xml) {
  auto result = ParseXml(xml);
  if (!result.ok()) return "error: " + result.status().ToString();
  return std::string(result->Value(result->Children(result->root())[0]));
}

TEST(XmlParseTest, NumericEntityUtf8) {
  EXPECT_EQ(ParsedValue("<t>&#xE9;</t>"), "\xC3\xA9");  // é
  EXPECT_EQ(ParsedValue("<t>&#x20AC;</t>"), "\xE2\x82\xAC");  // €
  // U+1F600 lies above the BMP: four bytes, in hex and in decimal.
  EXPECT_EQ(ParsedValue("<t>&#x1F600;</t>"), "\xF0\x9F\x98\x80");
  EXPECT_EQ(ParsedValue("<t>&#128512;</t>"), "\xF0\x9F\x98\x80");
  EXPECT_EQ(ParsedValue("<t>&#x10FFFF;</t>"), "\xF4\x8F\xBF\xBF");
}

TEST(XmlParseTest, InvalidCharacterReferencesAreErrors) {
  for (const char* ref : {
           "&#;",          // no digits
           "&#x;",         // no hex digits
           "&#0;",         // NUL is not an XML character
           "&#x1F;",       // nor is a C0 control other than tab, LF, CR
           "&#xD800;",     // nor a surrogate
           "&#xFFFE;",     // nor U+FFFE
           "&#-3;",        // a sign is not a digit
           "&#x110000;",   // above U+10FFFF
           "&#99999999999;",  // overflows 32 bits
           "&#65ab;",      // trailing junk after the digits of 'A'
           "&#x41g;",      // and after its hex digits
       }) {
    const std::string xml = std::string("<t>") + ref + "</t>";
    auto result = ParseXml(xml);
    ASSERT_FALSE(result.ok()) << ref;
    EXPECT_EQ(result.status().code(), StatusCode::kParseError) << ref;
    // The offset names the reference's '&'.
    EXPECT_NE(result.status().ToString().find("at byte 3"), std::string::npos)
        << ref << ": " << result.status().ToString();
  }
  // Attribute values decode through the same path.
  EXPECT_FALSE(ParseXml("<t a=\"&#0;\"/>").ok());
  // Tab, LF and CR are allowed; whitespace normalization then applies.
  EXPECT_EQ(ParsedValue("<t>a&#9;b</t>"), "a b");
}

TEST(XmlParseTest, SkipsCommentsPrologAndPi) {
  auto result = ParseXml(
      "<?xml version=\"1.0\"?><!-- hi --><!DOCTYPE dblp><dblp><?pi data?>"
      "<book/></dblp><!-- bye -->");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->LabelName(result->root()), "dblp");
  ASSERT_EQ(result->Children(result->root()).size(), 1u);
}

TEST(XmlParseTest, CdataIsVerbatim) {
  auto result = ParseXml("<t><![CDATA[a < b & c]]></t>");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->Value(result->Children(result->root())[0]), "a < b & c");
}

TEST(XmlParseTest, WhitespaceOnlyTextSkipped) {
  auto result = ParseXml("<a>\n  <b/>\n  <c/>\n</a>");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->Children(result->root()).size(), 2u);
}

TEST(XmlParseTest, TextWhitespaceNormalized) {
  auto result = ParseXml("<t>Morgan\n   Kaufmann</t>");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->Value(result->Children(result->root())[0]),
            "Morgan Kaufmann");
}

TEST(XmlParseTest, MismatchedTagIsError) {
  auto result = ParseXml("<a><b></a></b>");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

TEST(XmlParseTest, TrailingGarbageIsError) {
  auto result = ParseXml("<a/>junk");
  ASSERT_FALSE(result.ok());
}

TEST(XmlParseTest, UnterminatedElementIsError) {
  EXPECT_FALSE(ParseXml("<a><b>").ok());
  EXPECT_FALSE(ParseXml("<a attr=\"x>").ok());
}

TEST(XmlWriteTest, RoundTrip) {
  const std::string xml =
      "<dblp><book><author>Suciu</author><year>1993</year></book></dblp>";
  auto parsed = ParseXml(xml);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(WriteXml(*parsed), xml);
}

TEST(XmlWriteTest, GeneratedDocumentsRoundTrip) {
  for (uint64_t seed : {1u, 2u}) {
    data::DblpOptions options;
    options.target_bytes = 256 * 1024;
    options.seed = seed;
    const std::string xml = WriteXml(data::GenerateDblp(options));
    auto parsed = ParseXml(xml);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_TRUE(WriteXml(*parsed) == xml) << "DBLP seed " << seed;
  }
  data::SwissProtOptions options;
  options.target_bytes = 128 * 1024;
  const std::string xml = WriteXml(data::GenerateSwissProt(options));
  auto parsed = ParseXml(xml);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(WriteXml(*parsed) == xml) << "SwissProt";
}

TEST(XmlWriteTest, EscapesSpecialCharacters) {
  TreeBuilder b;
  NodeId r = b.AddRoot("t");
  b.AddValue(r, "a<b>&\"'");
  const Tree t = std::move(b).Finish();
  const std::string xml = WriteXml(t);
  EXPECT_EQ(xml, "<t>a&lt;b&gt;&amp;&quot;&apos;</t>");
  auto reparsed = ParseXml(xml);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->Value(reparsed->Children(reparsed->root())[0]),
            "a<b>&\"'");
}

TEST(XmlWriteTest, ByteSizeMatchesCompactOutput) {
  auto parsed =
      ParseXml("<dblp><book><author>Suciu</author></book><book/></dblp>");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(XmlByteSize(*parsed), WriteXml(*parsed).size());

  // XmlByteSize counts escapes without building them: every escapable
  // character, empty values and childless elements must size exactly.
  TreeBuilder b;
  NodeId r = b.AddRoot("r");
  b.AddValue(r, "a<b>&\"'");
  b.AddValue(r, "");
  b.AddElement(r, "empty");
  NodeId e = b.AddElement(r, "e");
  b.AddValue(e, "&&''\"\"<<>>");
  b.AddValue(b.AddElement(e, "v"), "");
  b.AddValue(e, "plain");
  const Tree t = std::move(b).Finish();
  EXPECT_EQ(XmlByteSize(t), WriteXml(t).size());

  TreeBuilder only;
  only.AddRoot("only");
  const Tree childless = std::move(only).Finish();
  EXPECT_EQ(XmlByteSize(childless), WriteXml(childless).size());
  EXPECT_EQ(XmlByteSize(tree::Tree()), 0u);
}

TEST(XmlWriteTest, PrettyPrintNests) {
  auto parsed = ParseXml("<a><b><c>v</c></b></a>");
  ASSERT_TRUE(parsed.ok());
  XmlWriteOptions options;
  options.pretty = true;
  const std::string pretty = WriteXml(*parsed, options);
  EXPECT_NE(pretty.find("\n"), std::string::npos);
  EXPECT_NE(pretty.find("  <b>"), std::string::npos);
}

TEST(XmlParseTest, EmptyInputIsError) { EXPECT_FALSE(ParseXml("").ok()); }

// Regression: the DOCTYPE skip counted brackets without tracking
// quotes, so a '>' inside a quoted system identifier ended the
// declaration early and corrupted the parse position.
TEST(XmlParseTest, DoctypeQuotedLiteralsWithMarkupCharacters) {
  auto gt = ParseXml("<!DOCTYPE r SYSTEM \"a>b\"><r/>");
  ASSERT_TRUE(gt.ok()) << gt.status().ToString();
  EXPECT_EQ(gt->LabelName(gt->root()), "r");

  auto lt = ParseXml("<!DOCTYPE r SYSTEM 'x<y>z'><r><c/></r>");
  ASSERT_TRUE(lt.ok()) << lt.status().ToString();
  EXPECT_EQ(lt->Children(lt->root()).size(), 1u);

  auto brackets = ParseXml("<!DOCTYPE r SYSTEM \"a]b[c\"><r/>");
  ASSERT_TRUE(brackets.ok()) << brackets.status().ToString();
}

TEST(XmlParseTest, DoctypeInternalSubsetWithQuotedMarkup) {
  // The entity value contains a full element; the quote tracking must
  // keep it from unbalancing the subset's bracket depth.
  auto result = ParseXml(
      "<!DOCTYPE r [ <!ENTITY e \"<x>v</x>\"> <!ELEMENT r ANY> ]>"
      "<r>t</r>");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->LabelName(result->root()), "r");
}

TEST(XmlParseTest, DoctypeUnterminatedQuoteDoesNotHang) {
  // Hostile input: the quote never closes, so the skip runs to EOF and
  // the parse fails cleanly instead of misreading markup.
  auto result = ParseXml("<!DOCTYPE r SYSTEM \"never closed><r/>");
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace twig::xml
