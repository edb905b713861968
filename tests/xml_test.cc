#include <gtest/gtest.h>

#include "xml/xml.h"

namespace twig::xml {
namespace {

using tree::NodeId;
using tree::Tree;

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

TEST(XmlParseTest, NumericEntityUtf8) {
  auto result = ParseXml("<t>&#xE9;</t>");  // é
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->Value(result->Children(result->root())[0]), "\xC3\xA9");
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

TEST(XmlWriteTest, EscapesSpecialCharacters) {
  tree::Tree t;
  NodeId r = t.AddRoot("t");
  t.AddValue(r, "a<b>&\"'");
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
  tree::Tree t;
  NodeId r = t.AddRoot("r");
  t.AddValue(r, "a<b>&\"'");
  t.AddValue(r, "");
  t.AddElement(r, "empty");
  NodeId e = t.AddElement(r, "e");
  t.AddValue(e, "&&''\"\"<<>>");
  t.AddValue(t.AddElement(e, "v"), "");
  t.AddValue(e, "plain");
  EXPECT_EQ(XmlByteSize(t), WriteXml(t).size());

  tree::Tree childless;
  childless.AddRoot("only");
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
