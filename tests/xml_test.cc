#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

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

/// Decodes the references TextRun writes, one byte at a time.
std::string ReferenceDecode(std::string_view raw) {
  static const std::map<std::string_view, std::string_view> kRefs = {
      {"&amp;", "&"},       {"&lt;", "<"},         {"&#9;", "\t"},
      {"&#x20;", " "},      {"&#xE9;", "\xC3\xA9"}, {"&foo;", "&foo;"}};
  std::string out;
  for (size_t i = 0; i < raw.size();) {
    if (raw[i] != '&') {
      out.push_back(raw[i++]);
      continue;
    }
    const size_t end = raw.find(';', i) + 1;
    out += kRefs.at(raw.substr(i, end - i));
    i = end;
  }
  return out;
}

/// Collapses each run of isspace bytes to one space and trims the ends.
std::string ReferenceNormalize(std::string_view text) {
  std::string out;
  bool in_space = false;
  for (char c : text) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      in_space = true;
      continue;
    }
    if (in_space && !out.empty()) out.push_back(' ');
    in_space = false;
    out.push_back(c);
  }
  return out;
}

/// A run of 1-7 text pieces. Even runs draw only from the first
/// kPlainPieces (letters, single spaces, multibyte UTF-8), so that many
/// need no decoding; odd runs draw from all.
std::string TextRun(std::mt19937& rng, int run) {
  static constexpr std::string_view kPieces[] = {
      "a", "Zq", "x7", " ", "\xC3\xA9", "\xE2\x82\xAC",
      "  ", "    ", "\t", "\n", "\r", "\r\n", "&amp;", "&lt;", "&#9;",
      "&#x20;", "&#xE9;", "&foo;"};
  constexpr size_t kPlainPieces = 6;
  const size_t choices = run % 2 == 0 ? kPlainPieces : std::size(kPieces);
  std::string raw;
  const size_t pieces = 1 + rng() % 7;
  for (size_t i = 0; i < pieces; ++i) raw += kPieces[rng() % choices];
  return raw;
}

/// The children of `n`, an element as "<tag>" and a value as itself.
std::vector<std::string> ChildTexts(const Tree& t, NodeId n) {
  std::vector<std::string> out;
  for (NodeId c : t.Children(n)) {
    out.push_back(t.IsValue(c) ? std::string(t.Value(c))
                               : "<" + std::string(t.LabelName(c)) + ">");
  }
  return out;
}

TEST(XmlParseTest, TextDecodingMatchesByteAtATimeReference) {
  // Text that needs no decoding skips the decode buffer; everything
  // else takes it. Either way a value must be what decoding, then
  // (for element text) normalizing, gives, and empty text adds nothing.
  std::mt19937 rng(19);
  size_t unchanged = 0;
  for (int run = 0; run < 4000; ++run) {
    const std::string raw = TextRun(rng, run);
    const std::string decoded = ReferenceDecode(raw);
    const std::string text = ReferenceNormalize(decoded);
    unchanged += text == raw;
    SCOPED_TRACE("run " + std::to_string(run) + ": \"" + raw + "\"");

    auto element = ParseXml("<r>" + raw + "<c/>" + raw + "</r>");
    ASSERT_TRUE(element.ok()) << element.status().ToString();
    std::vector<std::string> want;
    if (!text.empty()) want.push_back(text);
    want.push_back("<c>");
    if (!text.empty()) want.push_back(text);
    EXPECT_EQ(ChildTexts(*element, element->root()), want);

    auto attribute = ParseXml("<r a=\"" + raw + "\"/>");
    ASSERT_TRUE(attribute.ok()) << attribute.status().ToString();
    ASSERT_EQ(ChildTexts(*attribute, attribute->root()),
              std::vector<std::string>{"<a>"});
    want.clear();
    if (!decoded.empty()) want.push_back(decoded);
    EXPECT_EQ(ChildTexts(*attribute, attribute->Children(attribute->root())[0]),
              want);
  }
  // Both kinds of text occur often.
  EXPECT_GT(unchanged, 1000u);
  EXPECT_LT(unchanged, 3000u);
}

/// `depth` nested <a> elements around one text node.
std::string NestedDocument(size_t depth) {
  std::string xml;
  for (size_t i = 0; i < depth; ++i) xml += "<a>";
  xml += "x";
  for (size_t i = 0; i < depth; ++i) xml += "</a>";
  return xml;
}

TEST(XmlParseTest, NestingDeeperThanTheLimitIsError) {
  auto at_limit = ParseXml(NestedDocument(kMaxXmlDepth));
  ASSERT_TRUE(at_limit.ok()) << at_limit.status().ToString();
  EXPECT_EQ(at_limit->size(), kMaxXmlDepth + 1);

  // The error names the '<' of the first element over the limit.
  auto over = ParseXml(NestedDocument(kMaxXmlDepth + 1));
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kParseError);
  EXPECT_EQ(over.status().message(),
            "element nesting deeper than 1024 levels at byte " +
                std::to_string(3 * kMaxXmlDepth));
}

TEST(XmlParseTest, HostileNestingFailsWithoutExhaustingTheStack) {
  // A million levels: a parser recursing once per level without a
  // bound overflows its stack long before the end.
  auto result = ParseXml(NestedDocument(1000000));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
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
