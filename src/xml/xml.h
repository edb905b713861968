// XML <-> node-labeled tree conversion.
//
// This is the substrate that turns XML documents (the paper's data
// model instance) into the Tree the estimators operate on:
//  * element tags and attribute names become non-leaf labels,
//  * text content and attribute values become leaf value nodes.
//
// The parser is a small, self-contained recursive-descent parser that
// handles elements, attributes, character data, entity references,
// comments, CDATA sections, processing instructions and the XML
// declaration. It is not a validating parser; it accepts the
// well-formed subset needed for data files like DBLP and SWISS-PROT.
//
// Text content is decoded, then each run of whitespace collapses to
// one space and leading and trailing whitespace is dropped; text left
// empty (whitespace between elements) adds no node. Attribute values
// are decoded only. Elements nest at most kMaxXmlDepth deep, which also
// bounds the recursive walks later passes make over a parsed tree.

#ifndef TWIG_XML_XML_H_
#define TWIG_XML_XML_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "tree/tree.h"
#include "util/status.h"

namespace twig::xml {

/// Deepest element nesting ParseXml accepts; the document element is at
/// depth 1. Generated DBLP and SWISS-PROT documents are 4 and 5 deep.
inline constexpr size_t kMaxXmlDepth = 1024;

/// Options controlling XML -> Tree conversion.
struct XmlParseOptions {
  /// If true, attributes become child elements holding a value node
  /// (`<a b="c"/>` parses like `<a><b>c</b></a>`). If false, attributes
  /// are dropped.
  bool attributes_as_children = true;
};

/// Parses an XML document into a Tree. Returns ParseError with a
/// byte-offset diagnostic on malformed input, including an element
/// nested deeper than kMaxXmlDepth (the offset of its '<').
Result<tree::Tree> ParseXml(std::string_view xml,
                            const XmlParseOptions& options = {});

/// Options controlling Tree -> XML serialization.
struct XmlWriteOptions {
  /// Indent with two spaces per depth level when true; compact otherwise.
  bool pretty = false;
};

/// Serializes a Tree as an XML document (value nodes as text content).
std::string WriteXml(const tree::Tree& tree, const XmlWriteOptions& options = {});

/// Number of bytes WriteXml(tree, {.pretty = false}) would produce,
/// without materializing the string. Used as the "data set size"
/// denominator for summary-structure space budgets.
size_t XmlByteSize(const tree::Tree& tree);

/// Escapes &, <, >, ", ' for inclusion in XML text or attribute values.
std::string EscapeXml(std::string_view text);

}  // namespace twig::xml

#endif  // TWIG_XML_XML_H_
