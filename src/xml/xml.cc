#include "xml/xml.h"

#include <array>
#include <charconv>
#include <cstdint>
#include <string>

namespace twig::xml {

namespace {

using tree::kNullNode;
using tree::NodeId;
using tree::Tree;
using tree::TreeBuilder;

// The C locale's isspace, isalpha and isalnum, as inline compares: the
// parser classifies every byte of the document.
constexpr bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
constexpr bool IsAlpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
constexpr bool IsAlnum(char c) { return IsAlpha(c) || (c >= '0' && c <= '9'); }

/// True if `code` is a character XML 1.0's Char production allows.
bool IsXmlChar(uint32_t code) {
  return code == 0x9 || code == 0xA || code == 0xD ||
         (code >= 0x20 && code <= 0xD7FF) ||
         (code >= 0xE000 && code <= 0xFFFD) ||
         (code >= 0x10000 && code <= 0x10FFFF);
}

/// Appends `code`, a code point IsXmlChar allows, as UTF-8: a lead
/// byte, then 1-3 continuation bytes of 6 bits each.
void AppendUtf8(uint32_t code, std::string* out) {
  if (code < 0x80) {
    out->push_back(static_cast<char>(code));
    return;
  }
  static constexpr uint32_t kLead[] = {0, 0xC0, 0xE0, 0xF0};
  const int tail = code < 0x800 ? 1 : code < 0x10000 ? 2 : 3;
  out->push_back(static_cast<char>(kLead[tail] | (code >> (6 * tail))));
  for (int shift = 6 * (tail - 1); shift >= 0; shift -= 6) {
    out->push_back(static_cast<char>(0x80 | ((code >> shift) & 0x3F)));
  }
}

/// True if text content reads the same once decoded and normalized: it
/// holds no '&' and no whitespace but single spaces between other
/// bytes. Empty text is not plain.
bool IsPlainText(std::string_view raw) {
  bool after_space = true;  // a leading space is not plain
  for (char c : raw) {
    if (c == ' ') {
      if (after_space) return false;
      after_space = true;
    } else if (c == '&' || IsSpace(c)) {
      return false;
    } else {
      after_space = false;
    }
  }
  return !after_space;
}

/// Collapses each run of whitespace in `text` to one space and drops
/// leading and trailing whitespace, in place.
void NormalizeWhitespace(std::string* text) {
  size_t out = 0;
  bool in_space = false;
  for (char c : *text) {
    if (IsSpace(c)) {
      in_space = true;
      continue;
    }
    if (in_space && out > 0) (*text)[out++] = ' ';
    in_space = false;
    (*text)[out++] = c;
  }
  text->resize(out);
}

/// Internal cursor over the document with error reporting.
class Parser {
 public:
  Parser(std::string_view input, const XmlParseOptions& options)
      : input_(input), options_(options) {}

  Result<Tree> Parse() && {
    SkipMisc();
    Status s = ParseElement(kNullNode, 1);
    if (!s.ok()) return s;
    SkipMisc();
    if (!AtEnd()) {
      return Error("trailing content after document element");
    }
    if (builder_.size() == 0) return Status::ParseError("no document element");
    return std::move(builder_).Finish();
  }

 private:
  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }
  bool Lookahead(std::string_view s) const {
    return input_.substr(pos_, s.size()) == s;
  }

  Status Error(std::string msg) const { return ErrorAt(std::move(msg), pos_); }
  static Status ErrorAt(std::string msg, size_t pos) {
    return Status::ParseError(msg + " at byte " + std::to_string(pos));
  }

  void SkipWhitespace() {
    while (!AtEnd() && IsSpace(Peek())) ++pos_;
  }

  /// Skips comments, PIs and whitespace between markup.
  void SkipMisc() {
    while (true) {
      SkipWhitespace();
      if (Lookahead("<!--")) {
        size_t end = input_.find("-->", pos_ + 4);
        pos_ = (end == std::string_view::npos) ? input_.size() : end + 3;
      } else if (Lookahead("<?")) {
        size_t end = input_.find("?>", pos_ + 2);
        pos_ = (end == std::string_view::npos) ? input_.size() : end + 2;
      } else if (Lookahead("<!DOCTYPE")) {
        // Skip to the matching '>'. Bracket counting covers internal
        // subsets and nested markup declarations; quoted literals
        // (system identifiers, entity values) may contain '<', '>',
        // '[' and ']' and must not disturb the depth.
        pos_ += 9;
        int depth = 0;
        char quote = 0;
        while (!AtEnd()) {
          char c = input_[pos_++];
          if (quote != 0) {
            if (c == quote) quote = 0;
            continue;
          }
          if (c == '"' || c == '\'') {
            quote = c;
            continue;
          }
          if (c == '<' || c == '[') ++depth;
          if (c == ']') --depth;
          if (c == '>') {
            if (depth == 0) break;
            --depth;
          }
        }
      } else {
        break;
      }
    }
  }

  static bool IsNameStart(char c) { return IsAlpha(c) || c == '_' || c == ':'; }
  static bool IsNameChar(char c) {
    return IsAlnum(c) || c == '_' || c == ':' || c == '-' || c == '.';
  }

  Result<std::string_view> ParseName() {
    if (AtEnd() || !IsNameStart(Peek())) return Error("expected name");
    size_t start = pos_;
    while (!AtEnd() && IsNameChar(Peek())) ++pos_;
    return input_.substr(start, pos_ - start);
  }

  /// Decodes entity and character references in `raw`, a view into the
  /// input, appending the result to `out`.
  Status DecodeText(std::string_view raw, std::string* out) const {
    for (size_t i = 0;;) {
      const size_t amp = raw.find('&', i);
      out->append(raw.substr(i, amp - i));  // to the end when amp is npos
      if (amp == std::string_view::npos) return Status::OK();
      const size_t at = static_cast<size_t>(raw.data() - input_.data()) + amp;
      size_t semi = raw.find(';', amp + 1);
      if (semi == std::string_view::npos) {
        return ErrorAt("unterminated entity reference", at);
      }
      std::string_view ent = raw.substr(amp + 1, semi - amp - 1);
      if (ent == "amp") {
        out->push_back('&');
      } else if (ent == "lt") {
        out->push_back('<');
      } else if (ent == "gt") {
        out->push_back('>');
      } else if (ent == "quot") {
        out->push_back('"');
      } else if (ent == "apos") {
        out->push_back('\'');
      } else if (!ent.empty() && ent[0] == '#') {
        // A character reference: every byte after "#" or "#x" must be a
        // digit of the base, naming a character XML allows.
        const bool hex = ent.size() > 1 && (ent[1] == 'x' || ent[1] == 'X');
        const std::string_view digits = ent.substr(hex ? 2 : 1);
        uint32_t code = 0;
        const auto [end, ec] = std::from_chars(
            digits.data(), digits.data() + digits.size(), code, hex ? 16 : 10);
        if (ec != std::errc() || end != digits.data() + digits.size() ||
            !IsXmlChar(code)) {
          return ErrorAt(
              "invalid character reference &" + std::string(ent) + ";", at);
        }
        AppendUtf8(code, out);
      } else {
        // Unknown entity: keep it verbatim so data is not lost.
        out->push_back('&');
        out->append(ent);
        out->push_back(';');
      }
      i = semi + 1;
    }
  }

  /// Adds `raw` under `parent` as a value node: decoded and, for text
  /// content (`normalize`), whitespace-normalized, and left out when
  /// that empties it. When neither step would change `raw`, it goes in
  /// as a view of the input; otherwise the value is built in text_.
  Status EmitValue(NodeId parent, std::string_view raw, bool normalize) {
    if (normalize ? IsPlainText(raw)
                  : raw.find('&') == std::string_view::npos) {
      if (!raw.empty()) builder_.AddValue(parent, raw);
      return Status::OK();
    }
    text_.clear();
    Status s = DecodeText(raw, &text_);
    if (!s.ok()) return s;
    if (normalize) NormalizeWhitespace(&text_);
    if (!text_.empty()) builder_.AddValue(parent, text_);
    return Status::OK();
  }

  Status ParseAttributes(NodeId element) {
    while (true) {
      SkipWhitespace();
      if (AtEnd()) return Error("unterminated start tag");
      if (Peek() == '>' || Peek() == '/') return Status::OK();
      auto name = ParseName();
      if (!name.ok()) return name.status();
      SkipWhitespace();
      if (AtEnd() || Peek() != '=') return Error("expected '=' in attribute");
      ++pos_;
      SkipWhitespace();
      if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
        return Error("expected quoted attribute value");
      }
      const size_t start = pos_ + 1;
      pos_ = input_.find(Peek(), start);
      if (pos_ == std::string_view::npos) {
        pos_ = input_.size();
        return Error("unterminated attribute value");
      }
      std::string_view raw = input_.substr(start, pos_ - start);
      ++pos_;  // closing quote
      if (options_.attributes_as_children) {
        Status s = EmitValue(builder_.AddElement(element, *name), raw,
                             /*normalize=*/false);
        if (!s.ok()) return s;
      }
    }
  }

  Status ParseContent(NodeId element, size_t depth) {
    while (true) {
      const size_t text_start = pos_;
      pos_ = input_.find('<', pos_);
      if (pos_ == std::string_view::npos) {
        pos_ = input_.size();
        return Error("unterminated element content");
      }
      if (pos_ > text_start) {
        Status s = EmitValue(
            element, input_.substr(text_start, pos_ - text_start),
            /*normalize=*/true);
        if (!s.ok()) return s;
      }
      if (Lookahead("</")) return Status::OK();  // caller consumes end tag
      if (Lookahead("<!--")) {
        size_t end = input_.find("-->", pos_ + 4);
        if (end == std::string_view::npos) return Error("unterminated comment");
        pos_ = end + 3;
      } else if (Lookahead("<![CDATA[")) {
        size_t end = input_.find("]]>", pos_ + 9);
        if (end == std::string_view::npos) return Error("unterminated CDATA");
        std::string_view data = input_.substr(pos_ + 9, end - pos_ - 9);
        if (!data.empty()) builder_.AddValue(element, data);
        pos_ = end + 3;
      } else if (Lookahead("<?")) {
        size_t end = input_.find("?>", pos_ + 2);
        if (end == std::string_view::npos) return Error("unterminated PI");
        pos_ = end + 2;
      } else {
        Status s = ParseElement(element, depth + 1);
        if (!s.ok()) return s;
      }
    }
  }

  /// Parses the element whose '<' is at pos_, `depth` levels deep.
  Status ParseElement(NodeId parent, size_t depth) {
    if (AtEnd() || Peek() != '<') return Error("expected '<'");
    if (depth > kMaxXmlDepth) {
      return Error("element nesting deeper than " +
                   std::to_string(kMaxXmlDepth) + " levels");
    }
    ++pos_;
    auto name = ParseName();
    if (!name.ok()) return name.status();
    NodeId element = (parent == kNullNode) ? builder_.AddRoot(*name)
                                           : builder_.AddElement(parent, *name);
    Status s = ParseAttributes(element);
    if (!s.ok()) return s;
    if (Lookahead("/>")) {
      pos_ += 2;
      return Status::OK();
    }
    if (AtEnd() || Peek() != '>') return Error("expected '>'");
    ++pos_;
    s = ParseContent(element, depth);
    if (!s.ok()) return s;
    // Consume "</name>".
    pos_ += 2;
    auto end_name = ParseName();
    if (!end_name.ok()) return end_name.status();
    if (*end_name != *name) {
      return Error("mismatched end tag </" + std::string(*end_name) +
                   "> for <" + std::string(*name) + ">");
    }
    SkipWhitespace();
    if (AtEnd() || Peek() != '>') return Error("expected '>' in end tag");
    ++pos_;
    return Status::OK();
  }

  std::string_view input_;
  const XmlParseOptions& options_;
  size_t pos_ = 0;
  TreeBuilder builder_;
  std::string text_;  // decode buffer, reused by every value that needs it
};

/// The entity EscapeXml writes for `c`, or "" when `c` stands as is.
constexpr std::string_view EntityFor(char c) {
  switch (c) {
    case '&':
      return "&amp;";
    case '<':
      return "&lt;";
    case '>':
      return "&gt;";
    case '"':
      return "&quot;";
    case '\'':
      return "&apos;";
    default:
      return {};
  }
}

/// Bytes each byte value takes once escaped.
constexpr std::array<uint8_t, 256> kEscapedBytes = [] {
  std::array<uint8_t, 256> bytes{};
  for (size_t c = 0; c < bytes.size(); ++c) {
    const size_t entity = EntityFor(static_cast<char>(c)).size();
    bytes[c] = static_cast<uint8_t>(entity == 0 ? 1 : entity);
  }
  return bytes;
}();

void AppendEscaped(std::string_view text, std::string* out) {
  for (char c : text) {
    const std::string_view entity = EntityFor(c);
    if (entity.empty()) {
      out->push_back(c);
    } else {
      out->append(entity);
    }
  }
}

void Serialize(const Tree& tree, NodeId n, int depth, bool pretty,
               std::string* out) {
  if (tree.IsValue(n)) {
    AppendEscaped(tree.Value(n), out);
    return;
  }
  std::string_view tag = tree.LabelName(n);
  const size_t indent = static_cast<size_t>(depth) * 2;
  if (pretty) out->append(indent, ' ');
  out->push_back('<');
  out->append(tag);
  const auto children = tree.Children(n);
  if (children.empty()) {
    out->append("/>");
    if (pretty) out->push_back('\n');
    return;
  }
  out->push_back('>');
  const bool has_element_child = [&] {
    for (NodeId c : children) {
      if (!tree.IsValue(c)) return true;
    }
    return false;
  }();
  if (pretty && has_element_child) out->push_back('\n');
  for (NodeId c : children) {
    Serialize(tree, c, depth + 1, pretty && has_element_child, out);
  }
  if (pretty && has_element_child) out->append(indent, ' ');
  out->append("</");
  out->append(tag);
  out->push_back('>');
  if (pretty) out->push_back('\n');
}

}  // namespace

Result<tree::Tree> ParseXml(std::string_view input,
                            const XmlParseOptions& options) {
  return Parser(input, options).Parse();
}

std::string WriteXml(const tree::Tree& tree, const XmlWriteOptions& options) {
  std::string out;
  if (!tree.empty()) Serialize(tree, tree.root(), 0, options.pretty, &out);
  return out;
}

size_t XmlByteSize(const tree::Tree& tree) {
  size_t bytes = 0;
  for (NodeId n = 0; n < tree.size(); ++n) {
    if (tree.IsValue(n)) {
      for (char c : tree.Value(n)) {
        bytes += kEscapedBytes[static_cast<unsigned char>(c)];
      }
      continue;
    }
    // "<tag>" and "</tag>", or "<tag/>" when the element has no child.
    const size_t tag = tree.LabelName(n).size();
    bytes += tree.Children(n).empty() ? tag + 3 : 2 * tag + 5;
  }
  return bytes;
}

std::string EscapeXml(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  AppendEscaped(text, &out);
  return out;
}

}  // namespace twig::xml
