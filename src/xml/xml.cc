#include "xml/xml.h"

#include <cctype>
#include <charconv>
#include <cstdint>
#include <string>

namespace twig::xml {

namespace {

using tree::kNullNode;
using tree::NodeId;
using tree::Tree;
using tree::TreeBuilder;

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

/// Internal cursor over the document with error reporting.
class Parser {
 public:
  Parser(std::string_view input, const XmlParseOptions& options)
      : input_(input), options_(options) {}

  Result<Tree> Parse() && {
    SkipProlog();
    Status s = ParseElement(kNullNode);
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
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) {
      ++pos_;
    }
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

  void SkipProlog() { SkipMisc(); }

  static bool IsNameStart(char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
  }
  static bool IsNameChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == ':' || c == '-' || c == '.';
  }

  Result<std::string_view> ParseName() {
    if (AtEnd() || !IsNameStart(Peek())) return Error("expected name");
    size_t start = pos_;
    while (!AtEnd() && IsNameChar(Peek())) ++pos_;
    return input_.substr(start, pos_ - start);
  }

  /// Decodes entity and character references in `raw`, a view into the
  /// input, into `out`.
  Status DecodeText(std::string_view raw, std::string* out) {
    for (size_t i = 0; i < raw.size();) {
      char c = raw[i];
      if (c != '&') {
        out->push_back(c);
        ++i;
        continue;
      }
      const size_t at = static_cast<size_t>(raw.data() - input_.data()) + i;
      size_t semi = raw.find(';', i + 1);
      if (semi == std::string_view::npos) {
        return ErrorAt("unterminated entity reference", at);
      }
      std::string_view ent = raw.substr(i + 1, semi - i - 1);
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
    return Status::OK();
  }

  /// Appends text content to `parent`, applying whitespace policy.
  Status EmitText(NodeId parent, std::string_view raw) {
    std::string decoded;
    Status s = DecodeText(raw, &decoded);
    if (!s.ok()) return s;
    if (options_.normalize_text_whitespace) {
      std::string norm;
      bool in_space = false;
      for (char c : decoded) {
        if (std::isspace(static_cast<unsigned char>(c))) {
          in_space = true;
          continue;
        }
        if (in_space && !norm.empty()) norm.push_back(' ');
        in_space = false;
        norm.push_back(c);
      }
      decoded = std::move(norm);
    }
    if (options_.skip_whitespace_text) {
      bool all_space = true;
      for (char c : decoded) {
        if (!std::isspace(static_cast<unsigned char>(c))) {
          all_space = false;
          break;
        }
      }
      if (all_space) return Status::OK();
    }
    if (!decoded.empty()) builder_.AddValue(parent, decoded);
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
      char quote = Peek();
      ++pos_;
      size_t start = pos_;
      while (!AtEnd() && Peek() != quote) ++pos_;
      if (AtEnd()) return Error("unterminated attribute value");
      std::string_view raw = input_.substr(start, pos_ - start);
      ++pos_;  // closing quote
      if (options_.attributes_as_children) {
        NodeId attr = builder_.AddElement(element, *name);
        std::string decoded;
        Status s = DecodeText(raw, &decoded);
        if (!s.ok()) return s;
        if (!decoded.empty()) builder_.AddValue(attr, decoded);
      }
    }
  }

  Status ParseContent(NodeId element) {
    size_t text_start = pos_;
    while (true) {
      if (AtEnd()) return Error("unterminated element content");
      if (Peek() != '<') {
        ++pos_;
        continue;
      }
      // Flush pending text.
      if (pos_ > text_start) {
        Status s =
            EmitText(element, input_.substr(text_start, pos_ - text_start));
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
        Status s = ParseElement(element);
        if (!s.ok()) return s;
      }
      text_start = pos_;
    }
  }

  Status ParseElement(NodeId parent) {
    if (AtEnd() || Peek() != '<') return Error("expected '<'");
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
    s = ParseContent(element);
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
};

/// The entity EscapeXml writes for `c`, or "" when `c` stands as is.
std::string_view EntityFor(char c) {
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

/// Shared serialization walker for WriteXml and XmlByteSize.
template <typename Sink>
void Serialize(const Tree& tree, NodeId n, int depth, bool pretty,
               Sink& sink) {
  if (tree.IsValue(n)) {
    sink.Escaped(tree.Value(n));
    return;
  }
  std::string_view tag = tree.LabelName(n);
  if (pretty) sink.Indent(depth);
  sink.Text("<");
  sink.Text(tag);
  const auto children = tree.Children(n);
  if (children.empty()) {
    sink.Text("/>");
    if (pretty) sink.Text("\n");
    return;
  }
  sink.Text(">");
  const bool has_element_child = [&] {
    for (NodeId c : children) {
      if (!tree.IsValue(c)) return true;
    }
    return false;
  }();
  if (pretty && has_element_child) sink.Text("\n");
  for (NodeId c : children) {
    Serialize(tree, c, depth + 1, pretty && has_element_child, sink);
  }
  if (pretty && has_element_child) sink.Indent(depth);
  sink.Text("</");
  sink.Text(tag);
  sink.Text(">");
  if (pretty) sink.Text("\n");
}

struct StringSink {
  std::string out;
  void Text(std::string_view s) { out.append(s); }
  void Escaped(std::string_view s) {
    for (char c : s) {
      const std::string_view entity = EntityFor(c);
      if (entity.empty()) {
        out.push_back(c);
      } else {
        out.append(entity);
      }
    }
  }
  void Indent(int depth) { out.append(static_cast<size_t>(depth) * 2, ' '); }
};

/// Counts bytes only: sizing a document allocates nothing.
struct CountSink {
  size_t bytes = 0;
  void Text(std::string_view s) { bytes += s.size(); }
  void Escaped(std::string_view s) {
    for (char c : s) {
      const size_t entity = EntityFor(c).size();
      bytes += entity == 0 ? 1 : entity;
    }
  }
  void Indent(int depth) { bytes += static_cast<size_t>(depth) * 2; }
};

}  // namespace

Result<tree::Tree> ParseXml(std::string_view input,
                            const XmlParseOptions& options) {
  return Parser(input, options).Parse();
}

std::string WriteXml(const tree::Tree& tree, const XmlWriteOptions& options) {
  if (tree.empty()) return "";
  StringSink sink;
  Serialize(tree, tree.root(), 0, options.pretty, sink);
  return std::move(sink.out);
}

size_t XmlByteSize(const tree::Tree& tree) {
  if (tree.empty()) return 0;
  CountSink sink;
  Serialize(tree, tree.root(), 0, /*pretty=*/false, sink);
  return sink.bytes;
}

std::string EscapeXml(std::string_view text) {
  StringSink sink;
  sink.out.reserve(text.size());
  sink.Escaped(text);
  return std::move(sink.out);
}

}  // namespace twig::xml
