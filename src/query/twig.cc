#include "query/twig.h"

#include <cctype>

namespace twig::query {

std::vector<std::vector<TwigNodeId>> Twig::RootToLeafPaths() const {
  std::vector<std::vector<TwigNodeId>> paths;
  if (empty()) return paths;
  std::vector<TwigNodeId> current;
  auto dfs = [&](auto&& self, TwigNodeId n) -> void {
    current.push_back(n);
    if (Children(n).empty()) {
      paths.push_back(current);
    } else {
      for (TwigNodeId c : Children(n)) self(self, c);
    }
    current.pop_back();
  };
  dfs(dfs, root());
  return paths;
}

namespace {

class TwigParser {
 public:
  explicit TwigParser(std::string_view input) : input_(input) {}

  Result<Twig> Parse() {
    Twig twig;
    Status s = ParseNode(&twig, kNullTwigNode);
    if (!s.ok()) return s;
    SkipWhitespace();
    if (pos_ < input_.size()) return Error("trailing input");
    if (twig.empty()) return Status::ParseError("empty twig");
    return twig;
  }

 private:
  Status Error(std::string msg) const {
    return Status::ParseError(msg + " at position " + std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < input_.size() &&
           std::isspace(static_cast<unsigned char>(input_[pos_]))) {
      ++pos_;
    }
  }

  static bool IsNameChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == ':' || c == '-' || c == '*';
  }

  Result<std::string_view> ParseName() {
    SkipWhitespace();
    size_t start = pos_;
    while (pos_ < input_.size() && IsNameChar(input_[pos_])) ++pos_;
    if (pos_ == start) return Error("expected name");
    return input_.substr(start, pos_ - start);
  }

  Result<std::string> ParseQuotedString() {
    SkipWhitespace();
    if (pos_ >= input_.size() || input_[pos_] != '"') {
      return Error("expected '\"'");
    }
    ++pos_;
    std::string out;
    while (pos_ < input_.size() && input_[pos_] != '"') {
      if (input_[pos_] == '\\' && pos_ + 1 < input_.size()) ++pos_;
      out.push_back(input_[pos_]);
      ++pos_;
    }
    if (pos_ >= input_.size()) return Error("unterminated string");
    ++pos_;
    return out;
  }

  // child := "//"? node | string
  // A bare quoted string in a child list is a value-predicate leaf;
  // FormatTwig prints one whenever a node mixes value and element
  // children (or carries several value children), so the parser must
  // read the form back for Parse(Format(t)) == t to hold. A "//"
  // prefix puts the child on a descendant edge; value predicates only
  // bind to child edges, so "//" before a quoted string is an error.
  Status ParseChild(Twig* twig, TwigNodeId parent) {
    SkipWhitespace();
    EdgeKind edge = EdgeKind::kChild;
    if (input_.substr(pos_, 2) == "//") {
      pos_ += 2;
      edge = EdgeKind::kDescendant;
      SkipWhitespace();
      if (pos_ < input_.size() && input_[pos_] == '"') {
        return Error("value predicates cannot hang on a '//' edge");
      }
    }
    if (pos_ < input_.size() && input_[pos_] == '"') {
      auto value = ParseQuotedString();
      if (!value.ok()) return value.status();
      twig->AddValue(parent, *value);
      SkipWhitespace();
      return Status::OK();
    }
    return ParseNode(twig, parent, edge);
  }

  // Chain separator after a name: "." and "/" are child edges, "//" is
  // a descendant edge. Returns false when no separator follows.
  bool ParseSeparator(EdgeKind* edge) {
    if (pos_ >= input_.size()) return false;
    if (input_.substr(pos_, 2) == "//") {
      pos_ += 2;
      *edge = EdgeKind::kDescendant;
      return true;
    }
    if (input_[pos_] == '.' || input_[pos_] == '/') {
      ++pos_;
      *edge = EdgeKind::kChild;
      return true;
    }
    return false;
  }

  // node := name (("." | "/" | "//") name)* ("=" string)?
  //              ("(" child ("," child)* ")")?
  Status ParseNode(Twig* twig, TwigNodeId parent,
                   EdgeKind edge = EdgeKind::kChild) {
    auto first = ParseName();
    if (!first.ok()) return first.status();
    TwigNodeId node = (parent == kNullTwigNode)
                          ? twig->AddRoot(*first)
                          : twig->AddElement(parent, *first, edge);
    SkipWhitespace();
    EdgeKind next_edge = EdgeKind::kChild;
    while (ParseSeparator(&next_edge)) {
      if (next_edge == EdgeKind::kDescendant) {
        SkipWhitespace();
        if (pos_ < input_.size() &&
            (input_[pos_] == '"' || input_[pos_] == '=')) {
          return Error("value predicates cannot hang on a '//' edge");
        }
      }
      auto name = ParseName();
      if (!name.ok()) return name.status();
      node = twig->AddElement(node, *name, next_edge);
      SkipWhitespace();
    }
    if (pos_ < input_.size() && input_[pos_] == '=') {
      ++pos_;
      auto value = ParseQuotedString();
      if (!value.ok()) return value.status();
      twig->AddValue(node, *value);
      SkipWhitespace();
      return Status::OK();
    }
    if (pos_ < input_.size() && input_[pos_] == '(') {
      ++pos_;
      while (true) {
        Status s = ParseChild(twig, node);
        if (!s.ok()) return s;
        SkipWhitespace();
        if (pos_ < input_.size() && input_[pos_] == ',') {
          ++pos_;
          continue;
        }
        break;
      }
      if (pos_ >= input_.size() || input_[pos_] != ')') {
        return Error("expected ')'");
      }
      ++pos_;
    }
    return Status::OK();
  }

  std::string_view input_;
  size_t pos_ = 0;
};

void FormatNode(const Twig& twig, TwigNodeId n, std::string* out) {
  if (twig.IsValue(n)) {
    out->push_back('"');
    for (char c : twig.Value(n)) {
      if (c == '"' || c == '\\') out->push_back('\\');
      out->push_back(c);
    }
    out->push_back('"');
    return;
  }
  out->append(twig.Tag(n));
  const auto& children = twig.Children(n);
  if (children.empty()) return;
  // Canonical edge spellings: '.' for child chains ('/' parses as an
  // alias but is never printed), "//" for descendant edges.
  if (children.size() == 1 && twig.IsValue(children[0])) {
    out->push_back('=');
    FormatNode(twig, children[0], out);
    return;
  }
  if (children.size() == 1 && !twig.IsValue(children[0])) {
    if (twig.EdgeFromParent(children[0]) == EdgeKind::kDescendant) {
      out->append("//");
    } else {
      out->push_back('.');
    }
    FormatNode(twig, children[0], out);
    return;
  }
  out->push_back('(');
  for (size_t i = 0; i < children.size(); ++i) {
    if (i > 0) out->append(", ");
    if (!twig.IsValue(children[i]) &&
        twig.EdgeFromParent(children[i]) == EdgeKind::kDescendant) {
      out->append("//");
    }
    FormatNode(twig, children[i], out);
  }
  out->push_back(')');
}

bool NodeEquals(const Twig& a, TwigNodeId na, const Twig& b, TwigNodeId nb) {
  if (a.IsValue(na) != b.IsValue(nb)) return false;
  if (a.IsValue(na)) return a.Value(na) == b.Value(nb);
  if (a.Tag(na) != b.Tag(nb)) return false;
  const auto& ca = a.Children(na);
  const auto& cb = b.Children(nb);
  if (ca.size() != cb.size()) return false;
  for (size_t i = 0; i < ca.size(); ++i) {
    if (a.EdgeFromParent(ca[i]) != b.EdgeFromParent(cb[i])) return false;
    if (!NodeEquals(a, ca[i], b, cb[i])) return false;
  }
  return true;
}

}  // namespace

Result<Twig> ParseTwig(std::string_view text) {
  TwigParser parser(text);
  return parser.Parse();
}

std::string FormatTwig(const Twig& twig) {
  std::string out;
  if (!twig.empty()) FormatNode(twig, twig.root(), &out);
  return out;
}

bool TwigEquals(const Twig& a, const Twig& b) {
  if (a.empty() || b.empty()) return a.empty() && b.empty();
  return NodeEquals(a, a.root(), b, b.root());
}

}  // namespace twig::query
