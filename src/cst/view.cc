#include "cst/view.h"

#include <algorithm>

namespace twig::cst {

CstView::Match CstView::LongestMatch(std::span<const suffix::Symbol> symbols,
                                     size_t start) const {
  Match match;
  CstNodeId node = root();
  for (size_t i = start; i < symbols.size(); ++i) {
    CstNodeId next = Step(node, symbols[i]);
    if (next == kNoCstNode) break;
    node = next;
    match.node = node;
    match.length = i - start + 1;
  }
  return match;
}

std::string CstView::DescribeSubpath(CstNodeId node) const {
  // Collect symbols node-to-root, then reverse. A failed paged read
  // answers kNoCstNode or kUnknownSymbol and ends the walk; a parent
  // always has a smaller id than its child, so the walk ends anyway.
  std::vector<suffix::Symbol> symbols;
  for (CstNodeId n = node; n != root() && n != kNoCstNode; n = Parent(n)) {
    const suffix::Symbol symbol = GetSymbol(n);
    if (symbol == kUnknownSymbol) break;
    symbols.push_back(symbol);
  }
  std::reverse(symbols.begin(), symbols.end());
  std::string out;
  bool prev_was_char = false;
  for (suffix::Symbol s : symbols) {
    if (suffix::IsTagSymbol(s)) {
      if (!out.empty()) out.push_back('.');
      out += labels().Name(suffix::SymbolLabel(s));
      prev_was_char = false;
    } else {
      if (!prev_was_char && !out.empty()) out.push_back('.');
      out.push_back(suffix::SymbolChar(s));
      prev_was_char = true;
    }
  }
  return out;
}

}  // namespace twig::cst
