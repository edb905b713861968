// Trie symbols for the path suffix tree and the CST.
//
// A subpath (Section 3.1) is a sequence of symbols: non-leaf labels
// (tags) are atomic symbols, while leaf value strings contribute one
// symbol per character. This encoding is what makes "book.author",
// "author.Su" and "uciu" representable while "uthor.Suciu" (a tag
// split mid-name) is not.

#ifndef TWIG_SUFFIX_SYMBOL_H_
#define TWIG_SUFFIX_SYMBOL_H_

#include <cstdint>

#include "tree/label_table.h"

namespace twig::suffix {

/// A trie symbol: values 0..255 are characters of leaf value strings;
/// values >= 256 are 256 + LabelId for tag labels.
using Symbol = uint32_t;

inline constexpr Symbol kFirstTagSymbol = 256;

/// Symbols must fit in 22 bits so a (node, symbol) pair packs into a
/// 64-bit child-map key; this allows ~4M distinct tag labels.
inline constexpr Symbol kMaxSymbol = (1u << 22) - 1;

inline Symbol CharSymbol(char c) {
  return static_cast<Symbol>(static_cast<unsigned char>(c));
}

inline Symbol TagSymbol(tree::LabelId label) {
  return kFirstTagSymbol + label;
}

inline bool IsTagSymbol(Symbol s) { return s >= kFirstTagSymbol; }

inline tree::LabelId SymbolLabel(Symbol s) { return s - kFirstTagSymbol; }

inline char SymbolChar(Symbol s) { return static_cast<char>(s); }

}  // namespace twig::suffix

#endif  // TWIG_SUFFIX_SYMBOL_H_
