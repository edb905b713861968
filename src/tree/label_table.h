// Interned label (tag) table.
//
// Non-leaf node labels come from a small alphabet of tags; interning
// them lets the tree, the suffix tree, and the query engine compare
// labels as 32-bit IDs. Intern and Find look a name up by view, so the
// XML parser, the CST views and the matcher build no string per call.

#ifndef TWIG_TREE_LABEL_TABLE_H_
#define TWIG_TREE_LABEL_TABLE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace twig::tree {

/// Interned ID of a non-leaf (tag) label.
using LabelId = uint32_t;

/// Sentinel for "no label".
inline constexpr LabelId kInvalidLabel = 0xffffffffu;

/// Bidirectional map between tag strings and dense LabelIds.
class LabelTable {
 public:
  /// Returns the ID for `name`, interning it if new.
  LabelId Intern(std::string_view name) {
    auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
    LabelId id = static_cast<LabelId>(names_.size());
    names_.emplace_back(name);
    ids_.emplace(names_.back(), id);
    return id;
  }

  /// Returns the ID for `name`, or kInvalidLabel if never interned.
  LabelId Find(std::string_view name) const {
    auto it = ids_.find(name);
    return it == ids_.end() ? kInvalidLabel : it->second;
  }

  /// Returns the string for an ID. Requires a valid ID.
  std::string_view Name(LabelId id) const { return names_[id]; }

  size_t size() const { return names_.size(); }

 private:
  /// Hashes a std::string and a std::string_view of it alike, which
  /// lets ids_ find a view without building a key.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };

  std::vector<std::string> names_;
  std::unordered_map<std::string, LabelId, NameHash, std::equal_to<>> ids_;
};

}  // namespace twig::tree

#endif  // TWIG_TREE_LABEL_TABLE_H_
