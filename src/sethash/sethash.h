// Set hashing (min-hash) signatures — paper Sections 3.4–3.6.
//
// Each CST subpath rooted at a non-leaf label keeps a fixed-length
// signature of the set of data-node IDs rooting it. The signature is a
// vector of L components; component i holds the minimum, over the set,
// of an independently seeded hash of the element. Two properties are
// used:
//   * resemblance |A1 ∩ ... ∩ Ak| / |A1 ∪ ... ∪ Ak| is estimated by
//     the fraction of components on which all k signatures agree;
//   * the signature of a union is the component-wise minimum, which
//     lets the intersection size be recovered from the resemblance and
//     one known set size (the paper's steps 1–4, Section 3.6).

#ifndef TWIG_SETHASH_SETHASH_H_
#define TWIG_SETHASH_SETHASH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "util/hash.h"

namespace twig::sethash {

/// Component value meaning "empty set so far".
inline constexpr uint32_t kEmptyComponent = 0xffffffffu;

/// A min-hash signature: L component minima. An all-kEmptyComponent
/// signature denotes the empty set.
using Signature = std::vector<uint32_t>;

/// A family of L independently seeded hash functions over 64-bit
/// elements, mapping into 32-bit values (a range much larger than any
/// realistic node-ID domain, as required to keep collisions rare).
class SetHashFamily {
 public:
  /// Creates a family of `length` component functions derived from `seed`.
  SetHashFamily(size_t length, uint64_t seed);

  size_t length() const { return length_; }

  /// Hash of `element` under component function `i`: the low 32 bits
  /// of SeededHash64(seed_i, element), with seed_i's key precomputed.
  uint32_t Hash(size_t i, uint64_t element) const {
    return static_cast<uint32_t>(Mix64(element + component_keys_[i]));
  }

  /// A fresh empty signature of this family's length.
  Signature EmptySignature() const {
    return Signature(length_, kEmptyComponent);
  }

  /// Builds the signature of a concrete set of elements.
  Signature SignatureOf(const std::vector<uint64_t>& elements) const;

 private:
  size_t length_;
  /// SeededHashKey of each component's seed.
  std::vector<uint64_t> component_keys_;
};

/// One set with its signature and exactly known cardinality (C_p from
/// the CST).
struct SizedSignature {
  const Signature* signature;
  double size;
};

/// Result of a k-way intersection estimate.
struct IntersectionEstimate {
  /// Estimated |A_1 ∩ ... ∩ A_k|.
  double size = 0;
  /// Number of signature components on which all k sets agreed — the
  /// estimate's support. Small values (0 or 1) mean the true
  /// resemblance is below the signatures' resolution (~1/length) and
  /// `size` is dominated by quantization noise.
  size_t matching_components = 0;
  /// Estimated k-way resemblance.
  double resemblance = 0;
};

/// Estimates |A_1 ∩ ... ∩ A_k| via the paper's steps 1–4:
/// resemblance of the k signatures, union signature, scale by the
/// largest known set size. k == 1 returns that set's size with full
/// support. Allocation-free (called per twiglet on the estimation hot
/// path).
IntersectionEstimate EstimateIntersectionSize(
    std::span<const SizedSignature> sets);

inline IntersectionEstimate EstimateIntersectionSize(
    std::initializer_list<SizedSignature> sets) {
  return EstimateIntersectionSize(
      std::span<const SizedSignature>(sets.begin(), sets.size()));
}

}  // namespace twig::sethash

#endif  // TWIG_SETHASH_SETHASH_H_
