#include "sethash/sethash.h"

#include <algorithm>
#include <cassert>

#include "obs/metrics.h"

namespace twig::sethash {

SetHashFamily::SetHashFamily(size_t length, uint64_t seed) : length_(length) {
  assert(length > 0);
  component_keys_.resize(length);
  uint64_t x = seed;
  for (size_t i = 0; i < length; ++i) {
    x = Mix64(x + 0x9e3779b97f4a7c15ULL);
    component_keys_[i] = SeededHashKey(x);
  }
}

Signature SetHashFamily::SignatureOf(
    const std::vector<uint64_t>& elements) const {
  Signature sig = EmptySignature();
  for (uint64_t e : elements) {
    for (size_t i = 0; i < length_; ++i) {
      sig[i] = std::min(sig[i], Hash(i, e));
    }
  }
  return sig;
}

IntersectionEstimate EstimateIntersectionSize(
    std::span<const SizedSignature> sets) {
  assert(!sets.empty());
  obs::CountEvent(obs::Counter::kSethashIntersections);
  IntersectionEstimate out;
  if (sets.size() == 1) {
    out.size = sets[0].size;
    out.matching_components = sets[0].signature->size();
    out.resemblance = 1.0;
    return out;
  }
  for (const auto& s : sets) {
    if (s.size <= 0) return out;
  }

  // Step 1: resemblance of the k sets — the fraction of components on
  // which all signatures agree (and are non-empty).
  const size_t length = sets[0].signature->size();
  size_t matching = 0;
  for (size_t i = 0; i < length; ++i) {
    const uint32_t first = (*sets[0].signature)[i];
    if (first == kEmptyComponent) continue;
    bool all_equal = true;
    for (size_t s = 1; s < sets.size(); ++s) {
      if ((*sets[s].signature)[i] != first) {
        all_equal = false;
        break;
      }
    }
    if (all_equal) ++matching;
  }
  const double rho =
      static_cast<double>(matching) / static_cast<double>(length);
  out.matching_components = matching;
  out.resemblance = rho;
  if (rho <= 0.0) return out;

  // Step 3 (reordered): the largest set gives the best accuracy for
  // the union size.
  size_t largest = 0;
  for (size_t s = 1; s < sets.size(); ++s) {
    if (sets[s].size > sets[largest].size) largest = s;
  }
  // f estimates |A_largest| / |union| (A_largest is a subset of the
  // union, so their resemblance is exactly that ratio). The union's
  // signature (step 2) is the component-wise minimum; computing each
  // component on the fly avoids materializing it.
  const Signature& largest_sig = *sets[largest].signature;
  size_t f_matching = 0;
  for (size_t i = 0; i < length; ++i) {
    uint32_t union_component = kEmptyComponent;
    for (const auto& s : sets) {
      union_component = std::min(union_component, (*s.signature)[i]);
    }
    if (union_component != kEmptyComponent &&
        largest_sig[i] == union_component) {
      ++f_matching;
    }
  }
  const double f =
      static_cast<double>(f_matching) / static_cast<double>(length);

  // Step 4: |∩| = rho * |union|, with |union| = |A_largest| / f. If f
  // came out zero (signature noise), fall back to the union upper
  // bound: sum of the set sizes.
  double union_size;
  if (f > 0.0) {
    union_size = sets[largest].size / f;
  } else {
    union_size = 0.0;
    for (const auto& s : sets) union_size += s.size;
  }
  // The union can never be smaller than its largest member nor larger
  // than the sum of members; clamp away estimator noise.
  double sum = 0.0;
  for (const auto& s : sets) sum += s.size;
  union_size = std::clamp(union_size, sets[largest].size, sum);

  // The intersection can never exceed the smallest member.
  double smallest = sets[0].size;
  for (const auto& s : sets) smallest = std::min(smallest, s.size);
  out.size = std::min(rho * union_size, smallest);
  return out;
}

}  // namespace twig::sethash
