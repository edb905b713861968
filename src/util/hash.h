// 64-bit mixing and seeded hash streams.
//
// These are the primitives beneath the set-hash (min-hash) signatures:
// each signature component uses an independently seeded hash function
// over data-tree node IDs. We use SplitMix64-style finalizers, which
// pass standard avalanche tests and are cheap and deterministic across
// platforms.

#ifndef TWIG_UTIL_HASH_H_
#define TWIG_UTIL_HASH_H_

#include <cstdint>
#include <string_view>

namespace twig {

/// SplitMix64 finalizer: a strong 64-bit mixer.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The key SeededHash64 derives from `seed`. Callers hashing many
/// values under one seed compute it once: SeededHash64(seed, v) ==
/// Mix64(v + SeededHashKey(seed)).
inline uint64_t SeededHashKey(uint64_t seed) {
  return Mix64(seed + 0x2545f4914f6cdd1dULL);
}

/// Hashes `value` under the hash function identified by `seed`.
/// Different seeds give (empirically) independent hash functions.
inline uint64_t SeededHash64(uint64_t seed, uint64_t value) {
  return Mix64(value + SeededHashKey(seed));
}

/// FNV-1a over bytes; stable across platforms. Used for interning and
/// for hashing label strings.
inline uint64_t HashBytes(std::string_view bytes, uint64_t seed = 0) {
  uint64_t h = 14695981039346656037ULL ^ Mix64(seed);
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return Mix64(h);
}

/// Combines two hash values (order-dependent).
inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return Mix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

}  // namespace twig

#endif  // TWIG_UTIL_HASH_H_
