// Process-wide heap settings for long-lived servers.
//
// glibc serves a request of at least its mmap threshold (128 KiB by
// default) from a fresh mapping, and everything smaller from a malloc
// arena; each allocating thread gets an arena of its own. The
// threshold is dynamic: freeing a mapped block larger than it raises it
// to that block's size, and raises the trim threshold, below which an
// arena keeps freed memory, to twice that. Parsing a document frees
// its text and the tree builder's temporaries, megabytes each, so every
// later construction array is carved from an arena and what is freed
// stays resident there (DESIGN.md §17, "The arena trap").

#ifndef TWIG_UTIL_HEAP_H_
#define TWIG_UTIL_HEAP_H_

namespace twig::util {

/// Sets glibc's mmap threshold to its default, 128 KiB, which also
/// stops glibc from moving it or the trim threshold. Each later array
/// of at least 128 KiB then gets its own mapping and goes back to the
/// kernel when freed. Returns false if glibc refused the setting.
/// Process-wide: call it first in `main`, before any thread starts.
bool FreezeMmapThreshold();

}  // namespace twig::util

#endif  // TWIG_UTIL_HEAP_H_
