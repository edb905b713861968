#include "util/heap.h"

#include <malloc.h>

namespace twig::util {

bool FreezeMmapThreshold() {
  // Any explicit M_MMAP_THRESHOLD turns glibc's dynamic thresholds off;
  // 128 KiB keeps the value it starts with.
  return mallopt(M_MMAP_THRESHOLD, 128 * 1024) == 1;
}

}  // namespace twig::util
