#include "util/simd_kernels.h"

namespace treenum {

const char* TierName(SimdTier tier) {
  switch (tier) {
    case SimdTier::kScalar:
      return "scalar";
    case SimdTier::kAvx2:
      return "avx2";
    case SimdTier::kAvx512:
      return "avx512";
  }
  return "unknown";
}

SimdTier ActiveTier() {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512dq") && __builtin_cpu_supports("avx512vl")) {
    return SimdTier::kAvx512;
  }
  if (__builtin_cpu_supports("avx2")) return SimdTier::kAvx2;
#endif
  return SimdTier::kScalar;
}

}  // namespace treenum
