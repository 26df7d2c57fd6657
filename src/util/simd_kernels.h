// The widest SIMD tier this CPU offers, as a host fact.
//
// Benchmark records carry it so that results from hosts with different
// vector units are never compared. No library code dispatches on it: the
// bit-matrix layer has one scalar compose (util/bit_matrix.h).
#ifndef TREENUM_UTIL_SIMD_KERNELS_H_
#define TREENUM_UTIL_SIMD_KERNELS_H_

namespace treenum {

enum class SimdTier : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Printable name of a tier ("scalar", "avx2", "avx512").
const char* TierName(SimdTier tier);

/// The widest tier the running CPU offers (cpuid): kAvx512 with
/// AVX-512 F+BW+DQ+VL, else kAvx2 with AVX2, else kScalar.
SimdTier ActiveTier();

}  // namespace treenum

#endif  // TREENUM_UTIL_SIMD_KERNELS_H_
