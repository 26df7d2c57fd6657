// The host fact of util/simd_kernels.h: the tier names that benchmark
// records carry (perfbench's `simd_tier`, and `util.simd_tier` as the enum's
// integer value), and ActiveTier() naming the widest tier the CPU offers.
// Records from hosts with different tiers are never compared, so a name or
// a value that drifts would silently split or merge result sets.
#include "util/simd_kernels.h"

#include <gtest/gtest.h>

#include <string>

namespace treenum {
namespace {

TEST(SimdKernels, TierNamesAndValuesAreStable) {
  EXPECT_STREQ(TierName(SimdTier::kScalar), "scalar");
  EXPECT_STREQ(TierName(SimdTier::kAvx2), "avx2");
  EXPECT_STREQ(TierName(SimdTier::kAvx512), "avx512");
  EXPECT_EQ(static_cast<int>(SimdTier::kScalar), 0);
  EXPECT_EQ(static_cast<int>(SimdTier::kAvx2), 1);
  EXPECT_EQ(static_cast<int>(SimdTier::kAvx512), 2);
  EXPECT_STREQ(TierName(static_cast<SimdTier>(7)), "unknown");
}

TEST(SimdKernels, ActiveTierIsAKnownTierAndStable) {
  const SimdTier tier = ActiveTier();
  EXPECT_NE(std::string(TierName(tier)), "unknown");
  for (int i = 0; i < 4; ++i) EXPECT_EQ(ActiveTier(), tier);
}

TEST(SimdKernels, ActiveTierIsTheWidestTheCpuOffers) {
#if defined(__x86_64__) || defined(__i386__)
  const bool avx512 = __builtin_cpu_supports("avx512f") &&
                      __builtin_cpu_supports("avx512bw") &&
                      __builtin_cpu_supports("avx512dq") &&
                      __builtin_cpu_supports("avx512vl");
  const bool avx2 = __builtin_cpu_supports("avx2");
  const SimdTier widest = avx512 ? SimdTier::kAvx512
                          : avx2 ? SimdTier::kAvx2
                                 : SimdTier::kScalar;
  EXPECT_EQ(ActiveTier(), widest) << TierName(ActiveTier());
#else
  EXPECT_EQ(ActiveTier(), SimdTier::kScalar) << TierName(ActiveTier());
#endif
}

}  // namespace
}  // namespace treenum
