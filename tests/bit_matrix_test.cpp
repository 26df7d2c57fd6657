// BitMatrixView::ComposeIntoWords against the naive product, over plain
// word buffers: shapes chosen to hit every internal path — one-word
// destination rows, the register-blocked tiles at every tail width (1–3
// leftover words) and row count (rows that are not multiples of the 4-row
// block), and the degenerate empty cases. Guard words around every
// destination catch out-of-bounds stores.
#include "util/bit_matrix.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/random.h"

namespace treenum {
namespace {

constexpr uint64_t kGuard = 0xDEADBEEFCAFEF00Dull;
constexpr size_t kGuardWords = 4;

/// A rows x cols relation as packed rows of ceil(cols / 64) words, tail bits
/// zero.
struct Relation {
  Relation(size_t rows, size_t cols)
      : rows(rows), cols(cols), words(rows * ((cols + 63) / 64), 0) {}

  void Set(size_t r, size_t c) {
    words[r * ((cols + 63) / 64) + c / 64] |= uint64_t{1} << (c % 64);
  }
  BitMatrixView view() const { return BitMatrixView(words.data(), rows, cols); }

  size_t rows;
  size_t cols;
  std::vector<uint64_t> words;
};

Relation RandomRelation(size_t rows, size_t cols, double density, Rng& rng) {
  Relation m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      if (rng.Flip(density)) m.Set(r, c);
    }
  }
  return m;
}

Relation Identity(size_t n) {
  Relation m(n, n);
  for (size_t i = 0; i < n; ++i) m.Set(i, i);
  return m;
}

Relation Compose(const Relation& a, const Relation& b) {
  Relation out(a.rows, b.cols);
  BitMatrixView::ComposeIntoWords(a.view(), b.view(), out.words.data());
  return out;
}

/// A destination buffer of `n` payload words fenced by guard words.
struct Fenced {
  explicit Fenced(size_t n, uint64_t fill = 0)
      : words(n + 2 * kGuardWords, fill) {
    for (size_t i = 0; i < kGuardWords; ++i) {
      words[i] = kGuard;
      words[words.size() - 1 - i] = kGuard;
    }
  }
  uint64_t* data() { return words.data() + kGuardWords; }
  bool GuardsIntact() const {
    for (size_t i = 0; i < kGuardWords; ++i) {
      if (words[i] != kGuard) return false;
      if (words[words.size() - 1 - i] != kGuard) return false;
    }
    return true;
  }
  std::vector<uint64_t> words;
};

TEST(BitMatrixView, GetReadsPackedRows) {
  Relation m(3, 70);
  m.Set(2, 69);
  m.Set(0, 0);
  m.Set(1, 64);
  const BitMatrixView v = m.view();
  EXPECT_EQ(v.rows(), 3u);
  EXPECT_EQ(v.cols(), 70u);
  EXPECT_EQ(v.words_per_row(), 2u);
  EXPECT_EQ(v.Row(1), m.words.data() + 2);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 70; ++c) {
      const bool set = (r == 2 && c == 69) || (r == 0 && c == 0) ||
                       (r == 1 && c == 64);
      EXPECT_EQ(v.Get(r, c), set) << r << "," << c;
    }
  }
}

TEST(BitMatrixView, ComposeSmall) {
  // R1 = {(0,1)}, R2 = {(1,2)}  =>  R1∘R2 = {(0,2)}.
  Relation a(2, 3), b(3, 4);
  a.Set(0, 1);
  b.Set(1, 2);
  Relation c = Compose(a, b);
  Relation want(2, 4);
  want.Set(0, 2);
  EXPECT_EQ(c.words, want.words);
}

TEST(BitMatrixView, ComposeIdentityIsNoop) {
  Rng rng(1);
  for (size_t n : {6u, 130u}) {
    const Relation m = RandomRelation(n, n, 0.3, rng);
    EXPECT_EQ(Compose(Identity(n), m).words, m.words) << n;
    EXPECT_EQ(Compose(m, Identity(n)).words, m.words) << n;
  }
}

TEST(BitMatrixView, ComposeMatchesNaiveOracleOnShapeGrid) {
  // Destination rows of 1 word (cols ≤ 64), 2 words, 3–16, 17–32 and more
  // than 32 words; every leftover tile width (1–3 words); row counts that
  // are not multiples of the 4-row block; inner dimensions off every word
  // boundary. The destination starts dirty, so every word must be written.
  const size_t rows_set[] = {1, 3, 5, 64, 101};
  const size_t dims[] = {1, 63, 64, 65, 127, 130, 257, 513, 1040, 2112};
  Rng rng(20240801);
  for (size_t rows : rows_set) {
    for (size_t inner : dims) {
      for (size_t cols : dims) {
        // Keep the grid affordable: skip the largest x largest products.
        if (rows * inner * cols > size_t{64} * 1040 * 257) continue;
        const double density = inner > 512 ? 0.05 : 0.3;
        const Relation a = RandomRelation(rows, inner, density, rng);
        const Relation b = RandomRelation(inner, cols, density, rng);
        Relation want(rows, cols);
        BitMatrixView::ComposeNaiveIntoWords(a.view(), b.view(),
                                             want.words.data());
        Fenced out(want.words.size(), /*fill=*/~uint64_t{0});
        BitMatrixView::ComposeIntoWords(a.view(), b.view(), out.data());
        EXPECT_TRUE(out.GuardsIntact())
            << "wrote out of bounds at " << rows << "x" << inner << "x"
            << cols;
        for (size_t i = 0; i < want.words.size(); ++i) {
          ASSERT_EQ(out.data()[i], want.words[i])
              << "word " << i << " at " << rows << "x" << inner << "x" << cols;
        }
      }
    }
  }
}

TEST(BitMatrixView, ComposeHandlesEmptyShapes) {
  Rng rng(7);
  const Relation a = RandomRelation(4, 130, 0.5, rng);
  const Relation b = RandomRelation(130, 70, 0.5, rng);
  // No rows on the left: nothing is written.
  Fenced untouched(8, 0x55);
  BitMatrixView::ComposeIntoWords(BitMatrixView(a.words.data(), 0, 130),
                                  b.view(), untouched.data());
  // No columns on the right: the product has no words, nothing is written.
  BitMatrixView::ComposeIntoWords(a.view(), BitMatrixView(b.words.data(), 130, 0),
                                  untouched.data());
  for (size_t i = 0; i < 8; ++i) EXPECT_EQ(untouched.data()[i], 0x55u);
  EXPECT_TRUE(untouched.GuardsIntact());
  // No inner dimension (a has no columns, b no rows): the product is the
  // empty relation, so every destination word is zeroed.
  Fenced zeroed(4 * 2, ~uint64_t{0});
  BitMatrixView::ComposeIntoWords(BitMatrixView(a.words.data(), 4, 0),
                                  BitMatrixView(b.words.data(), 0, 70),
                                  zeroed.data());
  for (size_t i = 0; i < 4 * 2; ++i) EXPECT_EQ(zeroed.data()[i], 0u) << i;
  EXPECT_TRUE(zeroed.GuardsIntact());
}

TEST(BitMatrixView, ComposeKeepsTailBitsZero) {
  // Inputs with zero tail bits give outputs with zero tail bits: the
  // padding of out's last word per row comes only from b's rows.
  Rng rng(99);
  for (size_t cols : {65u, 127u, 130u, 321u}) {
    const Relation a = RandomRelation(9, 70, 0.6, rng);
    const Relation b = RandomRelation(70, cols, 0.6, rng);
    const size_t wpr = b.view().words_per_row();
    const uint64_t tail_mask = (uint64_t{1} << (cols % 64)) - 1;
    std::vector<uint64_t> out(9 * wpr, ~uint64_t{0});
    BitMatrixView::ComposeIntoWords(a.view(), b.view(), out.data());
    for (size_t r = 0; r < 9; ++r) {
      EXPECT_EQ(out[r * wpr + wpr - 1] & ~tail_mask, 0u)
          << "row " << r << " cols " << cols;
    }
  }
}

TEST(BitMatrixView, ComposeIsAssociative) {
  Rng rng(7);
  for (size_t n : {10u, 70u, 200u}) {
    for (int trial = 0; trial < 5; ++trial) {
      const Relation a = RandomRelation(n, n, 0.05, rng);
      const Relation b = RandomRelation(n, n, 0.05, rng);
      const Relation c = RandomRelation(n, n, 0.05, rng);
      EXPECT_EQ(Compose(Compose(a, b), c).words,
                Compose(a, Compose(b, c)).words)
          << n << " trial " << trial;
    }
  }
}

#ifndef NDEBUG
// The blocked compose kernel re-reads operand rows after writing `out`,
// so an aliased destination silently corrupts the composition. Debug
// builds TREENUM_CHECK the precondition; both operand overlaps must trip.
TEST(BitMatrixViewDeathTest, ComposeIntoWordsRejectsAliasedDestination) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::vector<uint64_t> left(4, 0), right(4, 0), out(4, 0);
  BitMatrixView a(left.data(), 4, 3);
  BitMatrixView b(right.data(), 3, 5);
  BitMatrixView::ComposeIntoWords(a, b, out.data());  // disjoint: fine
  EXPECT_DEATH(BitMatrixView::ComposeIntoWords(a, b, left.data() + 1),
               "overlaps the left operand");
  EXPECT_DEATH(BitMatrixView::ComposeIntoWords(a, b, right.data() + 2),
               "overlaps the right operand");
}
#endif

}  // namespace
}  // namespace treenum
