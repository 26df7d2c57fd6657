#include "util/bit_matrix.h"

#include <gtest/gtest.h>

#include "util/random.h"

namespace treenum {
namespace {

TEST(BitMatrix, SetGet) {
  BitMatrix m(3, 70);
  EXPECT_FALSE(m.Get(2, 69));
  m.Set(2, 69);
  EXPECT_TRUE(m.Get(2, 69));
  m.Set(2, 69, false);
  EXPECT_FALSE(m.Get(2, 69));
  EXPECT_FALSE(m.Any());
  m.Set(0, 0);
  EXPECT_TRUE(m.Any());
  EXPECT_EQ(m.Count(), 1u);
}

TEST(BitMatrix, Identity) {
  BitMatrix id = BitMatrix::Identity(5);
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = 0; j < 5; ++j) {
      EXPECT_EQ(id.Get(i, j), i == j);
    }
  }
}

TEST(BitMatrix, RowAny) {
  BitMatrix m(4, 4);
  m.Set(1, 3);
  EXPECT_TRUE(m.RowAny(1));
  EXPECT_FALSE(m.RowAny(0));
  EXPECT_EQ(m.NonEmptyRows(), std::vector<uint32_t>{1});
}

TEST(BitMatrix, ComposeSmall) {
  // R1 = {(0,1)}, R2 = {(1,2)}  =>  R1∘R2 = {(0,2)}.
  BitMatrix a(2, 3), b(3, 4);
  a.Set(0, 1);
  b.Set(1, 2);
  BitMatrix c = a.Compose(b);
  EXPECT_EQ(c.rows(), 2u);
  EXPECT_EQ(c.cols(), 4u);
  EXPECT_TRUE(c.Get(0, 2));
  EXPECT_EQ(c.Count(), 1u);
}

TEST(BitMatrix, ComposeIdentityIsNoop) {
  Rng rng(1);
  BitMatrix m(6, 6);
  for (int i = 0; i < 12; ++i) m.Set(rng.Index(6), rng.Index(6));
  EXPECT_EQ(BitMatrix::Identity(6).Compose(m), m);
  EXPECT_EQ(m.Compose(BitMatrix::Identity(6)), m);
}

TEST(BitMatrix, ComposeMatchesNaiveOracle) {
  Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    size_t n = 1 + rng.Index(90);
    size_t m = 1 + rng.Index(90);
    size_t k = 1 + rng.Index(90);
    BitMatrix a(n, m), b(m, k);
    for (size_t i = 0; i < n * m / 3 + 1; ++i) {
      a.Set(rng.Index(n), rng.Index(m));
    }
    for (size_t i = 0; i < m * k / 3 + 1; ++i) {
      b.Set(rng.Index(m), rng.Index(k));
    }
    EXPECT_EQ(a.Compose(b), ComposeNaive(a, b)) << "trial " << trial;
  }
}

TEST(BitMatrix, ComposeIsAssociative) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    BitMatrix a(10, 10), b(10, 10), c(10, 10);
    for (int i = 0; i < 25; ++i) {
      a.Set(rng.Index(10), rng.Index(10));
      b.Set(rng.Index(10), rng.Index(10));
      c.Set(rng.Index(10), rng.Index(10));
    }
    EXPECT_EQ(a.Compose(b).Compose(c), a.Compose(b.Compose(c)));
  }
}

TEST(BitMatrix, ComposeIntoMatchesComposeAndReusesBuffer) {
  Rng rng(13);
  BitMatrix result;  // one reused destination across all trials
  for (int trial = 0; trial < 30; ++trial) {
    size_t n = 1 + rng.Index(70);
    size_t m = 1 + rng.Index(70);
    size_t k = 1 + rng.Index(70);
    BitMatrix a(n, m), b(m, k);
    for (size_t i = 0; i < n * m / 3 + 1; ++i) {
      a.Set(rng.Index(n), rng.Index(m));
    }
    for (size_t i = 0; i < m * k / 3 + 1; ++i) {
      b.Set(rng.Index(m), rng.Index(k));
    }
    a.ComposeInto(b, &result);
    EXPECT_EQ(result, a.Compose(b)) << "trial " << trial;
  }
}

TEST(BitMatrix, NonEmptyRowsIntoMatchesNonEmptyRows) {
  Rng rng(17);
  std::vector<uint32_t> out;
  for (int trial = 0; trial < 30; ++trial) {
    size_t rows = 1 + rng.Index(40);
    size_t cols = 1 + rng.Index(140);
    BitMatrix m(rows, cols);
    for (size_t i = 0; i < rows * cols / 9 + 1; ++i) {
      m.Set(rng.Index(rows), rng.Index(cols));
    }
    m.NonEmptyRowsInto(&out);
    EXPECT_EQ(out, m.NonEmptyRows()) << "trial " << trial;
  }
}

TEST(BitMatrix, ViewReadsMatchOwningMatrix) {
  Rng rng(19);
  BitMatrix m(7, 100);
  for (int i = 0; i < 60; ++i) m.Set(rng.Index(7), rng.Index(100));
  BitMatrixView v(m);
  EXPECT_EQ(v.rows(), m.rows());
  EXPECT_EQ(v.cols(), m.cols());
  EXPECT_EQ(v.Count(), m.Count());
  EXPECT_EQ(v.Any(), m.Any());
  for (size_t r = 0; r < m.rows(); ++r) {
    EXPECT_EQ(v.RowAny(r), m.RowAny(r));
    for (size_t c = 0; c < m.cols(); ++c) {
      EXPECT_EQ(v.Get(r, c), m.Get(r, c));
    }
  }
}

TEST(BitMatrix, AssignReshapesAndZeroes) {
  BitMatrix m(4, 4);
  m.Set(3, 3);
  m.Assign(2, 130);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 130u);
  EXPECT_FALSE(m.Any());
  m.Set(1, 129);
  EXPECT_TRUE(m.Get(1, 129));
  m.Assign(4, 4);
  EXPECT_FALSE(m.Any());
  EXPECT_EQ(m, BitMatrix(4, 4));
}

#ifndef NDEBUG
// The blocked compose kernel re-reads operand rows after writing `out`,
// so an aliased destination silently corrupts the composition. Debug
// builds TREENUM_CHECK the precondition; both operand overlaps must trip.
TEST(BitMatrixDeathTest, ComposeIntoWordsRejectsAliasedDestination) {
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
