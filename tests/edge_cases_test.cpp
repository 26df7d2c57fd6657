// Edge-case and failure-injection tests across the pipeline: degenerate
// trees/words, automata with no accepting behaviour, annotation-free
// queries, invalid-edit rejection, and state-id stability corner cases.
#include <gtest/gtest.h>

#include "automata/query_library.h"
#include "automata/regex_spanner.h"
#include "baseline/naive_engine.h"
#include "core/tree_enumerator.h"
#include "core/word_enumerator.h"
#include "test_util.h"

namespace treenum {
namespace {

TEST(EdgeCases, SingletonTree) {
  UnrankedTree t(1);
  TreeEnumerator e(t, QuerySelectLabel(2, 1));
  std::vector<Assignment> res = e.EnumerateAll();
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0].singletons()[0].node, t.root());
}

TEST(EdgeCases, SingletonTreeNoMatch) {
  TreeEnumerator e(UnrankedTree(0), QuerySelectLabel(2, 1));
  EXPECT_TRUE(e.EnumerateAll().empty());
}

TEST(EdgeCases, AutomatonWithNoFinalStates) {
  UnrankedTva q(2, 2, 1);
  q.AddInit(0, 0, 0);
  q.AddInit(1, 0, 0);
  q.AddInit(0, 1, 1);
  q.AddTransition(0, 0, 0);
  // no AddFinal
  Rng rng(801);
  TreeEnumerator e(RandomTree(20, 2, rng), q);
  EXPECT_TRUE(e.EnumerateAll().empty());
}

TEST(EdgeCases, AutomatonRejectingEverything) {
  // ι empty: no runs at all.
  UnrankedTva q(2, 2, 1);
  q.AddTransition(0, 0, 1);
  q.AddFinal(1);
  Rng rng(803);
  TreeEnumerator e(RandomTree(10, 2, rng), q);
  EXPECT_TRUE(e.EnumerateAll().empty());
}

TEST(EdgeCases, UpdatesOnEmptyResultStayEmpty) {
  UnrankedTva q(1, 2, 1);
  q.AddInit(0, 0, 0);  // only label a, empty annotation
  q.AddTransition(0, 0, 0);
  q.AddFinal(0);
  // Query accepts only the all-empty valuation on all-a trees: the sole
  // satisfying assignment is the empty one.
  TreeEnumerator e(UnrankedTree(0), q);
  std::vector<Assignment> r = e.EnumerateAll();
  ASSERT_EQ(r.size(), 1u);
  EXPECT_TRUE(r[0].empty());
  NodeId u;
  e.InsertFirstChild(e.tree().root(), 1, &u);  // a b-node kills acceptance
  EXPECT_TRUE(e.EnumerateAll().empty());
  e.Relabel(u, 0);
  EXPECT_EQ(e.EnumerateAll().size(), 1u);
}

TEST(EdgeCases, DeleteRejectionsDoNotCorruptState) {
  TreeEnumerator e(UnrankedTree::Parse("(a (b))"), QuerySelectLabel(2, 1));
  EXPECT_EQ(e.DeleteLeaf(e.tree().root()).status, Status::kIsRoot);
  NodeId b = e.tree().children(e.tree().root())[0];
  NodeId u;
  e.InsertFirstChild(b, 1, &u);
  EXPECT_EQ(e.DeleteLeaf(b).status, Status::kNotALeaf);
  EXPECT_EQ(e.EnumerateAll().size(), 2u);
  e.DeleteLeaf(u);
  EXPECT_EQ(e.EnumerateAll().size(), 1u);
}

TEST(EdgeCases, WordOfLengthOne) {
  Wva q = CompileRegexSpanner("<0:.>", 2, 1);
  WordEnumerator e(ToWord("a"), q);
  std::vector<Assignment> res = e.EnumerateAllByPosition();
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0].singletons()[0].node, 0u);
  e.Replace(0, 1);
  EXPECT_EQ(e.EnumerateAllByPosition().size(), 1u);
}

TEST(EdgeCases, WordShrinkToOneLetterAndBack) {
  Wva q = CompileRegexSpanner(".*<0:b>.*", 2, 1);
  WordEnumerator e(ToWord("bab"), q);
  EXPECT_EQ(e.EnumerateAllByPosition().size(), 2u);
  e.Erase(0);
  e.Erase(0);
  EXPECT_EQ(e.size(), 1u);
  EXPECT_EQ(e.EnumerateAllByPosition().size(), 1u);
  e.Insert(0, 0);
  e.Insert(2, 1);
  EXPECT_EQ(e.EnumerateAllByPosition().size(), 2u);
}

TEST(EdgeCases, HugeFanoutNode) {
  // 1000 children under one node: stresses forest splitting and stepwise
  // folds.
  UnrankedTree t(0);
  for (int i = 0; i < 1000; ++i) {
    t.AppendChild(t.root(), static_cast<Label>(i % 2));
  }
  TreeEnumerator e(t, QuerySelectLabel(2, 1));
  EXPECT_EQ(e.EnumerateAll().size(), 500u);
  // Edit in the middle of the fanout.
  NodeId mid = e.tree().children(e.tree().root())[500];
  e.Relabel(mid, 1);
  size_t after = e.EnumerateAll().size();
  EXPECT_TRUE(after == 500u || after == 501u);
}

TEST(EdgeCases, AllNodesSameLabelSelectAll) {
  Rng rng(809);
  UnrankedTree t = RandomTree(64, 1, rng);
  TreeEnumerator e(t, QuerySelectAll(1));
  EXPECT_EQ(e.EnumerateAll().size(), 64u);
}

TEST(EdgeCases, TwoVarQueryOnSingleton) {
  TreeEnumerator e(UnrankedTree(0), QueryDescendantPairs(2, 0, 1));
  EXPECT_TRUE(e.EnumerateAll().empty());
}

TEST(EdgeCases, RepeatedInsertDeleteAtSamePosition) {
  TreeEnumerator e(UnrankedTree::Parse("(a (b) (b))"),
                   QuerySelectLabel(2, 1));
  NodeId root = e.tree().root();
  for (int i = 0; i < 100; ++i) {
    NodeId u;
    e.InsertFirstChild(root, 1, &u);
    ASSERT_EQ(e.EnumerateAll().size(), 3u);
    e.DeleteLeaf(u);
    ASSERT_EQ(e.EnumerateAll().size(), 2u);
  }
}

TEST(EdgeCases, MaterializationMatchesOnDegenerateShapes) {
  Rng rng(811);
  UnrankedTva q = QueryMarkedAncestor(3, 1, 2);
  // Star.
  UnrankedTree star(1);
  for (int i = 0; i < 30; ++i) star.AppendChild(star.root(), 2);
  EXPECT_EQ(TreeEnumerator(star, q).EnumerateAll(),
            MaterializeAssignments(star, q));
  // Deep path.
  UnrankedTree path = PathTree(40, 3, rng);
  EXPECT_EQ(TreeEnumerator(path, q).EnumerateAll(),
            MaterializeAssignments(path, q));
}

}  // namespace
}  // namespace treenum
