#include "core/tree_enumerator.h"

#include <gtest/gtest.h>

#include "automata/query_library.h"
#include "baseline/naive_engine.h"
#include "baseline/static_engine.h"
#include "test_util.h"

namespace treenum {
namespace {

TEST(TreeEnumerator, SelectLabelStatic) {
  UnrankedTree t = UnrankedTree::Parse("(a (b) (a (b) (b)) (a))");
  TreeEnumerator e(t, QuerySelectLabel(2, 1));
  std::vector<Assignment> res = e.EnumerateAll();
  EXPECT_EQ(res.size(), 3u);  // three b-nodes
  for (const Assignment& a : res) {
    ASSERT_EQ(a.size(), 1u);
    EXPECT_EQ(t.label(a.singletons()[0].node), 1u);
  }
}

TEST(TreeEnumerator, MatchesNaiveOnRandomTrees) {
  Rng rng(151);
  UnrankedTva queries[] = {QuerySelectLabel(2, 1), QuerySelectAll(2),
                           QueryDescendantPairs(2, 0, 1),
                           QueryContainsLabel(2, 1)};
  for (const UnrankedTva& q : queries) {
    for (int trial = 0; trial < 8; ++trial) {
      UnrankedTree t = RandomTree(1 + rng.Index(60), 2, rng);
      TreeEnumerator e(t, q);
      EXPECT_EQ(e.EnumerateAll(), MaterializeAssignments(t, q));
    }
  }
}

TEST(TreeEnumerator, EmptyAssignmentForBooleanQuery) {
  UnrankedTva q = QueryContainsLabel(2, 1);
  TreeEnumerator yes(UnrankedTree::Parse("(a (b))"), q);
  std::vector<Assignment> r1 = yes.EnumerateAll();
  ASSERT_EQ(r1.size(), 1u);
  EXPECT_TRUE(r1[0].empty());
  TreeEnumerator no(UnrankedTree::Parse("(a (a))"), q);
  EXPECT_TRUE(no.EnumerateAll().empty());
}

TEST(TreeEnumerator, SecondOrderVariableAnswers) {
  // Any non-empty subset of b-nodes: 2^k - 1 answers.
  UnrankedTree t = UnrankedTree::Parse("(a (b) (b) (b))");
  TreeEnumerator e(t, QueryAnySubsetOfLabel(2, 1));
  EXPECT_EQ(e.EnumerateAll().size(), 7u);
}

TEST(TreeEnumerator, UpdatesTrackMaterialization) {
  Rng rng(157);
  UnrankedTva q = QueryMarkedAncestor(3, 1, 2);
  for (int trial = 0; trial < 4; ++trial) {
    UnrankedTree t = RandomTree(1 + rng.Index(25), 3, rng);
    TreeEnumerator e(t, q);
    UnrankedTree mirror = t;  // same edits => same NodeIds
    for (int step = 0; step < 60; ++step) {
      std::vector<NodeId> nodes = mirror.PreorderNodes();
      NodeId n = nodes[rng.Index(nodes.size())];
      switch (rng.Index(4)) {
        case 0: {
          Label l = static_cast<Label>(rng.Index(3));
          e.Relabel(n, l);
          mirror.Relabel(n, l);
          break;
        }
        case 1: {
          Label l = static_cast<Label>(rng.Index(3));
          e.InsertFirstChild(n, l);
          mirror.InsertFirstChild(n, l);
          break;
        }
        case 2: {
          if (n == mirror.root()) break;
          Label l = static_cast<Label>(rng.Index(3));
          e.InsertRightSibling(n, l);
          mirror.InsertRightSibling(n, l);
          break;
        }
        case 3: {
          if (n == mirror.root() || !mirror.IsLeaf(n)) break;
          e.DeleteLeaf(n);
          mirror.DeleteLeaf(n);
          break;
        }
      }
      ASSERT_EQ(e.EnumerateAll(), MaterializeAssignments(mirror, q))
          << "trial " << trial << " step " << step;
    }
  }
}

TEST(TreeEnumerator, NaiveModeAgreesWithIndexedMode) {
  Rng rng(163);
  UnrankedTva q = QueryDescendantPairs(2, 0, 1);
  for (int trial = 0; trial < 6; ++trial) {
    UnrankedTree t = RandomTree(1 + rng.Index(50), 2, rng);
    TreeEnumerator indexed(t, q, BoxEnumMode::kIndexed);
    TreeEnumerator naive(t, q, BoxEnumMode::kNaive);
    EXPECT_EQ(indexed.EnumerateAll(), naive.EnumerateAll());
  }
}

TEST(TreeEnumerator, CursorIsRestartable) {
  UnrankedTree t = UnrankedTree::Parse("(a (b) (b))");
  TreeEnumerator e(t, QuerySelectLabel(2, 1));
  for (int round = 0; round < 3; ++round) {
    TreeEnumerator::Cursor c = e.Enumerate();
    Assignment a;
    size_t n = 0;
    while (c.Next(&a)) ++n;
    EXPECT_EQ(n, 2u);
  }
}

TEST(TreeEnumerator, EnumerationAfterUpdateReflectsChange) {
  UnrankedTree t = UnrankedTree::Parse("(a (b))");
  TreeEnumerator e(t, QuerySelectLabel(2, 1));
  EXPECT_EQ(e.EnumerateAll().size(), 1u);
  NodeId u;
  e.InsertFirstChild(e.tree().root(), 1, &u);
  EXPECT_EQ(e.EnumerateAll().size(), 2u);
  e.Relabel(u, 0);
  EXPECT_EQ(e.EnumerateAll().size(), 1u);
  e.DeleteLeaf(u);
  EXPECT_EQ(e.EnumerateAll().size(), 1u);
}

TEST(TreeEnumerator, StaticEngineAgrees) {
  Rng rng(167);
  UnrankedTva q = QuerySelectLabel(2, 1);
  UnrankedTree t = RandomTree(30, 2, rng);
  TreeEnumerator dyn(t, q);
  EXPECT_EQ(StaticEngine(t, q).EnumerateAll(), dyn.EnumerateAll());
  // One update: the dynamic engine edits in place, the static one is
  // rebuilt over the edited tree.
  NodeId n = t.PreorderNodes()[5];
  t.Relabel(n, 1);
  dyn.Relabel(n, 1);
  EXPECT_EQ(StaticEngine(t, q).EnumerateAll(), dyn.EnumerateAll());
}

TEST(TreeEnumerator, UpdateStatsReportRebuilds) {
  // Pathological insert chain must trigger at least one rebalance rebuild.
  TreeEnumerator e(UnrankedTree(0), QuerySelectLabel(2, 1));
  NodeId cur = e.tree().root();
  size_t rebuilds = 0;
  for (int i = 0; i < 300; ++i) {
    NodeId u;
    UpdateStats s = e.InsertFirstChild(cur, 1, &u);
    rebuilds += s.rebuilt_size > 0;
    cur = u;
  }
  EXPECT_GT(rebuilds, 0u);
  EXPECT_EQ(e.EnumerateAll().size(), 300u);
}

TEST(TreeEnumerator, HasAnswerFastPath) {
  Rng rng(179);
  UnrankedTva q = QueryMarkedAncestor(3, 1, 2);
  for (int trial = 0; trial < 15; ++trial) {
    UnrankedTree t = RandomTree(1 + rng.Index(40), 3, rng);
    TreeEnumerator e(t, q);
    EXPECT_EQ(e.HasAnswer(), !e.EnumerateAll().empty());
  }
  // Boolean query: HasAnswer reflects the empty-assignment case.
  TreeEnumerator b(UnrankedTree::Parse("(a (b))"), QueryContainsLabel(2, 1));
  EXPECT_TRUE(b.HasAnswer());
}

TEST(TreeEnumerator, IntegratedCountingTracksUpdates) {
  Rng rng(181);
  TreeEnumerator e(RandomTree(60, 3, rng), QueryMarkedAncestor(3, 1, 2));
  e.EnableCounting();
  ASSERT_TRUE(e.counting_enabled());
  EXPECT_EQ(e.AcceptingRuns(), e.EnumerateAll().size());
  for (int step = 0; step < 30; ++step) {
    std::vector<NodeId> nodes = e.tree().PreorderNodes();
    NodeId n = nodes[rng.Index(nodes.size())];
    switch (rng.Index(3)) {
      case 0:
        e.Relabel(n, static_cast<Label>(rng.Index(3)));
        break;
      case 1:
        e.InsertFirstChild(n, static_cast<Label>(rng.Index(3)));
        break;
      default:
        if (n != e.tree().root() && e.tree().IsLeaf(n)) {
          e.DeleteLeaf(n);
        }
        break;
    }
    ASSERT_EQ(e.AcceptingRuns(), e.EnumerateAll().size()) << "step " << step;
  }
}

TEST(TreeEnumerator, DelayIndependentOfTreeSize) {
  // One single answer in trees of very different sizes: the number of
  // elementary enumeration steps must not grow with |T|.
  Rng rng(173);
  auto steps_for = [&](size_t n) {
    UnrankedTree t = PathTree(n, 1, rng);  // all label a
    // relabel the deepest node to b
    NodeId cur = t.root();
    while (!t.IsLeaf(cur)) cur = t.children(cur)[0];
    t.Relabel(cur, 1);
    TreeEnumerator e(t, QuerySelectLabel(2, 1));
    TreeEnumerator::Cursor c = e.Enumerate();
    Assignment a;
    size_t count = 0;
    while (c.Next(&a)) ++count;
    EXPECT_EQ(count, 1u);
    return c.steps();
  };
  size_t small = steps_for(64);
  size_t large = steps_for(4096);
  EXPECT_LE(large, 3 * small + 32);
}

}  // namespace
}  // namespace treenum
