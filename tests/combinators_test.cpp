#include "automata/combinators.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "automata/query_library.h"
#include "baseline/naive_engine.h"
#include "core/tree_enumerator.h"
#include "test_util.h"

namespace treenum {
namespace {

std::vector<Assignment> SetUnion(std::vector<Assignment> a,
                                 const std::vector<Assignment>& b) {
  a.insert(a.end(), b.begin(), b.end());
  std::sort(a.begin(), a.end());
  a.erase(std::unique(a.begin(), a.end()), a.end());
  return a;
}

std::vector<Assignment> SetIntersection(const std::vector<Assignment>& a,
                                        const std::vector<Assignment>& b) {
  std::vector<Assignment> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

TEST(Combinators, UnionOfLabelSelections) {
  Rng rng(401);
  UnrankedTva qa = QuerySelectLabel(3, 0);
  UnrankedTva qb = QuerySelectLabel(3, 1);
  UnrankedTva u = UnionTva(qa, qb);
  for (int trial = 0; trial < 8; ++trial) {
    UnrankedTree t = RandomTree(1 + rng.Index(40), 3, rng);
    TreeEnumerator e(t, u);
    EXPECT_EQ(e.EnumerateAll(),
              SetUnion(MaterializeAssignments(t, qa),
                       MaterializeAssignments(t, qb)));
  }
}

TEST(Combinators, IntersectionSelectsBoth) {
  // label(x) = special AND x has a marked ancestor — intersecting
  // select-label with marked-ancestor must equal marked-ancestor itself.
  Rng rng(409);
  UnrankedTva qa = QuerySelectLabel(3, 2);
  UnrankedTva qb = QueryMarkedAncestor(3, 1, 2);
  UnrankedTva i = IntersectTva(qa, qb);
  for (int trial = 0; trial < 8; ++trial) {
    UnrankedTree t = RandomTree(1 + rng.Index(40), 3, rng);
    TreeEnumerator e(t, i);
    EXPECT_EQ(e.EnumerateAll(), MaterializeAssignments(t, qb));
  }
}

TEST(Combinators, RandomUnionProperty) {
  Rng rng(419);
  for (int trial = 0; trial < 12; ++trial) {
    UnrankedTva qa = RandomUnrankedTva(rng, 2, 2, 1, 3, 6);
    UnrankedTva qb = RandomUnrankedTva(rng, 3, 2, 1, 3, 7);
    UnrankedTva u = UnionTva(qa, qb);
    UnrankedTree t = RandomTree(1 + rng.Index(20), 2, rng);
    EXPECT_EQ(MaterializeAssignments(t, u),
              SetUnion(MaterializeAssignments(t, qa),
                       MaterializeAssignments(t, qb)))
        << "trial " << trial;
  }
}

TEST(Combinators, RandomIntersectionProperty) {
  Rng rng(421);
  for (int trial = 0; trial < 12; ++trial) {
    UnrankedTva qa = RandomUnrankedTva(rng, 2, 2, 1, 4, 6);
    UnrankedTva qb = RandomUnrankedTva(rng, 2, 2, 1, 4, 6);
    UnrankedTva i = IntersectTva(qa, qb);
    UnrankedTree t = RandomTree(1 + rng.Index(15), 2, rng);
    EXPECT_EQ(MaterializeAssignments(t, i),
              SetIntersection(MaterializeAssignments(t, qa),
                              MaterializeAssignments(t, qb)))
        << "trial " << trial;
  }
}

TEST(Combinators, CombinedQueryThroughFullPipelineWithUpdates) {
  Rng rng(431);
  UnrankedTva q = IntersectTva(QuerySelectLabel(3, 2),
                               QueryMarkedAncestor(3, 1, 2));
  UnrankedTree t = RandomTree(20, 3, rng);
  TreeEnumerator e(t, q);
  for (int step = 0; step < 30; ++step) {
    std::vector<NodeId> nodes = t.PreorderNodes();
    NodeId n = nodes[rng.Index(nodes.size())];
    Label l = static_cast<Label>(rng.Index(3));
    e.Relabel(n, l);
    t.Relabel(n, l);
    ASSERT_EQ(e.EnumerateAll(), MaterializeAssignments(t, q))
        << "step " << step;
  }
}

TEST(Combinators, EachVariableOnceSemantics) {
  UnrankedTva sing = EachVariableOnce(2, 2);
  UnrankedTree t = UnrankedTree::Parse("(a (b) (b))");
  std::vector<Assignment> res = MaterializeAssignments(t, sing);
  // Each of x, y independently picks one of the 3 nodes (they may share a
  // node — masks only enforce "exactly once" per variable): 3 × 3 = 9.
  EXPECT_EQ(res.size(), 9u);
  for (const Assignment& a : res) EXPECT_EQ(a.size(), 2u);
}

TEST(Combinators, MakeFirstOrderRestrictsToSingletons) {
  // QueryAnySubsetOfLabel has answers of all sizes; the first-order
  // restriction must keep exactly the size-1 ones (= QuerySelectLabel).
  Rng rng(443);
  UnrankedTva q = MakeFirstOrder(QueryAnySubsetOfLabel(2, 1));
  UnrankedTva ref = QuerySelectLabel(2, 1);
  for (int trial = 0; trial < 8; ++trial) {
    UnrankedTree t = RandomTree(1 + rng.Index(30), 2, rng);
    TreeEnumerator e(t, q);
    EXPECT_EQ(e.EnumerateAll(), MaterializeAssignments(t, ref));
  }
}

TEST(Combinators, AssignmentsToTuples) {
  Rng rng(449);
  UnrankedTree t = RandomTree(25, 2, rng);
  UnrankedTva q = QueryDescendantPairs(2, 0, 1);
  TreeEnumerator e(t, q);
  std::vector<Assignment> res = e.EnumerateAll();
  std::vector<std::vector<NodeId>> tuples = AssignmentsToTuples(res, 2);
  ASSERT_EQ(tuples.size(), res.size());
  for (size_t i = 0; i < tuples.size(); ++i) {
    ASSERT_EQ(tuples[i].size(), 2u);
    EXPECT_EQ(t.label(tuples[i][0]), 0u);  // x is the a-node
    EXPECT_EQ(t.label(tuples[i][1]), 1u);  // y is the b-node
  }
}

TEST(Combinators, WvaUnionProperty) {
  Rng rng(433);
  for (int trial = 0; trial < 12; ++trial) {
    Wva a(2, 2, 1), b(2, 2, 1);
    for (Wva* w : {&a, &b}) {
      w->AddInitial(0);
      for (int i = 0; i < 6; ++i) {
        w->AddTransition(static_cast<State>(rng.Index(2)),
                         static_cast<Label>(rng.Index(2)),
                         static_cast<VarMask>(rng.Index(2)),
                         static_cast<State>(rng.Index(2)));
      }
      w->AddFinal(static_cast<State>(rng.Index(2)));
    }
    Wva u = UnionWva(a, b);
    Word word;
    for (size_t i = 0; i < 1 + rng.Index(6); ++i) {
      word.push_back(static_cast<Label>(rng.Index(2)));
    }
    EXPECT_EQ(u.BruteForceAssignments(word),
              SetUnion(a.BruteForceAssignments(word),
                       b.BruteForceAssignments(word)));
  }
}

TEST(Combinators, WvaIntersectionProperty) {
  Rng rng(439);
  for (int trial = 0; trial < 12; ++trial) {
    Wva a(2, 2, 1), b(2, 2, 1);
    for (Wva* w : {&a, &b}) {
      w->AddInitial(0);
      for (int i = 0; i < 7; ++i) {
        w->AddTransition(static_cast<State>(rng.Index(2)),
                         static_cast<Label>(rng.Index(2)),
                         static_cast<VarMask>(rng.Index(2)),
                         static_cast<State>(rng.Index(2)));
      }
      w->AddFinal(static_cast<State>(rng.Index(2)));
    }
    Wva inter = IntersectWva(a, b);
    Word word;
    for (size_t i = 0; i < 1 + rng.Index(6); ++i) {
      word.push_back(static_cast<Label>(rng.Index(2)));
    }
    EXPECT_EQ(inter.BruteForceAssignments(word),
              SetIntersection(a.BruteForceAssignments(word),
                              b.BruteForceAssignments(word)));
  }
}

}  // namespace
}  // namespace treenum
