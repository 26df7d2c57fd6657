// End-to-end property tests: long random edit scripts over random trees and
// random nondeterministic automata, cross-checked against the independent
// naive materializing oracle after every edit.
//
// Random automata can have exponentially many answers (e.g. subset-style
// queries), so each step first counts answers through the cursor with a cap
// and only materializes the oracle when the result set is small; steps whose
// result sets exceed the cap still check structural invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "automata/combinators.h"
#include "automata/query_library.h"
#include "automata/regex_spanner.h"
#include "automata/wva.h"
#include "baseline/naive_engine.h"
#include "baseline/static_engine.h"
#include "core/document.h"
#include "core/tree_enumerator.h"
#include "core/word_enumerator.h"
#include "test_util.h"

namespace treenum {
namespace {

constexpr size_t kAnswerCap = 20000;

std::optional<std::vector<Assignment>> CollectCapped(
    const TreeEnumerator& e) {
  TreeEnumerator::Cursor c = e.Enumerate();
  std::vector<Assignment> out;
  Assignment a;
  while (c.Next(&a)) {
    out.push_back(a);
    if (out.size() > kAnswerCap) return std::nullopt;
  }
  std::sort(out.begin(), out.end());
  return out;
}

struct ScriptConfig {
  uint64_t seed;
  size_t initial_size;
  size_t steps;
  size_t states;
  size_t vars;
  /// Growth cap: with v variables a subset-style automaton can have up to
  /// 2^(v*n) answers, so the cap keeps every step below kAnswerCap and thus
  /// oracle-checkable.
  size_t max_size;
};

class PipelinePropertyTest : public ::testing::TestWithParam<ScriptConfig> {};

TEST_P(PipelinePropertyTest, RandomAutomatonRandomEditScript) {
  const ScriptConfig& cfg = GetParam();
  Rng rng(cfg.seed);
  UnrankedTva q =
      RandomUnrankedTva(rng, cfg.states, 2, cfg.vars, 4, 3 * cfg.states);
  UnrankedTree t = RandomTree(cfg.initial_size, 2, rng);
  TreeEnumerator indexed(t, q, BoxEnumMode::kIndexed);
  TreeEnumerator naive_mode(t, q, BoxEnumMode::kNaive);
  UnrankedTree mirror = t;  // same edits => same NodeIds

  size_t checked = 0;
  for (size_t step = 0; step < cfg.steps; ++step) {
    std::vector<NodeId> nodes = mirror.PreorderNodes();
    NodeId n = nodes[rng.Index(nodes.size())];
    size_t op = rng.Index(4);
    if (mirror.size() >= cfg.max_size && (op == 1 || op == 2)) op = 0;
    switch (op) {
      case 0: {
        Label l = static_cast<Label>(rng.Index(2));
        indexed.Relabel(n, l);
        naive_mode.Relabel(n, l);
        mirror.Relabel(n, l);
        break;
      }
      case 1: {
        Label l = static_cast<Label>(rng.Index(2));
        indexed.InsertFirstChild(n, l);
        naive_mode.InsertFirstChild(n, l);
        mirror.InsertFirstChild(n, l);
        break;
      }
      case 2: {
        if (n == mirror.root()) break;
        Label l = static_cast<Label>(rng.Index(2));
        indexed.InsertRightSibling(n, l);
        naive_mode.InsertRightSibling(n, l);
        mirror.InsertRightSibling(n, l);
        break;
      }
      case 3: {
        if (n == mirror.root() || !mirror.IsLeaf(n)) break;
        indexed.DeleteLeaf(n);
        naive_mode.DeleteLeaf(n);
        mirror.DeleteLeaf(n);
        break;
      }
    }
    ASSERT_TRUE(indexed.tree() == mirror);
    std::optional<std::vector<Assignment>> got = CollectCapped(indexed);
    if (!got.has_value()) continue;  // result set too large to oracle-check
    ASSERT_EQ(*got, MaterializeAssignments(mirror, q))
        << "seed " << cfg.seed << " step " << step;
    std::optional<std::vector<Assignment>> got2 = CollectCapped(naive_mode);
    ASSERT_TRUE(got2.has_value());
    ASSERT_EQ(*got, *got2) << "seed " << cfg.seed << " step " << step;
    ++checked;
  }
  // The configs are chosen so that a decent share of steps is checkable.
  EXPECT_GT(checked, cfg.steps / 8) << "seed " << cfg.seed;
}

INSTANTIATE_TEST_SUITE_P(
    Scripts, PipelinePropertyTest,
    ::testing::Values(ScriptConfig{1001, 5, 60, 2, 1, 14},
                      ScriptConfig{1002, 14, 50, 3, 1, 14},
                      ScriptConfig{1003, 6, 40, 2, 2, 7},
                      ScriptConfig{1004, 1, 80, 3, 1, 14},
                      ScriptConfig{1005, 12, 30, 3, 1, 13},
                      ScriptConfig{1006, 10, 50, 4, 1, 12},
                      ScriptConfig{1007, 5, 40, 2, 2, 7},
                      ScriptConfig{1008, 7, 30, 3, 2, 7}),
    [](const ::testing::TestParamInfo<ScriptConfig>& info) {
      return "seed" + std::to_string(info.param.seed);
    });

// A wide query: the union of two ancestor-at-distance automata compiles to
// w = 879 states, so on trees of 128 and 512 nodes many boxes hold more
// than 64 ∪-gates, and some more than 128: wire rows, relations and state
// masks span two or three words, and box composition runs the multi-word
// tile. Both box-enum modes, fed scripted edits and subtree moves and
// deletes through Apply in small batches, must match the materialized
// oracle after every commit, with every storage audit clean.
TEST(PipelineProperty, WideUnionQueryAgainstOracle) {
  const UnrankedTva q = UnionTva(QueryAncestorAtDistance(3, 1, 6),
                                 QueryAncestorAtDistance(3, 2, 9));
  for (size_t n : {128u, 512u}) {
    SCOPED_TRACE("n " + std::to_string(n));
    Rng rng(3);
    UnrankedTree t = RandomTree(n, 3, rng);
    DynamicDocument doc(t, 3);
    const DynamicDocument::QueryHandle modes[] = {
        doc.Register(q, BoxEnumMode::kIndexed),
        doc.Register(q, BoxEnumMode::kNaive)};
    const AssignmentCircuit& circuit = doc.pipeline(modes[0]).circuit();
    ASSERT_GT(circuit.width(), 128u);
    size_t wide = 0;  // boxes with more than 64 ∪-gates
    size_t widest = 0;
    for (TermNodeId id = 0; id < doc.term().id_bound(); ++id) {
      if (!doc.term().IsAlive(id)) continue;
      const size_t nu = circuit.box(id).num_unions();
      wide += nu > 64;
      widest = std::max(widest, nu);
    }
    ASSERT_GT(wide, n / 2);
    ASSERT_GT(widest, 128u);
    serving::WorkloadOptions wo;
    wo.structural_fraction = 0.2;
    serving::CommandScript script(std::move(t), 3, wo);
    for (int commit = 0; commit < 12; ++commit) {
      doc.BeginBatch();
      for (int k = 0; k <= commit % 3; ++k) ApplyOk(doc, script.Next());
      doc.CommitBatch();
      const std::vector<Assignment> expected =
          MaterializeAssignments(script.mirror(), q);
      for (DynamicDocument::QueryHandle h : modes) {
        ASSERT_EQ(doc.pipeline(h).ValidateStorage(), "") << "commit " << commit;
        ASSERT_EQ(doc.EnumerateAt(doc.CurrentSnapshot(), h), expected)
            << "commit " << commit;
      }
    }
  }
}

// Deep path trees exercise the rebalancing and hole-closure paths harder:
// grow a path node by node, then delete it back down, checking after every
// edit against the oracle.
TEST(PipelineProperty, PathGrowShrinkAgainstOracle) {
  Rng rng(307);
  UnrankedTva q = QueryMarkedAncestor(2, 0, 1);
  UnrankedTree mirror(0);
  TreeEnumerator e(mirror, q);
  std::vector<NodeId> path{mirror.root()};
  for (int i = 0; i < 40; ++i) {
    Label l = static_cast<Label>(rng.Index(2));
    NodeId u;
    e.InsertFirstChild(path.back(), l, &u);
    ASSERT_EQ(u, mirror.InsertFirstChild(path.back(), l));
    path.push_back(u);
    ASSERT_EQ(e.EnumerateAll(), MaterializeAssignments(mirror, q))
        << "grow " << i;
  }
  while (path.size() > 1) {
    NodeId leaf = path.back();
    path.pop_back();
    e.DeleteLeaf(leaf);
    mirror.DeleteLeaf(leaf);
    ASSERT_EQ(e.EnumerateAll(), MaterializeAssignments(mirror, q))
        << "shrink at " << path.size();
  }
}

// ---- Batched updates --------------------------------------------------------
//
// Property: one batch of edits ≡ the same edits applied one-by-one ≡ the
// materialized answers over the mirror tree (and a StaticEngine rebuilt
// over it), on randomized edit scripts.

// Generates a batch of `k` edits that is valid when applied sequentially,
// advancing `mirror` as the ground truth. Edits may target nodes created
// earlier in the same batch (node ids are deterministic across documents).
std::vector<Edit> RandomTreeBatch(UnrankedTree& mirror, Rng& rng, size_t k,
                                  size_t labels, size_t max_size) {
  std::vector<Edit> edits;
  while (edits.size() < k) {
    std::vector<NodeId> nodes = mirror.PreorderNodes();
    NodeId n = nodes[rng.Index(nodes.size())];
    size_t op = rng.Index(4);
    if (mirror.size() >= max_size && (op == 1 || op == 2)) op = 0;
    Label l = static_cast<Label>(rng.Index(labels));
    switch (op) {
      case 0:
        mirror.Relabel(n, l);
        edits.push_back(Edit::Relabel(n, l));
        break;
      case 1:
        mirror.InsertFirstChild(n, l);
        edits.push_back(Edit::InsertFirstChild(n, l));
        break;
      case 2:
        if (n == mirror.root()) break;
        mirror.InsertRightSibling(n, l);
        edits.push_back(Edit::InsertRightSibling(n, l));
        break;
      default:
        if (n == mirror.root() || !mirror.IsLeaf(n)) break;
        mirror.DeleteLeaf(n);
        edits.push_back(Edit::DeleteLeaf(n));
        break;
    }
  }
  return edits;
}

TEST(BatchedUpdates, BatchEqualsSequentialEqualsOracleOnTrees) {
  Rng rng(401);
  UnrankedTva queries[] = {QueryMarkedAncestor(3, 1, 2),
                           QueryDescendantPairs(3, 0, 1)};
  for (const UnrankedTva& q : queries) {
    UnrankedTree t = RandomTree(20, 3, rng);
    TreeEnumerator sequential(t, q);
    TreeEnumerator batched(t, q);
    batched.EnableCounting();  // cover counter maintenance at commit
    UnrankedTree mirror = t;
    for (int round = 0; round < 12; ++round) {
      size_t k = 1 + rng.Index(12);
      std::vector<Edit> batch = RandomTreeBatch(mirror, rng, k, 3, 60);
      UpdateStats seq_stats;
      for (const Edit& e : batch) {
        seq_stats += sequential.document().ApplyEdit(e);
      }
      batched.BeginBatch();
      UpdateStats batch_stats;
      for (const Edit& e : batch) {
        batch_stats += batched.document().ApplyEdit(e);
      }
      batch_stats += batched.CommitBatch();
      ASSERT_TRUE(sequential.tree() == mirror) << "round " << round;
      ASSERT_TRUE(batched.tree() == mirror) << "round " << round;
      EXPECT_TRUE(batch_stats.ok()) << "round " << round;
      EXPECT_EQ(batch_stats.edits_applied, batch.size());
      // Coalescing must never refresh more boxes than the per-edit path.
      EXPECT_LE(batch_stats.boxes_recomputed, seq_stats.boxes_recomputed)
          << "round " << round;
      std::vector<Assignment> expected = MaterializeAssignments(mirror, q);
      ASSERT_EQ(sequential.EnumerateAll(), expected) << "round " << round;
      ASSERT_EQ(batched.EnumerateAll(), expected) << "round " << round;
      ASSERT_EQ(StaticEngine(mirror, q).EnumerateAll(), expected)
          << "round " << round;
      ASSERT_EQ(batched.AcceptingRuns(), expected.size())
          << "round " << round;
    }
  }
}

TEST(BatchedUpdates, RandomAutomatonBatchesAgainstMaterialization) {
  for (uint64_t seed : {421u, 431u, 433u}) {
    Rng rng(seed);
    UnrankedTva q = RandomUnrankedTva(rng, 3, 2, 1, 4, 9);
    UnrankedTree t = RandomTree(10, 2, rng);
    TreeEnumerator sequential(t, q);
    TreeEnumerator batched(t, q);
    UnrankedTree mirror = t;
    for (int round = 0; round < 10; ++round) {
      std::vector<Edit> batch =
          RandomTreeBatch(mirror, rng, 1 + rng.Index(8), 2, 14);
      for (const Edit& e : batch) {
        ApplyOk(sequential.document(), Command::Of(e));
      }
      ApplyBatchOk(batched.document(), batch);
      std::optional<std::vector<Assignment>> got = CollectCapped(batched);
      if (!got.has_value()) continue;
      ASSERT_EQ(*got, MaterializeAssignments(mirror, q))
          << "seed " << seed << " round " << round;
      std::optional<std::vector<Assignment>> seq = CollectCapped(sequential);
      ASSERT_TRUE(seq.has_value());
      ASSERT_EQ(*got, *seq) << "seed " << seed << " round " << round;
    }
  }
}

TEST(BatchedUpdates, DeleteOfNodeInsertedWithinBatch) {
  // A node created and deleted inside one batch must leave no trace: its
  // boxes are freed (or never built) at commit.
  UnrankedTree t = UnrankedTree::Parse("(a (b) (b))");
  UnrankedTva q = QuerySelectLabel(2, 1);
  TreeEnumerator e(t, q);
  NodeId root = e.tree().root();
  e.BeginBatch();
  NodeId u;
  e.InsertFirstChild(root, 1, &u);
  NodeId v;
  e.InsertRightSibling(u, 1, &v);
  e.DeleteLeaf(u);
  UpdateStats stats = e.CommitBatch();
  EXPECT_GT(stats.boxes_recomputed, 0u);
  EXPECT_EQ(e.EnumerateAll().size(), 3u);  // two old b-nodes + v
}

// a*<x:b>(a|b)* — select every b position (same query as the word tests).
Wva SelectBWva() {
  Wva q(2, 2, 1);
  q.AddInitial(0);
  q.AddTransition(0, 0, 0, 0);
  q.AddTransition(0, 1, 0, 0);
  q.AddTransition(0, 1, 1, 1);
  q.AddTransition(1, 0, 0, 1);
  q.AddTransition(1, 1, 0, 1);
  q.AddFinal(1);
  return q;
}

TEST(BatchedUpdates, WordBatchEqualsSequentialEqualsFreshRebuild) {
  Wva q = SelectBWva();
  Rng rng(443);
  Word ref;
  for (int i = 0; i < 12; ++i) ref.push_back(static_cast<Label>(rng.Index(2)));
  WordEnumerator sequential(ref, q);
  WordEnumerator batched(ref, q);
  for (int round = 0; round < 15; ++round) {
    size_t k = 1 + rng.Index(8);
    batched.BeginBatch();
    for (size_t i = 0; i < k; ++i) {
      switch (rng.Index(4)) {
        case 0: {
          size_t pos = rng.Index(ref.size() + 1);
          Label l = static_cast<Label>(rng.Index(2));
          ref.insert(ref.begin() + pos, l);
          sequential.Insert(pos, l);
          batched.Insert(pos, l);
          break;
        }
        case 1: {
          size_t pos = rng.Index(ref.size());
          Label l = static_cast<Label>(rng.Index(2));
          ref[pos] = l;
          sequential.Replace(pos, l);
          batched.Replace(pos, l);
          break;
        }
        case 2: {
          if (ref.size() <= 1) break;
          size_t pos = rng.Index(ref.size());
          ref.erase(ref.begin() + pos);
          sequential.Erase(pos);
          batched.Erase(pos);
          break;
        }
        default: {
          size_t begin = rng.Index(ref.size());
          size_t end = begin + 1 + rng.Index(ref.size() - begin);
          size_t dst = rng.Index(ref.size() - (end - begin) + 1);
          Word factor(ref.begin() + begin, ref.begin() + end);
          ref.erase(ref.begin() + begin, ref.begin() + end);
          ref.insert(ref.begin() + dst, factor.begin(), factor.end());
          sequential.MoveRange(begin, end, dst);
          batched.MoveRange(begin, end, dst);
          break;
        }
      }
    }
    batched.CommitBatch();
    WordEnumerator fresh(ref, q);  // independent static-preprocessing oracle
    std::vector<Assignment> expected = fresh.EnumerateAllByPosition();
    ASSERT_EQ(sequential.EnumerateAllByPosition(), expected)
        << "round " << round;
    ASSERT_EQ(batched.EnumerateAllByPosition(), expected)
        << "round " << round;
    ASSERT_EQ(expected, q.BruteForceAssignments(ref)) << "round " << round;
  }
}

// ---- Reads inside an open batch --------------------------------------------
//
// Between BeginBatch and CommitBatch the tree and word engines answer as
// before the batch: they read their last committed snapshot.

// Everything the read surface of a TreeEnumerator or WordEnumerator
// returns.
struct EngineReads {
  std::vector<Assignment> all;
  std::vector<Assignment> via_cursor;
  bool has_answer = false;

  bool operator==(const EngineReads& o) const {
    return all == o.all && via_cursor == o.via_cursor &&
           has_answer == o.has_answer;
  }
};

template <typename E>
EngineReads ReadEngine(const E& e) {
  EngineReads r;
  r.all = e.EnumerateAll();
  typename E::Cursor c = e.Enumerate();
  Assignment a;
  while (c.Next(&a)) r.via_cursor.push_back(a);
  std::sort(r.via_cursor.begin(), r.via_cursor.end());
  r.has_answer = e.HasAnswer();
  return r;
}

TEST(BatchedUpdates, MidBatchReadsReturnPreBatchAnswers) {
  const UnrankedTva q = QueryMarkedAncestor(3, 1, 2);
  const Wva wq = SelectBWva();
  for (uint64_t seed = 0; seed < 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(4001 + seed);
    UnrankedTree t = RandomTree(64, 3, rng);
    Word w;
    for (int i = 0; i < 64; ++i) w.push_back(static_cast<Label>(rng.Index(2)));
    TreeEnumerator dynamic(t, q);
    dynamic.EnableCounting();
    WordEnumerator word(w, wq);

    UnrankedTree mirror = t;
    std::vector<Edit> tree_batch = RandomTreeBatch(mirror, rng, 12, 3, 200);
    const EngineReads before = ReadEngine(dynamic);
    const uint64_t accepting = dynamic.AcceptingRuns();
    dynamic.BeginBatch();
    for (size_t i = 0; i < tree_batch.size(); ++i) {
      ApplyOk(dynamic.document(), Command::Of(tree_batch[i]));
      ASSERT_TRUE(ReadEngine(dynamic) == before) << "after edit " << i;
      ASSERT_EQ(dynamic.AcceptingRuns(), accepting) << "after edit " << i;
    }
    dynamic.CommitBatch();

    // The word engine, edited by position; `after` is the ground truth.
    Word after = w;
    const EngineReads word_before = ReadEngine(word);
    word.BeginBatch();
    for (int i = 0; i < 12; ++i) {
      size_t pos = rng.Index(after.size());
      Label l = static_cast<Label>(rng.Index(2));
      switch (rng.Index(3)) {
        case 0:
          after[pos] = l;
          word.Replace(pos, l);
          break;
        case 1:
          after.insert(after.begin() + pos + 1, l);
          word.Insert(pos + 1, l);
          break;
        default:
          after.erase(after.begin() + pos);
          word.Erase(pos);
          break;
      }
      ASSERT_TRUE(ReadEngine(word) == word_before) << "after word edit " << i;
    }
    word.CommitBatch();

    // Each batch took effect at its commit.
    std::vector<Assignment> expected = MaterializeAssignments(mirror, q);
    EXPECT_EQ(dynamic.EnumerateAll(), expected);
    EXPECT_EQ(dynamic.AcceptingRuns(), expected.size());
    EXPECT_EQ(word.EnumerateAllByPosition(),
              WordEnumerator(after, wq).EnumerateAllByPosition());
  }
}

}  // namespace
}  // namespace treenum
