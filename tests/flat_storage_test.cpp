// Property tests for the arena/CSR circuit storage: long mixed edit
// scripts cross-checked against the recompute-from-scratch oracle, arena
// invariant validation along the way, the steady-state allocation-freedom
// guarantee (via the alloc gauge hooks linked into this binary), and the
// TREENUM_CHECK width limit.
#include <gtest/gtest.h>

#include <vector>

#include "automata/query_library.h"
#include "baseline/static_engine.h"
#include "core/engine.h"
#include "core/tree_enumerator.h"
#include "enumeration/box_enum.h"
#include "test_util.h"
#include "util/alloc_gauge.h"

namespace treenum {
namespace {

// Edit scripts come from serving::CommandScript (mirror-tree scripter).

TEST(FlatStorage, LongMixedScriptMatchesRecomputeOracle) {
  Rng rng(131);
  UnrankedTva queries[] = {QuerySelectLabel(3, 1), QueryMarkedAncestor(3, 1, 2),
                           QueryDescendantPairs(3, 0, 1)};
  for (const UnrankedTva& q : queries) {
    UnrankedTree tree = RandomTree(30 + rng.Index(30), 3, rng);
    TreeEnumerator indexed(tree, q, BoxEnumMode::kIndexed);
    TreeEnumerator naive(tree, q, BoxEnumMode::kNaive);
    StaticEngine oracle(tree, q);
    serving::CommandScript script(tree, 997 + rng.Index(1000),
                                  serving::WorkloadOptions{3});

    for (int step = 0; step < 220; ++step) {
      Edit e = script.NextEdit();
      indexed.ApplyEdit(e);
      naive.ApplyEdit(e);
      oracle.ApplyEdit(e);
      ASSERT_EQ(indexed.circuit().ValidateStorage(), "") << "step " << step;
      ASSERT_EQ(indexed.index().ValidateStorage(), "") << "step " << step;
      if (step % 10 == 9) {
        std::vector<Assignment> expected = oracle.EnumerateAll();
        ASSERT_EQ(indexed.EnumerateAll(), expected) << "step " << step;
        ASSERT_EQ(naive.EnumerateAll(), expected) << "step " << step;
      }
    }
  }
}

TEST(FlatStorage, BatchedScriptMatchesRecomputeOracle) {
  Rng rng(137);
  UnrankedTva q = QueryMarkedAncestor(3, 1, 2);
  UnrankedTree tree = RandomTree(60, 3, rng);
  TreeEnumerator indexed(tree, q, BoxEnumMode::kIndexed);
  StaticEngine oracle(tree, q);
  serving::CommandScript script(tree, 4242, serving::WorkloadOptions{3});

  for (int round = 0; round < 12; ++round) {
    std::vector<Edit> edits;
    for (int i = 0; i < 24; ++i) edits.push_back(script.NextEdit());
    indexed.ApplyEdits(edits);
    oracle.ApplyEdits(edits);
    ASSERT_EQ(indexed.circuit().ValidateStorage(), "") << "round " << round;
    ASSERT_EQ(indexed.index().ValidateStorage(), "") << "round " << round;
    ASSERT_EQ(indexed.EnumerateAll(), oracle.EnumerateAll())
        << "round " << round;
  }
}

// The tentpole guarantee: once every (node, label) configuration has been
// seen, a relabel edit refreshes its whole root path — circuit boxes, the
// jump index, and run counts — without a single heap allocation. Runs the
// exact same edit sequence twice: pass one warms the arena spans and
// scratch capacities, pass two must be allocation-free. Covers both modes:
// kNaive maintains circuit + counts, kIndexed additionally the pooled
// jump index.
void CheckRelabelSteadyState(const UnrankedTva& query, BoxEnumMode mode,
                             bool batched) {
  ASSERT_TRUE(AllocGaugeActive())
      << "flat_storage_test must link treenum_alloc_gauge";

  Rng rng(139);
  UnrankedTree tree = RandomTree(200, 3, rng);
  TreeEnumerator e(tree, query, mode);
  e.EnableCounting();

  std::vector<NodeId> targets = tree.PreorderNodes();
  auto run_pass = [&]() {
    if (batched) {
      // One batch per target keeps batches root-path-shaped, like the
      // batched relabel bench.
      for (NodeId n : targets) {
        e.BeginBatch();
        for (Label l = 0; l < 3; ++l) e.Relabel(n, l);
        e.CommitBatch();
      }
    } else {
      for (NodeId n : targets) {
        for (Label l = 0; l < 3; ++l) e.Relabel(n, l);
      }
    }
  };
  // Two warm passes: the first still sees box configurations involving the
  // tree's original labels; after it every label is the cycle's last, so
  // the second pass visits exactly the configurations the measured pass
  // replays, sizing every span and scratch buffer.
  run_pass();
  run_pass();

  AllocGaugeScope gauge;
  run_pass();
  EXPECT_EQ(gauge.allocs(), 0u)
      << "steady-state relabel edits must not touch the heap";

  ASSERT_EQ(e.circuit().ValidateStorage(), "");
  if (mode == BoxEnumMode::kIndexed) {
    ASSERT_EQ(e.index().ValidateStorage(), "");
  }
  // The circuit still answers correctly after all passes.
  StaticEngine oracle(e.tree(), query);
  EXPECT_EQ(e.EnumerateAll(), oracle.EnumerateAll());
}

// The circuit's per-box state masks take ⌈w/64⌉ words: 2 words at w = 77
// (marked ancestor), 3 at w = 173 (ancestor at distance 6).
std::vector<UnrankedTva> SteadyStateQueries() {
  return {QueryMarkedAncestor(3, 1, 2), QueryAncestorAtDistance(3, 0, 6)};
}

TEST(FlatStorage, RelabelSteadyStateIsAllocationFree) {
  for (const UnrankedTva& q : SteadyStateQueries()) {
    CheckRelabelSteadyState(q, BoxEnumMode::kNaive, /*batched=*/false);
  }
}

TEST(FlatStorage, IndexedRelabelSteadyStateIsAllocationFree) {
  for (const UnrankedTva& q : SteadyStateQueries()) {
    CheckRelabelSteadyState(q, BoxEnumMode::kIndexed, /*batched=*/false);
  }
}

TEST(FlatStorage, IndexedBatchedRelabelSteadyStateIsAllocationFree) {
  for (const UnrankedTva& q : SteadyStateQueries()) {
    CheckRelabelSteadyState(q, BoxEnumMode::kIndexed, /*batched=*/true);
  }
}

// Enumeration-delay counterpart: after one warm traversal, re-running a
// box-enum cursor over the same circuit (Reset keeps the warm frame slots
// and scratch) performs zero heap allocations per produced relation —
// the cursors compose into recycled buffers instead of fresh matrices.
TEST(FlatStorage, BoxEnumDelayIsAllocationFreeAfterWarmup) {
  ASSERT_TRUE(AllocGaugeActive());

  Rng rng(149);
  UnrankedTree tree = RandomTree(300, 3, rng);
  TreeEnumerator e(tree, QueryMarkedAncestor(3, 1, 2), BoxEnumMode::kIndexed);
  TermNodeId root = e.term().root();
  size_t nu = e.circuit().box(root).num_unions();
  ASSERT_GT(nu, 0u);
  std::vector<uint32_t> gamma;
  for (uint32_t u = 0; u < nu; ++u) gamma.push_back(u);

  IndexedBoxEnum indexed(&e.index(), root, gamma);
  NaiveBoxEnum naive(&e.circuit(), root, gamma);
  for (BoxEnumCursor* cursor :
       {static_cast<BoxEnumCursor*>(&indexed),
        static_cast<BoxEnumCursor*>(&naive)}) {
    BoxRelation out;
    std::vector<TermNodeId> warm_boxes;
    while (cursor->Next(&out)) warm_boxes.push_back(out.box);
    ASSERT_FALSE(warm_boxes.empty());

    // The relation buffers circulate between the stack slots and the output,
    // so a buffer may land in a spot that needs more capacity than it saw
    // last pass; each such event grows one buffer monotonically, so the
    // capacities reach a fixed point after a few passes.
    int pass = 0;
    for (; pass < 10; ++pass) {
      cursor->Reset(root, gamma);
      AllocGaugeScope warm;
      while (cursor->Next(&out)) {
      }
      if (warm.allocs() == 0) break;
    }
    ASSERT_LT(pass, 10) << "cursor buffers failed to reach a steady state";

    cursor->Reset(root, gamma);
    std::vector<TermNodeId> measured_boxes;
    measured_boxes.reserve(warm_boxes.size());  // keep the gauge on the cursor
    AllocGaugeScope gauge;
    while (cursor->Next(&out)) measured_boxes.push_back(out.box);
    EXPECT_EQ(gauge.allocs(), 0u)
        << "warm box-enum traversal must not touch the heap";
    EXPECT_EQ(measured_boxes, warm_boxes);
  }
}

TEST(FlatStorage, WidthLimitIsChecked) {
  // The old int16_t layout overflowed silently for > 32767 dense gates;
  // the arena layout re-checks the documented bound loudly.
  BinaryTva wide(kMaxCircuitWidth + 1, 1, 1);
  std::vector<uint8_t> kind(kMaxCircuitWidth + 1, 0);
  Term term(TermAlphabet{1});
  EXPECT_DEATH(AssignmentCircuit(&term, &wide, &kind),
               "TREENUM_CHECK failed");
}

}  // namespace
}  // namespace treenum
