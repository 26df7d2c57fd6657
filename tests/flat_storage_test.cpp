// Property tests for the arena/CSR circuit storage: long mixed edit
// scripts cross-checked against a StaticEngine built afresh over the
// script's mirror tree, arena
// invariant validation along the way, the steady-state allocation-freedom
// guarantee (via the alloc gauge hooks linked into this binary), and the
// TREENUM_CHECK width limit.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "automata/query_library.h"
#include "automata/regex_spanner.h"
#include "baseline/static_engine.h"
#include "core/document.h"
#include "core/engine.h"
#include "core/tree_enumerator.h"
#include "core/word_enumerator.h"
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
    serving::CommandScript script(tree, 997 + rng.Index(1000),
                                  serving::WorkloadOptions{3});

    for (int step = 0; step < 220; ++step) {
      const Command c = Command::Of(script.NextEdit());
      ApplyOk(indexed.document(), c);
      ApplyOk(naive.document(), c);
      ASSERT_EQ(indexed.circuit().ValidateStorage(), "") << "step " << step;
      ASSERT_EQ(indexed.index().ValidateStorage(), "") << "step " << step;
      if (step % 10 == 9) {
        std::vector<Assignment> expected =
            StaticEngine(script.mirror(), q).EnumerateAll();
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
  serving::CommandScript script(tree, 4242, serving::WorkloadOptions{3});

  for (int round = 0; round < 12; ++round) {
    std::vector<Edit> edits;
    for (int i = 0; i < 24; ++i) edits.push_back(script.NextEdit());
    ApplyBatchOk(indexed.document(), edits);
    ASSERT_EQ(indexed.circuit().ValidateStorage(), "") << "round " << round;
    ASSERT_EQ(indexed.index().ValidateStorage(), "") << "round " << round;
    ASSERT_EQ(indexed.EnumerateAll(),
              StaticEngine(script.mirror(), q).EnumerateAll())
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

// Enumeration-delay counterpart: a box-enum pushes and pops its frames in
// place on the cursor's word stack, so once one traversal has grown the
// stack to its high-water mark, the next traversal from the same start
// performs zero heap allocations per produced relation.
TEST(FlatStorage, BoxEnumDelayIsAllocationFreeAfterWarmup) {
  ASSERT_TRUE(AllocGaugeActive());

  Rng rng(149);
  UnrankedTree tree = RandomTree(300, 3, rng);
  TreeEnumerator e(tree, QueryMarkedAncestor(3, 1, 2), BoxEnumMode::kIndexed);
  TermNodeId root = e.term().root();
  size_t nu = e.circuit().box(root).num_unions();
  ASSERT_GT(nu, 0u);

  for (BoxEnumMode mode : {BoxEnumMode::kIndexed, BoxEnumMode::kNaive}) {
    EnumStack stack(&e.circuit(), &e.index(), mode);
    auto traverse = [&](std::vector<TermNodeId>* boxes) {
      stack.Rewind(0);
      // Γ = every ∪-gate at the root, position u for gate u.
      const uint32_t pos = stack.Push(nu);
      for (size_t u = 0; u < nu; ++u) stack.at(pos)[u] = u;
      BoxEnum boxes_enum;
      boxes_enum.Start(&stack, root, pos, nu);
      while (boxes_enum.Next(&stack)) boxes->push_back(boxes_enum.box());
    };
    std::vector<TermNodeId> warm_boxes;
    traverse(&warm_boxes);
    ASSERT_FALSE(warm_boxes.empty());

    std::vector<TermNodeId> measured_boxes;
    measured_boxes.reserve(warm_boxes.size());  // keep the gauge on the stack
    AllocGaugeScope gauge;
    traverse(&measured_boxes);
    EXPECT_EQ(gauge.allocs(), 0u)
        << "a warm box-enum traversal must not touch the heap";
    EXPECT_EQ(measured_boxes, warm_boxes);
  }
}

// Reads through the public snapshot cursor: the cursor's levels, frames and
// agendas live on its own word stack and SnapshotCursor::Next refills the
// caller's Assignment in place, so past the first answer no answer touches
// the heap. `cursor` is a fresh read of any cursor type.
template <typename Cursor>
void ExpectReadAllocationFree(Cursor& cursor, size_t expected_answers,
                              const std::string& what) {
  Assignment a;
  ASSERT_TRUE(cursor.Next(&a)) << what;
  size_t answers = 1;
  AllocGaugeScope gauge;
  while (cursor.Next(&a)) ++answers;
  EXPECT_EQ(gauge.allocs(), 0u)
      << what << ": allocations after the first of " << answers << " answers";
  EXPECT_EQ(answers, expected_answers) << what;
}

TEST(FlatStorage, TreeReadsAreAllocationFreeAfterFirstAnswer) {
  ASSERT_TRUE(AllocGaugeActive());
  Rng rng(151);
  UnrankedTree tree = RandomTree(300, 3, rng);
  const std::pair<const char*, UnrankedTva> queries[] = {
      {"marked-ancestor", QueryMarkedAncestor(3, 1, 2)},
      {"descendant-pairs", QueryDescendantPairs(3, 0, 1)}};
  for (const auto& [name, q] : queries) {
    for (BoxEnumMode mode : {BoxEnumMode::kIndexed, BoxEnumMode::kNaive}) {
      TreeEnumerator e(tree, q, mode);
      const size_t answers = e.EnumerateAll().size();
      ASSERT_GT(answers, 1u) << name;
      TreeEnumerator::Cursor cursor = e.Enumerate();
      ExpectReadAllocationFree(cursor, answers,
                               std::string(name) + (mode == BoxEnumMode::kNaive
                                                        ? " naive"
                                                        : " indexed"));
    }
  }
}

TEST(FlatStorage, WordReadsAreAllocationFreeAfterFirstAnswer) {
  ASSERT_TRUE(AllocGaugeActive());
  Rng rng(157);
  std::string letters;
  for (int i = 0; i < 200; ++i) {
    letters += static_cast<char>('a' + rng.Index(3));
  }
  const Wva spanner = CompileRegexSpanner(".*<0:a>.*<1:c>.*", 3, 2);
  for (BoxEnumMode mode : {BoxEnumMode::kIndexed, BoxEnumMode::kNaive}) {
    WordEnumerator e(ToWord(letters), spanner, mode);
    const size_t answers = e.EnumerateAll().size();
    ASSERT_GT(answers, 1u);
    WordEnumerator::Cursor cursor = e.Enumerate();
    ExpectReadAllocationFree(
        cursor, answers,
        mode == BoxEnumMode::kNaive ? "spanner naive" : "spanner indexed");
  }
}

// A whole by-value read up to its first answer: the pin (no allocation),
// the cursor's first storage block, and the fresh Assignment's singleton.
TEST(FlatStorage, FreshEnumerateReadAllocatesAtMostTwice) {
  ASSERT_TRUE(AllocGaugeActive());
  Rng rng(163);
  UnrankedTree tree = RandomTree(300, 3, rng);
  TreeEnumerator e(tree, QueryMarkedAncestor(3, 1, 2));
  ASSERT_FALSE(e.EnumerateAll().empty());

  uint64_t allocs = 0;
  {
    Assignment a;
    AllocGaugeScope gauge;
    TreeEnumerator::Cursor cursor = e.Enumerate();
    ASSERT_TRUE(cursor.Next(&a));
    allocs = gauge.allocs();
  }
  EXPECT_LE(allocs, 2u) << "allocations before the first answer";
}

// The same read through DynamicDocument::MakeCursorAt, which adds the
// unique_ptr that holds the cursor.
TEST(FlatStorage, FreshPublicReadAllocatesAtMostThreeTimes) {
  ASSERT_TRUE(AllocGaugeActive());
  Rng rng(163);
  DynamicDocument doc(RandomTree(300, 3, rng), 3);
  const DynamicDocument::QueryHandle h =
      doc.Register(QueryMarkedAncestor(3, 1, 2));
  ASSERT_FALSE(doc.EnumerateAt(doc.CurrentSnapshot(), h).empty());

  uint64_t allocs = 0;
  {
    Assignment a;
    AllocGaugeScope gauge;
    std::unique_ptr<Engine::Cursor> cursor =
        doc.MakeCursorAt(doc.CurrentSnapshot(), h);
    ASSERT_TRUE(cursor->Next(&a));
    allocs = gauge.allocs();
  }
  EXPECT_LE(allocs, 3u) << "allocations before the first answer";
}

// The Boolean answer tests the root box's state masks in place.
TEST(FlatStorage, HasAnswerAtIsAllocationFree) {
  ASSERT_TRUE(AllocGaugeActive());
  Rng rng(167);
  // The second tree has no label 2, so its query has no answer.
  const std::pair<UnrankedTree, UnrankedTva> cases[] = {
      {RandomTree(300, 3, rng), QueryMarkedAncestor(3, 1, 2)},
      {RandomTree(300, 2, rng), QuerySelectLabel(3, 2)}};
  for (const auto& [tree, q] : cases) {
    TreeEnumerator e(tree, q);
    const SnapshotRef snap = e.CurrentSnapshot();
    const bool expected = !e.EnumerateAll().empty();
    AllocGaugeScope gauge;
    const bool has = e.HasAnswerAt(snap);
    EXPECT_EQ(gauge.allocs(), 0u) << "HasAnswerAt must not allocate";
    EXPECT_EQ(has, expected);
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
