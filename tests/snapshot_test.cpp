// Tests for the copy-on-write snapshot layer (core/snapshot.h and the
// DynamicDocument snapshot surface): published snapshots are immutable
// versions — old ones keep answering with their pre-edit results
// (time-travel) while the writer edits; cursors co-own their pin; the
// epoch gate rejects snapshots that predate a query's registration; and
// steady-state path-copying edits stay allocation-free (retired snapshot
// roots recycle node versions through the term's free list).
//
// Concurrency is exercised separately in snapshot_stress_test.cpp; these
// tests pin the single-threaded semantics the stress test relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "automata/query_library.h"
#include "automata/regex_spanner.h"
#include "baseline/static_engine.h"
#include "core/document.h"
#include "core/tree_enumerator.h"
#include "core/word_enumerator.h"
#include "test_util.h"
#include "util/alloc_gauge.h"

namespace treenum {
namespace {

Wva SomeBPosition() {
  // a*<x:b>(a|b)* — select every b position.
  Wva a(2, 2, 1);
  a.AddInitial(0);
  a.AddTransition(0, 0, 0, 0);
  a.AddTransition(0, 1, 0, 0);
  a.AddTransition(0, 1, 1, 1);
  a.AddTransition(1, 0, 0, 1);
  a.AddTransition(1, 1, 0, 1);
  a.AddFinal(1);
  return a;
}

// ---- Time travel ----

TEST(Snapshot, TreeTimeTravelKeepsPreEditAnswers) {
  Rng rng(101);
  UnrankedTree tree = RandomTree(50, 3, rng);
  TreeEnumerator e(tree, QuerySelectLabel(3, 1));

  SnapshotRef s0 = e.CurrentSnapshot();
  ASSERT_TRUE(s0);
  std::vector<Assignment> before = e.EnumerateAll();
  EXPECT_EQ(e.EnumerateAt(s0), before) << "current snapshot == current root";
  EXPECT_EQ(e.HasAnswerAt(s0), !before.empty());

  StaticEngine oracle(tree, QuerySelectLabel(3, 1));
  serving::CommandScript script(tree, 7, serving::WorkloadOptions{3});
  for (int i = 0; i < 60; ++i) {
    Edit ed = script.NextEdit();
    e.document().ApplyEdit(ed);
    oracle.ApplyEdit(ed);
  }

  // The old snapshot still answers with the pre-edit assignment set and
  // still decodes to the pre-edit tree; the new snapshot tracks the head.
  EXPECT_EQ(e.EnumerateAt(s0), before);
  EXPECT_EQ(e.term().DecodeAt(s0.root()), tree);
  SnapshotRef s1 = e.CurrentSnapshot();
  EXPECT_GT(s1.epoch(), s0.epoch());
  EXPECT_EQ(e.EnumerateAt(s1), e.EnumerateAll());
  EXPECT_EQ(e.EnumerateAt(s1), oracle.EnumerateAll());
}

TEST(Snapshot, WordTimeTravelKeepsPreEditAnswers) {
  WordEnumerator e(ToWord("abab"), SomeBPosition());
  SnapshotRef s0 = e.CurrentSnapshot();
  std::vector<Assignment> before = e.EnumerateAll();
  ASSERT_EQ(before.size(), 2u);

  e.Replace(1, 0);  // abab -> aaab: kills the first answer
  e.Insert(0, 1);   // -> baaab
  e.Erase(4);       // -> baaa
  EXPECT_EQ(e.EnumerateAll().size(), 1u);

  // Stable position ids survive the edits, so the old snapshot's answers
  // compare exactly.
  EXPECT_EQ(e.EnumerateAt(s0), before);
  EXPECT_EQ(e.EnumerateAt(e.CurrentSnapshot()), e.EnumerateAll());
}

// Every committed version can be pinned and all pins stay simultaneously
// readable; a version's answers match a StaticEngine replayed to the same
// edit (snapshot epochs count publishes: the constructor publishes epoch 0,
// edit k publishes epoch k).
TEST(Snapshot, EveryVersionRemainsReadableAgainstOracle) {
  Rng rng(103);
  UnrankedTree tree = RandomTree(40, 3, rng);
  TreeEnumerator e(tree, QueryMarkedAncestor(3, 1, 2));
  StaticEngine oracle(tree, QueryMarkedAncestor(3, 1, 2));
  serving::CommandScript script(tree, 17, serving::WorkloadOptions{3});

  std::vector<SnapshotRef> pins;
  std::vector<std::vector<Assignment>> expected;
  pins.push_back(e.CurrentSnapshot());
  expected.push_back(oracle.EnumerateAll());
  for (int k = 1; k <= 25; ++k) {
    Edit ed = script.NextEdit();
    e.document().ApplyEdit(ed);
    oracle.ApplyEdit(ed);
    pins.push_back(e.CurrentSnapshot());
    expected.push_back(oracle.EnumerateAll());
    EXPECT_EQ(pins.back().epoch(), static_cast<uint64_t>(k));
  }
  // All 26 versions are pinned at once; check them newest-first so stale
  // reads would surface as mismatches against the already-checked head.
  for (size_t k = pins.size(); k-- > 0;) {
    EXPECT_EQ(e.EnumerateAt(pins[k]), expected[k]) << "version " << k;
  }
}

// ---- Cursors pin their snapshot ----

TEST(Snapshot, CursorCoOwnsThePin) {
  Rng rng(107);
  UnrankedTree tree = RandomTree(40, 3, rng);
  TreeEnumerator e(tree, QuerySelectLabel(3, 1));
  std::vector<Assignment> before = e.EnumerateAll();

  SnapshotRef s0 = e.CurrentSnapshot();
  std::unique_ptr<Engine::Cursor> cur = e.MakeCursorAt(std::move(s0));
  ASSERT_NE(cur, nullptr);

  // Consume half, then edit: the cursor's snapshot is pinned by the cursor
  // alone (the ref was moved in), so the remaining answers are still the
  // pre-edit ones.
  std::vector<Assignment> got;
  Assignment a;
  for (size_t i = 0; i < before.size() / 2; ++i) {
    ASSERT_TRUE(cur->Next(&a));
    got.push_back(a);
  }
  serving::CommandScript script(tree, 23, serving::WorkloadOptions{3});
  for (int i = 0; i < 30; ++i) e.document().ApplyEdit(script.NextEdit());
  while (cur->Next(&a)) got.push_back(a);
  // Cursor emission order differs from EnumerateAll's; compare as sets.
  std::sort(got.begin(), got.end());
  std::sort(before.begin(), before.end());
  EXPECT_EQ(got, before);
}

// ---- Lifecycle accounting ----

TEST(Snapshot, PublishAndRetireCountsAreExact) {
  Rng rng(109);
  UnrankedTree tree = RandomTree(30, 3, rng);
  DynamicDocument doc(tree, 3);
  doc.Register(QuerySelectLabel(3, 1));

  // The constructor published version 0; nothing is retired yet.
  EXPECT_EQ(doc.snapshots_published(), 1u);
  EXPECT_EQ(doc.live_snapshots(), 1u);

  // Each non-batch edit publishes once. The previous version retires at
  // publish and is drained at the *next* edit, so steady state holds the
  // current version plus the just-retired one.
  std::vector<NodeId> leaves = tree.PreorderNodes();
  ApplyOk(doc, Command::Relabel(leaves[0], 1));
  EXPECT_EQ(doc.snapshots_published(), 2u);
  EXPECT_EQ(doc.live_snapshots(), 2u);
  ApplyOk(doc, Command::Relabel(leaves[0], 2));
  EXPECT_EQ(doc.snapshots_published(), 3u);
  EXPECT_EQ(doc.live_snapshots(), 2u);

  // A held ref keeps its version alive across edits...
  {
    SnapshotRef held = doc.CurrentSnapshot();
    ApplyOk(doc, Command::Relabel(leaves[0], 0));
    ApplyOk(doc, Command::Relabel(leaves[0], 1));
    EXPECT_EQ(doc.live_snapshots(), 3u);  // current + just-retired + held
  }
  // ... and two more edits after release drain it (release retires; the
  // next edit drains; the edit itself retires its predecessor).
  ApplyOk(doc, Command::Relabel(leaves[0], 2));
  ApplyOk(doc, Command::Relabel(leaves[0], 0));
  EXPECT_EQ(doc.live_snapshots(), 2u);

  // A batch publishes once per commit, not once per edit.
  uint64_t published = doc.snapshots_published();
  doc.BeginBatch();
  for (Label l = 0; l < 3; ++l) ApplyOk(doc, Command::Relabel(leaves[1], l));
  doc.CommitBatch();
  EXPECT_EQ(doc.snapshots_published(), published + 1);
}

// ---- Epoch gate ----

// A query registered after edits were applied has no derived state for
// earlier versions: reading an older snapshot through it must trip the
// TREENUM_CHECK gate instead of returning garbage.
TEST(SnapshotDeathTest, RejectsSnapshotsPredatingRegistration) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Rng rng(113);
  UnrankedTree tree = RandomTree(30, 3, rng);
  DynamicDocument doc(tree, 3);
  doc.Register(QuerySelectLabel(3, 1));

  SnapshotRef old_snap = doc.CurrentSnapshot();
  std::vector<NodeId> nodes = tree.PreorderNodes();
  ApplyOk(doc, Command::Relabel(nodes[0], 1));
  ApplyOk(doc, Command::Relabel(nodes[0], 2));

  DynamicDocument::QueryHandle late = doc.Register(QueryMarkedAncestor(3, 1, 2));
  // The snapshot current at registration time (and later ones) work fine.
  StaticEngine oracle(doc.tree(), QueryMarkedAncestor(3, 1, 2));
  EXPECT_EQ(doc.EnumerateAt(doc.CurrentSnapshot(), late),
            oracle.EnumerateAll());
  EXPECT_DEATH(doc.EnumerateAt(old_snap, late), "predates");
}

// ---- Reclamation of retired storage buffers ----

// Growth retires a store's old buffer instead of freeing it, since a reader
// of an older snapshot may still be reading it. The document frees retired
// buffers at the drain before a commit, and only while no snapshot older
// than the current one is pinned; a fresh build frees its own at once.
TEST(Snapshot, RetiredBuffersWaitForOlderPins) {
  Rng rng(131);
  UnrankedTree tree = RandomTree(40, 3, rng);
  const UnrankedTva query = QueryMarkedAncestor(3, 1, 2);
  DynamicDocument doc(tree, 3);
  const DynamicDocument::QueryHandle h = doc.Register(query);
  doc.pipeline(h).EnableCounting();
  const EnumerationPipeline& p = doc.pipeline(h);
  EXPECT_EQ(p.retired_bytes(), 0u) << "a build frees what it retired";

  SnapshotRef old = doc.CurrentSnapshot();
  const std::vector<Assignment> old_answers = doc.EnumerateAt(old, h);
  const uint64_t old_runs = p.AcceptingRunsAt(old);
  // Inserts until the term has grown eightfold, so every store — term,
  // circuit, index and counts, directory and pool — has outgrown its
  // buffer; once anything is retired the gauge must hold while `old` is
  // pinned.
  const size_t grown = 8 * doc.term().id_bound();
  bool retired = false;
  while (doc.term().id_bound() < grown) {
    const std::vector<NodeId> nodes = doc.tree().PreorderNodes();
    ApplyOk(doc, Command::InsertFirstChild(nodes[rng.Index(nodes.size())],
                                           static_cast<Label>(rng.Index(3))));
    retired = retired || doc.stats().retired_bytes > 0;
    ASSERT_TRUE(!retired || doc.stats().retired_bytes > 0)
        << "retired buffers freed while an older snapshot is pinned";
  }
  EXPECT_GT(doc.term().retired_bytes(), 0u);
  EXPECT_GT(p.circuit().retired_bytes(), 0u);
  EXPECT_GT(p.index().retired_bytes(), 0u);
  EXPECT_GT(p.retired_bytes(),
            p.circuit().retired_bytes() + p.index().retired_bytes())
      << "the run counts retired nothing";
  EXPECT_EQ(doc.stats().retired_bytes,
            doc.term().retired_bytes() + p.retired_bytes());
  EXPECT_EQ(doc.EnumerateAt(old, h), old_answers);
  EXPECT_EQ(p.AcceptingRunsAt(old), old_runs);

  // A pipeline registered now holds nothing retired, pin or not.
  const DynamicDocument::QueryHandle fresh =
      doc.Register(QuerySelectLabel(3, 1));
  EXPECT_EQ(doc.pipeline(fresh).retired_bytes(), 0u);

  // Releasing the pin frees nothing by itself; the next commit's drain
  // (here the one BeginBatch runs) frees everything.
  old.Reset();
  EXPECT_GT(doc.stats().retired_bytes, 0u);
  doc.BeginBatch();
  EXPECT_EQ(doc.stats().retired_bytes, 0u);
  ApplyOk(doc, Command::Relabel(doc.tree().root(), 1));
  doc.CommitBatch();
  StaticEngine oracle(doc.tree(), query);
  EXPECT_EQ(doc.EnumerateAt(doc.CurrentSnapshot(), h), oracle.EnumerateAll());
  EXPECT_EQ(p.AcceptingRunsAt(doc.CurrentSnapshot()),
            oracle.EnumerateAll().size());
}

// ---- Steady-state allocation-freeness ----

// Path-copying must not cost the edit path its zero-allocation steady
// state: retired versions feed the free list the next edit's spine copies
// consume, and Snapshot objects recycle through the pool — including when
// a reader pins and releases a snapshot around every edit.
TEST(Snapshot, SteadyStatePathCopyingEditsAreAllocationFree) {
  ASSERT_TRUE(AllocGaugeActive())
      << "snapshot_test must link treenum_alloc_gauge";

  Rng rng(127);
  UnrankedTree tree = RandomTree(150, 3, rng);
  DynamicDocument doc(tree, 3);
  doc.Register(QueryMarkedAncestor(3, 1, 2));

  std::vector<NodeId> targets = tree.PreorderNodes();
  auto run_pass = [&] {
    for (NodeId n : targets) {
      for (Label l = 0; l < 3; ++l) {
        SnapshotRef pin = doc.CurrentSnapshot();
        ApplyOk(doc, Command::Relabel(n, l));
        pin.Reset();
      }
    }
  };
  int pass = 0;
  for (; pass < 8; ++pass) {
    AllocGaugeScope warm;
    run_pass();
    if (warm.allocs() == 0) break;
  }
  ASSERT_LT(pass, 8) << "snapshot churn failed to reach a steady state";
  uint64_t copies = doc.term().path_copies();
  uint64_t recycled = doc.term().nodes_recycled();
  AllocGaugeScope gauge;
  run_pass();
  EXPECT_EQ(gauge.allocs(), 0u)
      << "steady-state path-copying relabels with snapshot churn allocated";
  // Every edit path-copied its spine (the current snapshot always pins the
  // published root) and the copies were fed by recycled node versions.
  EXPECT_GT(doc.term().path_copies(), copies);
  EXPECT_GT(doc.term().nodes_recycled(), recycled);
}

}  // namespace
}  // namespace treenum
