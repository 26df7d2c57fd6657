// Tests for the shared-document multi-query layer: N queries registered on
// one DynamicDocument, driven by mixed edit scripts (relabels + structural
// inserts/deletes, sequential and batched), every pipeline cross-checked
// against a per-query recompute-from-scratch oracle; and the allocation
// and threading guarantees the refresh loop relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "automata/query_library.h"
#include "automata/regex_spanner.h"
#include "baseline/static_engine.h"
#include "core/document.h"
#include "core/engine.h"
#include "core/tree_enumerator.h"
#include "core/word_enumerator.h"
#include "test_util.h"
#include "util/alloc_gauge.h"

namespace treenum {
namespace {

// Edit scripts come from serving::CommandScript (mirror-tree scripter).

std::vector<UnrankedTva> TestQueries() {
  std::vector<UnrankedTva> queries;
  queries.push_back(QuerySelectLabel(3, 1));
  queries.push_back(QueryMarkedAncestor(3, 1, 2));
  queries.push_back(QueryDescendantPairs(3, 0, 1));
  queries.push_back(QueryChildOfLabel(3, 0, 2));
  return queries;
}

// ---- Multi-query documents vs per-query oracles ----

TEST(DynamicDocument, SequentialMixedScriptMatchesPerQueryOracles) {
  Rng rng(211);
  std::vector<UnrankedTva> queries = TestQueries();
  UnrankedTree tree = RandomTree(40 + rng.Index(30), 3, rng);

  DynamicDocument doc(tree, 3);
  std::vector<DynamicDocument::QueryHandle> ids;
  std::vector<std::unique_ptr<StaticEngine>> oracles;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    // Mix box-enum modes across the registered queries.
    BoxEnumMode mode =
        qi % 2 == 0 ? BoxEnumMode::kIndexed : BoxEnumMode::kNaive;
    ids.push_back(doc.Register(queries[qi], mode));
    oracles.push_back(std::make_unique<StaticEngine>(tree, queries[qi]));
  }
  ASSERT_EQ(doc.num_queries(), queries.size());

  serving::CommandScript script(tree, 733, serving::WorkloadOptions{3});
  for (int step = 0; step < 200; ++step) {
    Edit e = script.NextEdit();
    doc.ApplyEdit(e);
    for (auto& oracle : oracles) oracle->ApplyEdit(e);
    if (step % 10 == 9) {
      for (size_t qi = 0; qi < ids.size(); ++qi) {
        const EnumerationPipeline& p = doc.pipeline(ids[qi]);
        ASSERT_EQ(p.circuit().ValidateStorage(), "")
            << "query " << qi << " step " << step;
        if (p.mode() == BoxEnumMode::kIndexed) {
          ASSERT_EQ(p.index().ValidateStorage(), "")
              << "query " << qi << " step " << step;
        }
        ASSERT_EQ(p.EnumerateAt(doc.CurrentSnapshot()),
                  oracles[qi]->EnumerateAll())
            << "query " << qi << " step " << step;
      }
    }
  }
}

// Batched commits, cross-checked after every commit.
TEST(DynamicDocument, BatchedCommitsMatchOracles) {
  Rng rng(223);
  std::vector<UnrankedTva> queries = TestQueries();
  UnrankedTree tree = RandomTree(60, 3, rng);

  DynamicDocument doc(tree, 3);
  std::vector<DynamicDocument::QueryHandle> ids;
  std::vector<std::unique_ptr<StaticEngine>> oracles;
  for (const UnrankedTva& q : queries) {
    ids.push_back(doc.Register(q));
    oracles.push_back(std::make_unique<StaticEngine>(tree, q));
  }

  serving::CommandScript script(tree, 4242, serving::WorkloadOptions{3});
  for (int round = 0; round < 12; ++round) {
    std::vector<Edit> edits;
    for (int i = 0; i < 24; ++i) edits.push_back(script.NextEdit());
    doc.ApplyEdits(edits);
    for (auto& oracle : oracles) oracle->ApplyEdits(edits);

    for (size_t qi = 0; qi < queries.size(); ++qi) {
      ASSERT_EQ(doc.EnumerateAt(doc.CurrentSnapshot(), ids[qi]),
                oracles[qi]->EnumerateAll())
          << "query " << qi << " round " << round;
      ASSERT_EQ(doc.pipeline(ids[qi]).circuit().ValidateStorage(), "")
          << "query " << qi << " round " << round;
      ASSERT_EQ(doc.pipeline(ids[qi]).index().ValidateStorage(), "")
          << "query " << qi << " round " << round;
    }
  }
}

// Interleaves sequential edits and batches, with counting enabled on one
// pipeline — the refresh must update counts too.
TEST(DynamicDocument, MixedSequentialAndBatchedWithCounting) {
  Rng rng(227);
  UnrankedTree tree = RandomTree(50, 3, rng);
  DynamicDocument doc(tree, 3);

  DynamicDocument::QueryHandle qa = doc.Register(QueryMarkedAncestor(3, 1, 2));
  DynamicDocument::QueryHandle qb = doc.Register(QuerySelectLabel(3, 0));
  doc.pipeline(qa).EnableCounting();

  StaticEngine oracle_a(tree, QueryMarkedAncestor(3, 1, 2));
  StaticEngine oracle_b(tree, QuerySelectLabel(3, 0));

  serving::CommandScript script(tree, 929, serving::WorkloadOptions{3});
  for (int round = 0; round < 10; ++round) {
    if (round % 2 == 0) {
      for (int i = 0; i < 8; ++i) {
        Edit e = script.NextEdit();
        doc.ApplyEdit(e);
        oracle_a.ApplyEdit(e);
        oracle_b.ApplyEdit(e);
      }
    } else {
      std::vector<Edit> edits;
      for (int i = 0; i < 16; ++i) edits.push_back(script.NextEdit());
      doc.ApplyEdits(edits);
      oracle_a.ApplyEdits(edits);
      oracle_b.ApplyEdits(edits);
    }
    std::vector<Assignment> expected_a = oracle_a.EnumerateAll();
    ASSERT_EQ(doc.EnumerateAt(doc.CurrentSnapshot(), qa), expected_a) << round;
    ASSERT_EQ(doc.EnumerateAt(doc.CurrentSnapshot(), qb),
              oracle_b.EnumerateAll())
        << round;
    // Query-library automata are unambiguous: runs == assignments.
    ASSERT_EQ(doc.pipeline(qa).AcceptingRunsAt(doc.CurrentSnapshot()),
              expected_a.size())
        << round;
  }
}

// Unregistering a query destroys its pipeline; survivors must be
// unaffected and registration after edits must build over the current
// tree. registry_test.cpp checks that later edits refresh only the live
// pipelines.
TEST(DynamicDocument, UnregisterKeepsSurvivorsCorrect) {
  Rng rng(233);
  UnrankedTree tree = RandomTree(40, 3, rng);
  DynamicDocument doc(tree, 3);
  DynamicDocument::QueryHandle qa = doc.Register(QueryMarkedAncestor(3, 1, 2));
  DynamicDocument::QueryHandle qb = doc.Register(QuerySelectLabel(3, 1));
  StaticEngine oracle(tree, QuerySelectLabel(3, 1));

  serving::CommandScript script(tree, 311, serving::WorkloadOptions{3});
  for (int i = 0; i < 20; ++i) {
    Edit e = script.NextEdit();
    doc.ApplyEdit(e);
    oracle.ApplyEdit(e);
  }
  EXPECT_EQ(doc.num_queries(), 2u);
  doc.Unregister(qa);
  EXPECT_EQ(doc.num_queries(), 1u);
  EXPECT_FALSE(doc.IsRegistered(qa));
  EXPECT_TRUE(doc.IsRegistered(qb));

  for (int i = 0; i < 40; ++i) {
    Edit e = script.NextEdit();
    doc.ApplyEdit(e);
    oracle.ApplyEdit(e);
  }
  EXPECT_EQ(doc.EnumerateAt(doc.CurrentSnapshot(), qb), oracle.EnumerateAll());

  // Registering after the edits serves the *current* tree: a fresh
  // pipeline built from the plan the query cache kept.
  DynamicDocument::QueryHandle qc = doc.Register(QueryMarkedAncestor(3, 1, 2));
  StaticEngine fresh(doc.tree(), QueryMarkedAncestor(3, 1, 2));
  EXPECT_EQ(doc.EnumerateAt(doc.CurrentSnapshot(), qc), fresh.EnumerateAll());
}

// The thin engine views and a shared document must agree edit for edit.
TEST(DynamicDocument, AgreesWithSingleQueryEngines) {
  Rng rng(239);
  std::vector<UnrankedTva> queries = TestQueries();
  UnrankedTree tree = RandomTree(45, 3, rng);

  DynamicDocument doc(tree, 3);
  std::vector<DynamicDocument::QueryHandle> ids;
  std::vector<std::unique_ptr<TreeEnumerator>> engines;
  for (const UnrankedTva& q : queries) {
    ids.push_back(doc.Register(q));
    engines.push_back(std::make_unique<TreeEnumerator>(tree, q));
  }

  serving::CommandScript script(tree, 541, serving::WorkloadOptions{3});
  for (int step = 0; step < 120; ++step) {
    Edit e = script.NextEdit();
    doc.ApplyEdit(e);
    for (auto& engine : engines) engine->ApplyEdit(e);
    if (step % 15 == 14) {
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        ASSERT_EQ(doc.EnumerateAt(doc.CurrentSnapshot(), ids[qi]),
                  engines[qi]->EnumerateAll())
            << "query " << qi << " step " << step;
      }
    }
  }
}

// ---- Word documents ----

// A spanner over {a, b} selecting every position holding `which`.
Wva SelectLetter(Label which) {
  Wva a(2, 2, 1);
  a.AddInitial(0);
  for (Label l = 0; l < 2; ++l) a.AddTransition(0, l, 0, 0);
  a.AddTransition(0, which, 1, 1);
  for (Label l = 0; l < 2; ++l) a.AddTransition(1, l, 0, 1);
  a.AddFinal(1);
  return a;
}

TEST(DynamicDocument, WordDocumentServesMultipleSpanners) {
  // Two spanners over {a, b}: every b position, and every a position.
  Wva select_b = SelectLetter(1);
  Wva select_a = SelectLetter(0);

  Rng rng(241);
  Word ref;
  for (int i = 0; i < 24; ++i) ref.push_back(static_cast<Label>(rng.Index(2)));

  DynamicDocument doc(ref, 2);
  DynamicDocument::QueryHandle qb = doc.Register(select_b);
  DynamicDocument::QueryHandle qa = doc.Register(select_a);

  auto by_position = [&](DynamicDocument::QueryHandle id) {
    std::vector<Assignment> out;
    for (const Assignment& s : doc.EnumerateAt(doc.CurrentSnapshot(), id)) {
      Assignment b;
      for (const Singleton& sg : s.singletons()) {
        b.Add(Singleton{sg.var, static_cast<NodeId>(
                                    doc.word_encoding().PositionOf(sg.node))});
      }
      b.Normalize();
      out.push_back(std::move(b));
    }
    std::sort(out.begin(), out.end());
    return out;
  };

  for (int step = 0; step < 120; ++step) {
    switch (rng.Index(3)) {
      case 0: {
        size_t pos = rng.Index(ref.size() + 1);
        Label l = static_cast<Label>(rng.Index(2));
        ref.insert(ref.begin() + pos, l);
        doc.Insert(pos, l);
        break;
      }
      case 1: {
        if (ref.size() <= 1) break;
        size_t pos = rng.Index(ref.size());
        ref.erase(ref.begin() + pos);
        doc.Erase(pos);
        break;
      }
      default: {
        size_t pos = rng.Index(ref.size());
        Label l = static_cast<Label>(rng.Index(2));
        ref[pos] = l;
        doc.Replace(pos, l);
        break;
      }
    }
    if (step % 10 == 9) {
      // Cross-check against fresh single-query engines on the current word
      // (brute force is exponential in |w|, so only for short words).
      ASSERT_EQ(by_position(qb),
                WordEnumerator(ref, select_b).EnumerateAllByPosition())
          << "step " << step;
      ASSERT_EQ(by_position(qa),
                WordEnumerator(ref, select_a).EnumerateAllByPosition())
          << "step " << step;
      if (ref.size() <= 10) {
        ASSERT_EQ(by_position(qb), select_b.BruteForceAssignments(ref))
            << "step " << step;
      }
    }
  }
}

// ---- Allocation / threading guarantees behind the refresh loop ----

// Steady-state relabels through the document layer allocate nothing, with
// one pipeline and with a second, distinct pipeline refreshed beside it
// (the multi-query shape: each edit runs the refresh loop twice).
TEST(DynamicDocument, SteadyStateRelabelsAreAllocationFree) {
  ASSERT_TRUE(AllocGaugeActive())
      << "document_test must link treenum_alloc_gauge";

  for (size_t pipelines : {1, 2}) {
    Rng rng(251);
    UnrankedTree tree = RandomTree(150, 3, rng);
    DynamicDocument doc(tree, 3);
    DynamicDocument::QueryHandle q =
        doc.Register(QueryMarkedAncestor(3, 1, 2));
    doc.pipeline(q).EnableCounting();
    if (pipelines == 2) doc.Register(QueryChildOfLabel(3, 0, 2));
    ASSERT_EQ(doc.num_pipelines(), pipelines);

    std::vector<NodeId> targets = tree.PreorderNodes();
    auto run_pass = [&](bool batched) {
      for (NodeId n : targets) {
        if (batched) doc.BeginBatch();
        for (Label l = 0; l < 3; ++l) doc.Relabel(n, l);
        if (batched) doc.CommitBatch();
      }
    };
    for (bool batched : {false, true}) {
      // Warm until the pool spans and scratch capacities reach their fixed
      // point (buffer recycling can circulate spans for a few passes; see
      // the box-enum steady-state note in flat_storage_test).
      int pass = 0;
      for (; pass < 8; ++pass) {
        AllocGaugeScope warm;
        run_pass(batched);
        if (warm.allocs() == 0) break;
      }
      ASSERT_LT(pass, 8) << "relabel passes failed to reach a steady state";
      AllocGaugeScope gauge;
      run_pass(batched);
      EXPECT_EQ(gauge.allocs(), 0u)
          << (batched ? "batched" : "sequential") << " steady-state relabels "
          << "through the document layer allocated, pipelines=" << pipelines;
    }
  }
}

// The registry must not cost the steady state anything: duplicate
// registrations collapse onto one pipeline, so relabels with Q duplicate
// handles do exactly the single-query work — and stay allocation-free
// (the registry is touched only at Register/Unregister time, never on the
// edit path).
TEST(DynamicDocument, DeduplicatedSteadyStateRelabelsAreAllocationFree) {
  ASSERT_TRUE(AllocGaugeActive())
      << "document_test must link treenum_alloc_gauge";

  Rng rng(257);
  UnrankedTree tree = RandomTree(150, 3, rng);
  DynamicDocument doc(tree, 3);
  DynamicDocument::QueryHandle q1 = doc.Register(QueryMarkedAncestor(3, 1, 2));
  DynamicDocument::QueryHandle q2 = doc.Register(QueryMarkedAncestor(3, 1, 2));
  ASSERT_EQ(&doc.pipeline(q1), &doc.pipeline(q2));
  ASSERT_EQ(doc.num_pipelines(), 1u);

  std::vector<NodeId> targets = tree.PreorderNodes();
  auto run_pass = [&] {
    for (NodeId n : targets) {
      for (Label l = 0; l < 3; ++l) doc.Relabel(n, l);
    }
  };
  int pass = 0;
  for (; pass < 8; ++pass) {
    AllocGaugeScope warm;
    run_pass();
    if (warm.allocs() == 0) break;
  }
  ASSERT_LT(pass, 8) << "relabel passes failed to reach a steady state";
  AllocGaugeScope gauge;
  run_pass();
  EXPECT_EQ(gauge.allocs(), 0u)
      << "steady-state relabels through the registry allocated";
}

// Word point edits end in Term::EndEdit and reach the pipelines through
// the same dispatch as every other edit: with a reader pin held across
// each round of Replace / Insert / Erase, the steady state must still
// allocate nothing (position ids and node versions recycle).
TEST(DynamicDocument, WordPointEditsWithPinsAreAllocationFree) {
  ASSERT_TRUE(AllocGaugeActive())
      << "document_test must link treenum_alloc_gauge";

  Rng rng(263);
  Word w;
  for (int i = 0; i < 150; ++i) w.push_back(static_cast<Label>(rng.Index(2)));
  DynamicDocument doc(w, 2);
  doc.Register(SelectLetter(1));

  // Every round keeps the length: each insert is paired with an erase.
  auto run_pass = [&] {
    for (size_t pos = 0; pos < w.size(); ++pos) {
      SnapshotRef pin = doc.CurrentSnapshot();
      doc.Replace(pos, static_cast<Label>(pos % 2));
      doc.Insert(pos, 1);
      doc.Erase(pos + 1);
      pin.Reset();
    }
  };
  int pass = 0;
  for (; pass < 8; ++pass) {
    AllocGaugeScope warm;
    run_pass();
    if (warm.allocs() == 0) break;
  }
  ASSERT_LT(pass, 8) << "word edit passes failed to reach a steady state";
  AllocGaugeScope gauge;
  run_pass();
  EXPECT_EQ(gauge.allocs(), 0u)
      << "steady-state word point edits with snapshot pins allocated";
  EXPECT_EQ(doc.size(), w.size());
}

// Word documents edit by position only: the tree edit surface, Edit values
// included, trips its check instead of reading a position as a tree node.
TEST(DocumentDeathTest, WordDocumentRejectsTreeEdits) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  DynamicDocument doc(ToWord("abab"), 2);
  doc.Register(SelectLetter(1));
  EXPECT_DEATH(doc.Relabel(0, 1), "requires a tree document");
  EXPECT_DEATH(doc.InsertRightSibling(0, 1), "requires a tree document");
  EXPECT_DEATH(doc.ApplyEdit(Edit::Relabel(0, 1)),
               "requires a tree document");
}

// Point edits are checked before anything changes: a node that is not
// alive (never allocated, or deleted), a label outside the document
// alphabet, or a word position out of range trips its check.
TEST(DocumentDeathTest, EditsRejectUnknownNodesLabelsAndPositions) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Rng rng(12345);
  DynamicDocument doc(RandomTree(10, 3, rng), 3);
  doc.Register(QuerySelectLabel(3, 1));
  const NodeId root = doc.tree().root();
  const NodeId child = doc.tree().children(root).front();
  NodeId deleted = kNoNode;
  doc.InsertFirstChild(root, 0, &deleted);
  doc.DeleteLeaf(deleted);
  EXPECT_DEATH(doc.Relabel(12345, 1), "unknown node");
  EXPECT_DEATH(doc.Relabel(deleted, 1), "unknown node");
  EXPECT_DEATH(doc.InsertFirstChild(deleted, 1), "unknown node");
  EXPECT_DEATH(doc.InsertRightSibling(12345, 1), "unknown node");
  EXPECT_DEATH(doc.DeleteLeaf(deleted), "unknown node");
  EXPECT_DEATH(doc.Relabel(root, 77), "unknown label");
  EXPECT_DEATH(doc.InsertFirstChild(root, 3), "unknown label");
  EXPECT_DEATH(doc.ApplyEdit(Edit::InsertRightSibling(child, 3)),
               "unknown label");

  DynamicDocument word(ToWord("abc"), 3);
  EXPECT_DEATH(word.Replace(3, 1), "position out of range");
  EXPECT_DEATH(word.Insert(4, 1), "position out of range");
  EXPECT_DEATH(word.Erase(3), "position out of range");
  EXPECT_DEATH(word.Replace(0, 3), "unknown label");
  EXPECT_DEATH(word.Insert(3, 77), "unknown label");
}

// Structural transactions are checked before anything changes too: the
// moved, deleted or extracted node and the destination must be alive, the
// grafted subtree must exist in its source tree and use only document
// labels, and a word range must lie inside the word (a move's destination
// inside what remains once the range is cut out).
TEST(DocumentDeathTest, TransactionsRejectUnknownNodesLabelsAndRanges) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Rng rng(12345);
  DynamicDocument doc(RandomTree(10, 3, rng), 3);
  doc.Register(QuerySelectLabel(3, 1));
  const NodeId root = doc.tree().root();
  const NodeId child = doc.tree().children(root).front();
  NodeId deleted = kNoNode;
  doc.InsertFirstChild(root, 0, &deleted);
  doc.DeleteLeaf(deleted);
  UnrankedTree src(0);
  src.AppendChild(src.root(), 1);
  UnrankedTree foreign(0);
  foreign.AppendChild(foreign.root(), 77);
  UnrankedTree extracted(0);
  EXPECT_DEATH(doc.SubtreeMove(12345, root), "unknown node");
  EXPECT_DEATH(doc.SubtreeMove(deleted, root), "unknown node");
  EXPECT_DEATH(doc.SubtreeMove(child, 12345), "unknown node");
  EXPECT_DEATH(doc.SubtreeDelete(12345), "unknown node");
  EXPECT_DEATH(doc.SubtreeExtract(12345, &extracted), "unknown node");
  EXPECT_DEATH(doc.GraftSubtree(src, 12345, root), "unknown node");
  EXPECT_DEATH(doc.GraftSubtree(src, src.root(), 12345), "unknown node");
  EXPECT_DEATH(doc.GraftSubtree(foreign, foreign.root(), root),
               "unknown label");

  DynamicDocument word(ToWord("ababa"), 2);
  word.Register(SelectLetter(1));
  Word cut;
  EXPECT_DEATH(word.MoveRange(3, 1, 0), "range out of bounds");
  EXPECT_DEATH(word.MoveRange(1, 3, 9), "range out of bounds");
  EXPECT_DEATH(word.MoveRange(0, 2, 4), "range out of bounds");
  EXPECT_DEATH(word.EraseRange(4, 8), "range out of bounds");
  EXPECT_DEATH(word.ExtractRange(4, 8, &cut), "range out of bounds");
  EXPECT_DEATH(word.Concat(Word{7}), "unknown label");
}

// The alloc gauge counters are relaxed atomics: hammering them from several
// threads while the main thread reads deltas must be race-free (shard
// workers and snapshot readers allocate concurrently; run under TSan in CI).
TEST(DynamicDocument, AllocGaugeIsThreadSafeAcrossThreads) {
  ASSERT_TRUE(AllocGaugeActive());
  AllocGaugeScope gauge;
  uint64_t before_frees = FreeCount();
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([t] {
      for (size_t i = t; i < 64; i += 4) {
        std::vector<std::unique_ptr<int>> v;
        for (size_t k = 0; k < 100; ++k) {
          v.push_back(std::make_unique<int>(static_cast<int>(i + k)));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // 64 tasks x 100 boxed ints, plus vector growth: at least 6400 of each.
  EXPECT_GE(gauge.allocs(), 6400u);
  EXPECT_GE(FreeCount() - before_frees, 6400u);
}

}  // namespace
}  // namespace treenum
