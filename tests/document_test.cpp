// Tests for the shared-document multi-query layer: N queries registered on
// one DynamicDocument, driven by mixed edit scripts (relabels + structural
// inserts/deletes, sequential and batched), every pipeline cross-checked
// against a per-query StaticEngine built afresh over the script's mirror
// tree; and the allocation and threading guarantees the refresh loop
// relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>
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
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    // Mix box-enum modes across the registered queries.
    BoxEnumMode mode =
        qi % 2 == 0 ? BoxEnumMode::kIndexed : BoxEnumMode::kNaive;
    ids.push_back(doc.Register(queries[qi], mode));
  }
  ASSERT_EQ(doc.num_queries(), queries.size());

  serving::CommandScript script(tree, 733, serving::WorkloadOptions{3});
  for (int step = 0; step < 200; ++step) {
    ApplyOk(doc, Command::Of(script.NextEdit()));
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
                  StaticEngine(script.mirror(), queries[qi]).EnumerateAll())
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
  for (const UnrankedTva& q : queries) ids.push_back(doc.Register(q));

  serving::CommandScript script(tree, 4242, serving::WorkloadOptions{3});
  for (int round = 0; round < 12; ++round) {
    std::vector<Edit> edits;
    for (int i = 0; i < 24; ++i) edits.push_back(script.NextEdit());
    ApplyBatchOk(doc, edits);

    for (size_t qi = 0; qi < queries.size(); ++qi) {
      ASSERT_EQ(doc.EnumerateAt(doc.CurrentSnapshot(), ids[qi]),
                StaticEngine(script.mirror(), queries[qi]).EnumerateAll())
          << "query " << qi << " round " << round;
      ASSERT_EQ(doc.pipeline(ids[qi]).circuit().ValidateStorage(), "")
          << "query " << qi << " round " << round;
      ASSERT_EQ(doc.pipeline(ids[qi]).index().ValidateStorage(), "")
          << "query " << qi << " round " << round;
    }
  }
}

// DocumentStats::PipelineStats::circuit_blocks counts the distinct circuit
// blocks alive: one per distinct box key over the alive term ids, pinned
// older versions included.
TEST(DynamicDocument, StatsCountDistinctCircuitBlocks) {
  Rng rng(331);
  const UnrankedTree tree = RandomTree(200, 3, rng);
  DynamicDocument doc(tree, 3);
  const DynamicDocument::QueryHandle h =
      doc.Register(QueryMarkedAncestor(3, 1, 2));
  serving::CommandScript script(tree, 332, serving::WorkloadOptions{3});
  SnapshotRef held;
  for (int step = 0; step < 40; ++step) {
    if (step % 8 == 0) held = doc.CurrentSnapshot();
    ApplyOk(doc, Command::Of(script.NextEdit()));
    const DocumentStats s = doc.stats();
    ASSERT_EQ(s.pipelines.size(), 1u);
    const AssignmentCircuit& c = doc.pipeline(h).circuit();
    ASSERT_EQ(s.pipelines[0].circuit_blocks, DistinctBoxKeys(c)) << step;
    ASSERT_LT(s.pipelines[0].circuit_blocks, doc.term().num_alive()) << step;
    ASSERT_EQ(c.ValidateStorage(), "") << step;
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

  serving::CommandScript script(tree, 929, serving::WorkloadOptions{3});
  for (int round = 0; round < 10; ++round) {
    if (round % 2 == 0) {
      for (int i = 0; i < 8; ++i) ApplyOk(doc, Command::Of(script.NextEdit()));
    } else {
      std::vector<Edit> edits;
      for (int i = 0; i < 16; ++i) edits.push_back(script.NextEdit());
      ApplyBatchOk(doc, edits);
    }
    std::vector<Assignment> expected_a =
        StaticEngine(script.mirror(), QueryMarkedAncestor(3, 1, 2))
            .EnumerateAll();
    ASSERT_EQ(doc.EnumerateAt(doc.CurrentSnapshot(), qa), expected_a) << round;
    ASSERT_EQ(doc.EnumerateAt(doc.CurrentSnapshot(), qb),
              StaticEngine(script.mirror(), QuerySelectLabel(3, 0))
                  .EnumerateAll())
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

  serving::CommandScript script(tree, 311, serving::WorkloadOptions{3});
  for (int i = 0; i < 20; ++i) ApplyOk(doc, Command::Of(script.NextEdit()));
  EXPECT_EQ(doc.num_queries(), 2u);
  doc.Unregister(qa);
  EXPECT_EQ(doc.num_queries(), 1u);
  EXPECT_FALSE(doc.IsRegistered(qa));
  EXPECT_TRUE(doc.IsRegistered(qb));

  for (int i = 0; i < 40; ++i) ApplyOk(doc, Command::Of(script.NextEdit()));
  EXPECT_EQ(doc.EnumerateAt(doc.CurrentSnapshot(), qb),
            StaticEngine(script.mirror(), QuerySelectLabel(3, 1))
                .EnumerateAll());

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
    for (auto& engine : engines) engine->document().ApplyEdit(e);
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
        ApplyOk(doc, Command::Insert(pos, l));
        break;
      }
      case 1: {
        if (ref.size() <= 1) break;
        size_t pos = rng.Index(ref.size());
        ref.erase(ref.begin() + pos);
        ApplyOk(doc, Command::Erase(pos));
        break;
      }
      default: {
        size_t pos = rng.Index(ref.size());
        Label l = static_cast<Label>(rng.Index(2));
        ref[pos] = l;
        ApplyOk(doc, Command::Replace(pos, l));
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
        for (Label l = 0; l < 3; ++l) ApplyOk(doc, Command::Relabel(n, l));
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
      for (Label l = 0; l < 3; ++l) ApplyOk(doc, Command::Relabel(n, l));
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
      ApplyOk(doc, Command::Replace(pos, static_cast<Label>(pos % 2)));
      ApplyOk(doc, Command::Insert(pos, 1));
      ApplyOk(doc, Command::Erase(pos + 1));
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

// Every command is checked before anything changes. A rejected one returns
// its status and leaves the tree or word, the term and every answer as
// they were; the document keeps serving.
void ExpectRejected(DynamicDocument& doc, DynamicDocument::QueryHandle h,
                    const Command& c, Status want) {
  const std::vector<Assignment> before =
      doc.EnumerateAt(doc.CurrentSnapshot(), h);
  const std::string term_before = doc.term().ToString(doc.term().root());
  const uint64_t epoch = doc.snapshots_published();
  const UpdateStats s = doc.Apply(c);
  EXPECT_EQ(s.status, want);
  EXPECT_EQ(s.edits_applied, 0u);
  EXPECT_EQ(doc.snapshots_published(), epoch);
  EXPECT_EQ(doc.term().ToString(doc.term().root()), term_before);
  EXPECT_EQ(doc.term().ValidateStructure(&MaxAllowedHeight), "");
  EXPECT_EQ(doc.EnumerateAt(doc.CurrentSnapshot(), h), before);
}

// Word documents edit by position only: the tree commands, Edit values
// included, are the wrong document kind, and the other way round.
TEST(DocumentRejects, CommandsOfTheOtherDocumentKind) {
  DynamicDocument word(ToWord("abab"), 2);
  const DynamicDocument::QueryHandle hw = word.Register(SelectLetter(1));
  ExpectRejected(word, hw, Command::Relabel(0, 1), Status::kWrongDocumentKind);
  ExpectRejected(word, hw, Command::InsertRightSibling(0, 1),
                 Status::kWrongDocumentKind);
  EXPECT_EQ(word.ApplyEdit(Edit::Relabel(0, 1)).status,
            Status::kWrongDocumentKind);

  Rng rng(12345);
  DynamicDocument tree(RandomTree(10, 3, rng), 3);
  const DynamicDocument::QueryHandle ht = tree.Register(QuerySelectLabel(3, 1));
  ExpectRejected(tree, ht, Command::Replace(0, 1), Status::kWrongDocumentKind);
  ExpectRejected(tree, ht, Command::MoveRange(0, 1, 2),
                 Status::kWrongDocumentKind);
}

// Point edits: a node that is not alive (never allocated, or deleted), a
// label outside the document alphabet, the root where a non-root is
// needed, an inner node for DeleteLeaf, or a word position out of range.
TEST(DocumentRejects, PointEditsOfUnknownNodesLabelsAndPositions) {
  Rng rng(12345);
  DynamicDocument doc(RandomTree(10, 3, rng), 3);
  const DynamicDocument::QueryHandle h = doc.Register(QuerySelectLabel(3, 1));
  const NodeId root = doc.tree().root();
  const NodeId child = doc.tree().children(root).front();
  NodeId deleted = kNoNode;
  ApplyOk(doc, Command::InsertFirstChild(root, 0, &deleted));
  ApplyOk(doc, Command::DeleteLeaf(deleted));
  ExpectRejected(doc, h, Command::Relabel(12345, 1), Status::kUnknownNode);
  ExpectRejected(doc, h, Command::Relabel(deleted, 1), Status::kUnknownNode);
  ExpectRejected(doc, h, Command::InsertFirstChild(deleted, 1),
                 Status::kUnknownNode);
  ExpectRejected(doc, h, Command::InsertRightSibling(12345, 1),
                 Status::kUnknownNode);
  ExpectRejected(doc, h, Command::DeleteLeaf(deleted), Status::kUnknownNode);
  ExpectRejected(doc, h, Command::Relabel(root, 77), Status::kUnknownLabel);
  ExpectRejected(doc, h, Command::InsertFirstChild(root, 3),
                 Status::kUnknownLabel);
  EXPECT_EQ(doc.ApplyEdit(Edit::InsertRightSibling(child, 3)).status,
            Status::kUnknownLabel);
  ExpectRejected(doc, h, Command::InsertRightSibling(root, 1),
                 Status::kIsRoot);
  ExpectRejected(doc, h, Command::DeleteLeaf(root), Status::kIsRoot);
  NodeId inner = child;
  ApplyOk(doc, Command::InsertFirstChild(inner, 1));
  ExpectRejected(doc, h, Command::DeleteLeaf(inner), Status::kNotALeaf);

  DynamicDocument word(ToWord("abc"), 3);
  const DynamicDocument::QueryHandle hw =
      word.Register(CompileRegexSpanner(".*<0:b>.*", 3, 1));
  ExpectRejected(word, hw, Command::Replace(3, 1), Status::kOutOfRange);
  ExpectRejected(word, hw, Command::Insert(4, 1), Status::kOutOfRange);
  ExpectRejected(word, hw, Command::Erase(3), Status::kOutOfRange);
  ExpectRejected(word, hw, Command::Replace(0, 3), Status::kUnknownLabel);
  ExpectRejected(word, hw, Command::Insert(3, 77), Status::kUnknownLabel);

  // The last letter cannot be erased.
  DynamicDocument one(ToWord("b"), 3);
  const DynamicDocument::QueryHandle h1 =
      one.Register(CompileRegexSpanner(".*<0:b>.*", 3, 1));
  ExpectRejected(one, h1, Command::Erase(0), Status::kOutOfRange);
  ExpectRejected(one, h1, Command::EraseRange(0, 1), Status::kOutOfRange);
}

// Transactions: the moved, deleted or extracted node and the destination
// must be alive and the subtree root non-root; a move's destination lies
// outside the moved subtree; the grafted subtree must exist in its source
// tree and use only document labels; and a word range must lie inside the
// word (a move's destination inside what remains once the range is cut
// out), be non-empty and leave a letter, and a Concat must append some.
TEST(DocumentRejects, TransactionsOfUnknownNodesLabelsAndRanges) {
  Rng rng(12345);
  DynamicDocument doc(RandomTree(10, 3, rng), 3);
  const DynamicDocument::QueryHandle h = doc.Register(QuerySelectLabel(3, 1));
  const NodeId root = doc.tree().root();
  const NodeId child = doc.tree().children(root).front();
  NodeId deleted = kNoNode, grandchild = kNoNode;
  ApplyOk(doc, Command::InsertFirstChild(child, 0, &grandchild));
  ApplyOk(doc, Command::InsertFirstChild(root, 0, &deleted));
  ApplyOk(doc, Command::DeleteLeaf(deleted));
  UnrankedTree src(0);
  src.AppendChild(src.root(), 1);
  UnrankedTree foreign(0);
  foreign.AppendChild(foreign.root(), 77);
  UnrankedTree extracted(0);
  ExpectRejected(doc, h, Command::SubtreeMove(12345, root),
                 Status::kUnknownNode);
  ExpectRejected(doc, h, Command::SubtreeMove(deleted, root),
                 Status::kUnknownNode);
  ExpectRejected(doc, h, Command::SubtreeMove(child, 12345),
                 Status::kUnknownNode);
  ExpectRejected(doc, h, Command::SubtreeMove(root, child), Status::kIsRoot);
  ExpectRejected(doc, h,
                 Command::SubtreeMove(child, root, AttachWhere::kRightSibling),
                 Status::kIsRoot);
  ExpectRejected(doc, h, Command::SubtreeMove(child, child),
                 Status::kInsideMovedSubtree);
  ExpectRejected(doc, h, Command::SubtreeMove(child, grandchild),
                 Status::kInsideMovedSubtree);
  ExpectRejected(doc, h, Command::SubtreeDelete(12345), Status::kUnknownNode);
  ExpectRejected(doc, h, Command::SubtreeDelete(root), Status::kIsRoot);
  ExpectRejected(doc, h, Command::SubtreeExtract(12345, &extracted),
                 Status::kUnknownNode);
  ExpectRejected(doc, h, Command::SubtreeExtract(root, &extracted),
                 Status::kIsRoot);
  ExpectRejected(doc, h, Command::GraftSubtree(&src, 12345, root),
                 Status::kUnknownNode);
  ExpectRejected(doc, h, Command::GraftSubtree(&src, src.root(), 12345),
                 Status::kUnknownNode);
  ExpectRejected(doc, h, Command::GraftSubtree(nullptr, 0, root),
                 Status::kUnknownNode);
  ExpectRejected(doc, h,
                 Command::GraftSubtree(&src, src.root(), root,
                                       AttachWhere::kRightSibling),
                 Status::kIsRoot);
  ExpectRejected(doc, h, Command::GraftSubtree(&foreign, foreign.root(), root),
                 Status::kUnknownLabel);

  DynamicDocument word(ToWord("ababa"), 2);
  const DynamicDocument::QueryHandle hw = word.Register(SelectLetter(1));
  Word cut;
  const Word empty, foreign_letters{7};
  ExpectRejected(word, hw, Command::MoveRange(3, 1, 0), Status::kOutOfRange);
  ExpectRejected(word, hw, Command::MoveRange(1, 3, 9), Status::kOutOfRange);
  ExpectRejected(word, hw, Command::MoveRange(0, 2, 4), Status::kOutOfRange);
  ExpectRejected(word, hw, Command::EraseRange(4, 8), Status::kOutOfRange);
  ExpectRejected(word, hw, Command::EraseRange(0, 5), Status::kOutOfRange);
  ExpectRejected(word, hw, Command::EraseRange(2, 2), Status::kOutOfRange);
  ExpectRejected(word, hw, Command::MoveRange(1, 1, 0), Status::kOutOfRange);
  ExpectRejected(word, hw, Command::ExtractRange(4, 8, &cut),
                 Status::kOutOfRange);
  ExpectRejected(word, hw, Command::Concat(&empty), Status::kOutOfRange);
  ExpectRejected(word, hw, Command::Concat(nullptr), Status::kOutOfRange);
  ExpectRejected(word, hw, Command::Concat(&foreign_letters),
                 Status::kUnknownLabel);
}

// Registration is checked the same way: the wrong document kind, the
// wrong alphabet, a batch in progress, or an unknown, stale or twice
// unregistered handle returns its status and changes nothing. A read
// through a handle that is not registered answers nothing.
TEST(DocumentRejects, RegistrationOfWrongQueriesAndHandles) {
  Rng rng(12345);
  DynamicDocument doc(RandomTree(10, 3, rng), 3);
  const DynamicDocument::QueryHandle h = doc.Register(QuerySelectLabel(3, 1));
  EXPECT_EQ(doc.Register(SelectLetter(1)).status, Status::kWrongDocumentKind);
  const DynamicDocument::Registration wrong =
      doc.Register(QuerySelectLabel(4, 1));
  EXPECT_EQ(wrong.status, Status::kWrongAlphabet);
  EXPECT_EQ(wrong.handle, DynamicDocument::kNoHandle);
  EXPECT_FALSE(doc.IsRegistered(wrong));
  doc.BeginBatch();
  EXPECT_EQ(doc.Register(QueryMarkedAncestor(3, 1, 2)).status,
            Status::kInBatch);
  EXPECT_EQ(doc.Unregister(h), Status::kInBatch);
  ApplyOk(doc, Command::Relabel(doc.tree().root(), 2));
  doc.CommitBatch();
  EXPECT_EQ(doc.num_queries(), 1u);
  EXPECT_EQ(doc.num_pipelines(), 1u);

  EXPECT_EQ(doc.Unregister(DynamicDocument::kNoHandle),
            Status::kUnknownHandle);
  EXPECT_EQ(doc.Unregister(h + 12345), Status::kUnknownHandle);
  EXPECT_EQ(doc.Unregister(h), Status::kOk);
  EXPECT_EQ(doc.Unregister(h), Status::kUnknownHandle);
  // The recycled slot does not validate the stale handle.
  const DynamicDocument::QueryHandle again =
      doc.Register(QuerySelectLabel(3, 1));
  EXPECT_EQ(doc.Unregister(h), Status::kUnknownHandle);
  EXPECT_TRUE(doc.IsRegistered(again));

  // `again` answers; the stale `h` in its slot, an unknown handle and
  // kNoHandle read as no answers, through the document and an empty view.
  const SnapshotRef snap = doc.CurrentSnapshot();
  ASSERT_TRUE(doc.HasAnswerAt(snap, again));
  for (const DynamicDocument::QueryHandle gone :
       {h, h + 12345, DynamicDocument::kNoHandle}) {
    EXPECT_FALSE(doc.HasAnswerAt(snap, gone));
    EXPECT_TRUE(doc.EnumerateAt(snap, gone).empty());
    EXPECT_EQ(doc.MakeCursorAt(snap, gone), nullptr);
    const DynamicDocument::ReaderView view = doc.reader_view(gone);
    EXPECT_FALSE(view);
    EXPECT_FALSE(view.HasAnswerAt(snap));
    EXPECT_TRUE(view.EnumerateAt(snap).empty());
    EXPECT_EQ(view.MakeCursorAt(snap), nullptr);
  }

  DynamicDocument word(ToWord("abab"), 2);
  EXPECT_EQ(word.Register(QuerySelectLabel(2, 1)).status,
            Status::kWrongDocumentKind);
  EXPECT_EQ(word.Register(CompileRegexSpanner(".*<0:b>.*", 3, 1)).status,
            Status::kWrongAlphabet);
}

// Reads at a snapshot a pipeline does not serve answer nothing on every
// read path: an empty SnapshotRef, a pin taken before the query's Register,
// and a pin taken before a re-registration after Unregister.
TEST(DocumentRejects, ReadsAtUnservedSnapshotsAnswerNothing) {
  Rng rng(4242);
  const UnrankedTree tree = RandomTree(20, 3, rng);
  DynamicDocument doc(tree, 3);
  const UnrankedTva q = QueryMarkedAncestor(3, 1, 2);
  const SnapshotRef before_register = doc.CurrentSnapshot();
  ApplyOk(doc, Command::Relabel(doc.tree().root(), 1));
  const DynamicDocument::QueryHandle first = doc.Register(q);
  const SnapshotRef before_reregister = doc.CurrentSnapshot();
  ASSERT_TRUE(doc.HasAnswerAt(before_reregister, first));
  ASSERT_EQ(doc.Unregister(first), Status::kOk);
  ApplyOk(doc, Command::Relabel(doc.tree().root(), 2));
  const DynamicDocument::QueryHandle h = doc.Register(q);
  doc.pipeline(h).EnableCounting();
  const EnumerationPipeline& p = doc.pipeline(h);

  const SnapshotRef now = doc.CurrentSnapshot();
  const std::vector<Assignment> answers = StaticEngine(doc.tree(), q)
                                              .EnumerateAll();
  ASSERT_FALSE(answers.empty());
  ASSERT_EQ(doc.EnumerateAt(now, h), answers);
  ASSERT_EQ(p.AcceptingRunsAt(now), answers.size());

  // Pins of two other documents with the query registered, published no
  // earlier than `now`: a twin of `doc`'s tree, whose root id is also an id
  // of `doc`, and a larger tree, whose root id lies past every id of `doc`.
  // Both name nodes of another term.
  DynamicDocument twin(tree, 3);
  DynamicDocument large(RandomTree(300, 3, rng), 3);
  SnapshotRef foreign[2];
  for (DynamicDocument* other : {&twin, &large}) {
    const DynamicDocument::QueryHandle other_h = other->Register(q);
    while (other->CurrentSnapshot().epoch() < now.epoch()) {
      ApplyOk(*other, Command::Relabel(other->tree().root(), 2));
    }
    foreign[other == &large] = other->CurrentSnapshot();
    ASSERT_TRUE(other->HasAnswerAt(foreign[other == &large], other_h));
  }
  ASSERT_LT(foreign[0].root(), doc.term().id_bound());
  ASSERT_GE(foreign[1].root(), doc.term().id_bound());

  const char* names[] = {"empty", "before register", "before re-register",
                         "a twin document's", "a larger document's"};
  const SnapshotRef* unserved[] = {nullptr, &before_register,
                                   &before_reregister, &foreign[0],
                                   &foreign[1]};
  for (int i = 0; i < 5; ++i) {
    const SnapshotRef snap = unserved[i] ? *unserved[i] : SnapshotRef();
    EXPECT_FALSE(p.Serves(snap)) << names[i];
    EXPECT_FALSE(doc.HasAnswerAt(snap, h)) << names[i];
    EXPECT_TRUE(doc.EnumerateAt(snap, h).empty()) << names[i];
    EXPECT_EQ(doc.MakeCursorAt(snap, h), nullptr) << names[i];
    const DynamicDocument::ReaderView view = doc.reader_view(h);
    EXPECT_FALSE(view.HasAnswerAt(snap)) << names[i];
    EXPECT_TRUE(view.EnumerateAt(snap).empty()) << names[i];
    EXPECT_EQ(view.MakeCursorAt(snap), nullptr) << names[i];
    SnapshotCursor cursor = p.MakeCursorAt(snap);  // by value: exhausted
    Assignment a;
    EXPECT_FALSE(cursor.Next(&a)) << names[i];
    EXPECT_EQ(p.AcceptingRunsAt(snap), 0u) << names[i];
  }
  // The served snapshot still answers after the unserved reads.
  EXPECT_EQ(doc.EnumerateAt(doc.CurrentSnapshot(), h), answers);
}

// A rejected command drains nothing: after an inner-node DeleteLeaf between
// two relabels, with a reader's snapshots retired, the storage audits read
// clean at once, before any further commit.
TEST(DocumentRejects, RejectionLeavesStorageAuditsCleanAtOnce) {
  DynamicDocument doc(UnrankedTree::Parse("(a (b (a) (b)) (a))"), 2);
  const DynamicDocument::QueryHandle h = doc.Register(QuerySelectLabel(2, 1));
  const NodeId inner = doc.tree().children(doc.tree().root()).front();
  ApplyOk(doc, Command::Relabel(inner, 0));
  ApplyOk(doc, Command::Relabel(doc.tree().children(inner).front(), 1));
  EXPECT_EQ(doc.Apply(Command::DeleteLeaf(inner)).status, Status::kNotALeaf);
  EXPECT_EQ(doc.pipeline(h).circuit().ValidateStorage(), "");
  EXPECT_EQ(doc.pipeline(h).index().ValidateStorage(), "");
  EXPECT_EQ(doc.term().ValidateStructure(&MaxAllowedHeight), "");
  StaticEngine oracle(doc.tree(), QuerySelectLabel(2, 1));
  EXPECT_EQ(doc.EnumerateAt(doc.CurrentSnapshot(), h), oracle.EnumerateAll());
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
