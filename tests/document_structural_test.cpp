// Document-level structural transactions: SubtreeMove / SubtreeDelete /
// SubtreeExtract / GraftSubtree on tree documents and MoveRange /
// EraseRange / ExtractRange / Concat on word documents, interleaved with
// leaf edits and cross-checked against recompute-from-scratch oracles;
// snapshot pinning across a transaction (one published epoch per
// transaction, pinned readers keep the old answers — run under TSan in
// CI); and the zero-allocation steady state of the whole transaction path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "automata/query_library.h"
#include "baseline/static_engine.h"
#include "core/document.h"
#include "core/word_enumerator.h"
#include "falgebra/builder.h"
#include "test_util.h"
#include "util/alloc_gauge.h"

namespace treenum {
namespace {

// ---- Tree documents ----

// Interleaves structural transactions with ordinary leaf edits; every
// checkpoint rebuilds a StaticEngine from the document's current tree (the
// transactions have no incremental oracle — recompute-from-scratch is the
// specification).
TEST(DocumentStructural, TreeTransactionsMatchFreshOracles) {
  Rng rng(20260807);
  UnrankedTree tree = RandomTree(120, 3, rng);
  std::vector<UnrankedTva> queries;
  queries.push_back(QuerySelectLabel(3, 1));
  queries.push_back(QueryMarkedAncestor(3, 1, 2));
  queries.push_back(QueryChildOfLabel(3, 0, 2));

  DynamicDocument doc(tree, 3);
  std::vector<DynamicDocument::QueryHandle> ids;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    BoxEnumMode mode =
        qi % 2 == 0 ? BoxEnumMode::kIndexed : BoxEnumMode::kNaive;
    ids.push_back(doc.Register(queries[qi], mode));
  }

  auto pick_outside = [&](NodeId v) -> NodeId {
    // Any node outside subtree(v), or kNoNode if none exists.
    std::vector<NodeId> in_sub{v};
    for (size_t i = 0; i < in_sub.size(); ++i) {
      for (NodeId c : doc.tree().children(in_sub[i])) in_sub.push_back(c);
    }
    std::vector<NodeId> cands;
    for (NodeId n : doc.tree().PreorderNodes()) {
      if (std::find(in_sub.begin(), in_sub.end(), n) == in_sub.end()) {
        cands.push_back(n);
      }
    }
    return cands.empty() ? kNoNode : cands[rng.Index(cands.size())];
  };

  for (int step = 0; step < 160; ++step) {
    std::vector<NodeId> nodes = doc.tree().PreorderNodes();
    NodeId pick = nodes[rng.Index(nodes.size())];
    switch (rng.Index(8)) {
      case 0:
        ApplyOk(doc,
                Command::Relabel(pick, static_cast<Label>(rng.Index(3))));
        break;
      case 1:
        ApplyOk(doc, Command::InsertFirstChild(
                         pick, static_cast<Label>(rng.Index(3))));
        break;
      case 2:
        if (pick != doc.tree().root()) {
          ApplyOk(doc, Command::InsertRightSibling(
                           pick, static_cast<Label>(rng.Index(3))));
        }
        break;
      case 3:
        if (pick != doc.tree().root() && doc.tree().IsLeaf(pick)) {
          ApplyOk(doc, Command::DeleteLeaf(pick));
        }
        break;
      case 4:
      case 5: {
        if (pick == doc.tree().root()) break;
        NodeId dst = pick_outside(pick);
        if (dst == kNoNode) break;
        AttachWhere where = rng.Index(2) == 0 || dst == doc.tree().root()
                                ? AttachWhere::kFirstChild
                                : AttachWhere::kRightSibling;
        ApplyOk(doc, Command::SubtreeMove(pick, dst, where));
        break;
      }
      case 6:
        if (pick != doc.tree().root() && doc.tree().size() > 20) {
          ApplyOk(doc, Command::SubtreeDelete(pick));
        }
        break;
      case 7: {
        if (pick == doc.tree().root() || doc.tree().size() <= 20) break;
        UnrankedTree cut(0);
        ApplyOk(doc, Command::SubtreeExtract(pick, &cut));
        std::vector<NodeId> rest = doc.tree().PreorderNodes();
        NodeId dst = rest[rng.Index(rest.size())];
        AttachWhere where = rng.Index(2) == 0 || dst == doc.tree().root()
                                ? AttachWhere::kFirstChild
                                : AttachWhere::kRightSibling;
        ApplyOk(doc, Command::GraftSubtree(&cut, cut.root(), dst, where));
        break;
      }
    }
    ASSERT_EQ(doc.term().ValidateStructure(&MaxAllowedHeight), "")
        << "step " << step;
    if (step % 8 == 7) {
      for (size_t qi = 0; qi < ids.size(); ++qi) {
        const EnumerationPipeline& p = doc.pipeline(ids[qi]);
        ASSERT_EQ(p.circuit().ValidateStorage(), "")
            << "query " << qi << " step " << step;
        if (p.mode() == BoxEnumMode::kIndexed) {
          ASSERT_EQ(p.index().ValidateStorage(), "")
              << "query " << qi << " step " << step;
        }
        StaticEngine oracle(doc.tree(), queries[qi]);
        ASSERT_EQ(p.EnumerateAt(doc.CurrentSnapshot()),
                  oracle.EnumerateAll())
            << "query " << qi << " step " << step;
      }
    }
  }
}

// Structural transactions recorded inside a batch coalesce with leaf edits
// into one commit (one epoch, one refresh per surviving box).
TEST(DocumentStructural, BatchedTransactionsCoalesceWithLeafEdits) {
  Rng rng(20260808);
  UnrankedTree tree = RandomTree(80, 3, rng);
  DynamicDocument doc(tree, 3);
  DynamicDocument::QueryHandle h = doc.Register(QueryMarkedAncestor(3, 1, 2));

  for (int round = 0; round < 30; ++round) {
    std::vector<NodeId> nodes = doc.tree().PreorderNodes();
    NodeId pick = nodes[rng.Index(nodes.size())];
    uint64_t epoch_before = doc.CurrentSnapshot().epoch();
    doc.BeginBatch();
    ApplyOk(doc, Command::Relabel(nodes[rng.Index(nodes.size())],
                                  static_cast<Label>(rng.Index(3))));
    if (pick != doc.tree().root() && doc.tree().size() > 20) {
      ApplyOk(doc, Command::SubtreeDelete(pick));
    }
    ApplyOk(doc, Command::InsertFirstChild(
                     doc.tree().root(), static_cast<Label>(rng.Index(3))));
    doc.CommitBatch();
    EXPECT_EQ(doc.CurrentSnapshot().epoch(), epoch_before + 1)
        << "a batch must publish exactly one epoch, round " << round;
    StaticEngine oracle(doc.tree(), QueryMarkedAncestor(3, 1, 2));
    ASSERT_EQ(doc.EnumerateAt(doc.CurrentSnapshot(), h), oracle.EnumerateAll())
        << "round " << round;
  }
}

// ---- Word documents ----

TEST(DocumentStructural, WordTransactionsMatchEnumerator) {
  // a*<x:b>(a|b)* — select every b position.
  Wva select_b(2, 2, 1);
  select_b.AddInitial(0);
  select_b.AddTransition(0, 0, 0, 0);
  select_b.AddTransition(0, 1, 0, 0);
  select_b.AddTransition(0, 1, 1, 1);
  select_b.AddTransition(1, 0, 0, 1);
  select_b.AddTransition(1, 1, 0, 1);
  select_b.AddFinal(1);

  // The second run starts from a 2048-letter word and pins a snapshot
  // across each 16-step window, so the boxes a window's transactions free
  // are released only by the commit after the pin drops, as they are under
  // a reader.
  // Erased and extracted factors are short (MoveRange factors stay
  // unbounded): unbounded cuts shrink a word to a few letters within a few
  // dozen steps, and the remaining steps would then edit tiny words. Each
  // run checks that its word never falls below half its starting length.
  // Both runs audit the circuit and index storage after every step.
  struct Run {
    size_t letters;
    int pin_window;  // 0: no pin
    size_t max_cut;  // longest EraseRange/ExtractRange factor
  };
  Rng rng(20260809);
  for (const Run& run : {Run{40, 0, 2}, Run{2048, 16, 16}}) {
    SCOPED_TRACE("letters " + std::to_string(run.letters));
    size_t shortest = run.letters;
    Word ref;
    for (size_t i = 0; i < run.letters; ++i) {
      ref.push_back(static_cast<Label>(rng.Index(2)));
    }

    DynamicDocument doc(ref, 2);
    DynamicDocument::QueryHandle h = doc.Register(select_b);
    const EnumerationPipeline& pipeline = doc.pipeline(h);
    SnapshotRef pin;

    auto by_position = [&] {
      std::vector<Assignment> out;
      for (const Assignment& s : doc.EnumerateAt(doc.CurrentSnapshot(), h)) {
        Assignment b;
        for (const Singleton& sg : s.singletons()) {
          b.Add(Singleton{sg.var,
                          static_cast<NodeId>(
                              doc.word_encoding().PositionOf(sg.node))});
        }
        b.Normalize();
        out.push_back(std::move(b));
      }
      std::sort(out.begin(), out.end());
      return out;
    };

    for (int step = 0; step < 200; ++step) {
      if (run.pin_window > 0 && step % run.pin_window == 0) {
        pin = doc.CurrentSnapshot();
      }
      switch (rng.Index(7)) {
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
        case 2: {
          size_t pos = rng.Index(ref.size());
          Label l = static_cast<Label>(rng.Index(2));
          ref[pos] = l;
          ApplyOk(doc, Command::Replace(pos, l));
          break;
        }
        case 3: {  // MoveRange
          if (ref.size() < 2) break;
          size_t begin = rng.Index(ref.size());
          size_t end = begin + 1 + rng.Index(ref.size() - begin);
          if (end - begin == ref.size()) break;
          Word factor(ref.begin() + begin, ref.begin() + end);
          ref.erase(ref.begin() + begin, ref.begin() + end);
          size_t dst = rng.Index(ref.size() + 1);
          ref.insert(ref.begin() + dst, factor.begin(), factor.end());
          ApplyOk(doc, Command::MoveRange(begin, end, dst));
          break;
        }
        case 4: {  // EraseRange
          if (ref.size() < 2) break;
          size_t begin = rng.Index(ref.size());
          size_t end =
              begin + 1 + rng.Index(std::min(ref.size() - begin, run.max_cut));
          if (end - begin >= ref.size()) break;
          ref.erase(ref.begin() + begin, ref.begin() + end);
          ApplyOk(doc, Command::EraseRange(begin, end));
          break;
        }
        case 5: {  // ExtractRange: the extracted factor must match the mirror
          if (ref.size() < 2) break;
          size_t begin = rng.Index(ref.size());
          size_t end =
              begin + 1 + rng.Index(std::min(ref.size() - begin, run.max_cut));
          if (end - begin >= ref.size()) break;
          Word expect_factor(ref.begin() + begin, ref.begin() + end);
          ref.erase(ref.begin() + begin, ref.begin() + end);
          Word got;
          ApplyOk(doc, Command::ExtractRange(begin, end, &got));
          ASSERT_EQ(got, expect_factor) << "step " << step;
          break;
        }
        case 6: {  // Concat
          Word tail;
          for (size_t i = 0; i < 1 + rng.Index(6); ++i) {
            tail.push_back(static_cast<Label>(rng.Index(2)));
          }
          ref.insert(ref.end(), tail.begin(), tail.end());
          ApplyOk(doc, Command::Concat(&tail));
          break;
        }
      }
      ASSERT_EQ(doc.word_encoding().size(), ref.size()) << "step " << step;
      shortest = std::min(shortest, ref.size());
      // Range transactions split nodes joined earlier in the same edit; every
      // such scaffold must be swept, or it leaks with everything below it.
      ASSERT_EQ(doc.term().ValidateStructure(&MaxAllowedHeight), "")
          << "step " << step;
      ASSERT_EQ(pipeline.circuit().ValidateStorage(), "") << "step " << step;
      ASSERT_EQ(pipeline.index().ValidateStorage(), "") << "step " << step;
      if (step % 10 == 9) {
        ASSERT_EQ(by_position(),
                  WordEnumerator(ref, select_b).EnumerateAllByPosition())
            << "step " << step;
      }
    }
    EXPECT_GE(shortest, run.letters / 2);
  }
}

// ---- Snapshots across transactions ----

// A pinned snapshot must keep serving the pre-transaction answers while the
// writer runs SubtreeMoves, and each transaction publishes exactly one
// epoch. A reader thread enumerates the pin concurrently with the writer's
// transactions (the interesting assertions are TSan's).
TEST(DocumentStructural, PinnedSnapshotSurvivesConcurrentSubtreeMove) {
  Rng rng(20260810);
  UnrankedTree tree = RandomTree(90, 3, rng);
  const UnrankedTva q = QueryMarkedAncestor(3, 1, 2);

  DynamicDocument doc(tree, 3);
  DynamicDocument::QueryHandle h = doc.Register(q);

  std::vector<Assignment> before = doc.EnumerateAt(doc.CurrentSnapshot(), h);
  SnapshotRef pin = doc.CurrentSnapshot();
  const uint64_t pinned_epoch = pin.epoch();

  std::atomic<bool> done{false};
  std::atomic<size_t> mismatches{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      if (doc.EnumerateAt(pin, h) != before) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  for (int step = 0; step < 40; ++step) {
    std::vector<NodeId> nodes = doc.tree().PreorderNodes();
    NodeId pick = nodes[rng.Index(nodes.size())];
    if (pick == doc.tree().root()) continue;
    std::vector<NodeId> in_sub{pick};
    for (size_t i = 0; i < in_sub.size(); ++i) {
      for (NodeId c : doc.tree().children(in_sub[i])) in_sub.push_back(c);
    }
    NodeId dst = kNoNode;
    for (NodeId n : nodes) {
      if (std::find(in_sub.begin(), in_sub.end(), n) == in_sub.end()) {
        dst = n;
        break;
      }
    }
    if (dst == kNoNode) continue;
    uint64_t epoch_before = doc.CurrentSnapshot().epoch();
    doc.SubtreeMove(pick, dst, AttachWhere::kFirstChild);
    ASSERT_EQ(doc.CurrentSnapshot().epoch(), epoch_before + 1)
        << "a transaction must publish exactly one epoch, step " << step;
  }
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(mismatches.load(), 0u)
      << "pinned snapshot served post-transaction answers";
  EXPECT_EQ(pin.epoch(), pinned_epoch);
  EXPECT_EQ(doc.EnumerateAt(pin, h), before);
  StaticEngine oracle(doc.tree(), q);
  EXPECT_EQ(doc.EnumerateAt(doc.CurrentSnapshot(), h), oracle.EnumerateAll());
}

// ---- Allocation guarantees ----

// Ping-ponging a subtree between two anchors settles into a steady state
// where the whole transaction — detach, region re-encode, rebalance,
// coalesced box rebuild, publish — performs zero heap allocations.
TEST(DocumentStructural, SteadyStateSubtreeMovesAreAllocationFree) {
  ASSERT_TRUE(AllocGaugeActive())
      << "document_structural_test must link treenum_alloc_gauge";

  Rng rng(20260811);
  UnrankedTree tree = RandomTree(200, 3, rng);
  DynamicDocument doc(tree, 3);
  DynamicDocument::QueryHandle h = doc.Register(QueryMarkedAncestor(3, 1, 2));

  // Two stable anchors under the root plus a movable subtree.
  NodeId root = doc.tree().root();
  NodeId a = kNoNode, b = kNoNode, v = kNoNode;
  ApplyOk(doc, Command::InsertFirstChild(root, 0, &a));
  ApplyOk(doc, Command::InsertFirstChild(root, 0, &b));
  ApplyOk(doc, Command::InsertFirstChild(root, 1, &v));
  ApplyOk(doc, Command::InsertFirstChild(v, 2));
  ApplyOk(doc, Command::InsertFirstChild(v, 2));

  auto run_pass = [&] {
    for (int i = 0; i < 16; ++i) {
      doc.SubtreeMove(v, i % 2 == 0 ? a : b, AttachWhere::kFirstChild);
    }
  };
  int pass = 0;
  for (; pass < 10; ++pass) {
    AllocGaugeScope warm;
    run_pass();
    if (warm.allocs() == 0) break;
  }
  ASSERT_LT(pass, 10) << "SubtreeMove passes failed to reach a steady state";
  AllocGaugeScope gauge;
  run_pass();
  EXPECT_EQ(gauge.allocs(), 0u)
      << "steady-state SubtreeMove transactions allocated";
  StaticEngine oracle(doc.tree(), QueryMarkedAncestor(3, 1, 2));
  EXPECT_EQ(doc.EnumerateAt(doc.CurrentSnapshot(), h), oracle.EnumerateAll());
}

}  // namespace
}  // namespace treenum
