#include "counting/run_count.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "automata/homogenize.h"
#include "automata/query_library.h"
#include "automata/translate.h"
#include "baseline/static_engine.h"
#include "falgebra/builder.h"
#include "core/tree_enumerator.h"
#include "falgebra/update.h"
#include "test_util.h"

namespace treenum {
namespace {

// Independent oracle: counts (valuation, run) pairs on a term by trying all
// leaf valuations and, for each, all state assignments to term nodes.
uint64_t BruteForceRuns(const BinaryTva& a, const Term& term) {
  std::vector<TermNodeId> nodes;
  std::vector<std::pair<TermNodeId, NodeId>> leaves;
  auto walk = [&](auto&& self, TermNodeId id) -> void {
    nodes.push_back(id);
    const TermNode& t = term.node(id);
    if (t.left == kNoTerm) {
      leaves.emplace_back(id, t.tree_node);
      return;
    }
    self(self, t.left);
    self(self, t.right);
  };
  walk(walk, term.root());

  size_t vars = a.num_vars();
  size_t w = a.num_states();
  uint64_t total = 0;
  size_t val_bits = leaves.size() * vars;
  for (uint64_t code = 0; code < (uint64_t{1} << val_bits); ++code) {
    // Decode valuation.
    std::vector<VarMask> mask_of_leaf(term.id_bound(), 0);
    uint64_t c = code;
    for (auto& [tid, nid] : leaves) {
      mask_of_leaf[tid] =
          static_cast<VarMask>(c & ((VarMask{1} << vars) - 1));
      c >>= vars;
    }
    // Enumerate all state assignments ρ: nodes -> Q; check run conditions.
    size_t n = nodes.size();
    std::vector<State> rho(n, 0);
    while (true) {
      bool ok = true;
      for (size_t i = 0; i < n && ok; ++i) {
        const TermNode& t = term.node(nodes[i]);
        if (t.left == kNoTerm) {
          bool found = false;
          for (const auto& [vs, q] : a.LeafInitsFor(t.label)) {
            if (vs == mask_of_leaf[nodes[i]] && q == rho[i]) found = true;
          }
          ok = found;
        } else {
          // Locate children indices (linear scan; tiny instances only).
          State ql = 0, qr = 0;
          for (size_t j = 0; j < n; ++j) {
            if (nodes[j] == t.left) ql = rho[j];
            if (nodes[j] == t.right) qr = rho[j];
          }
          bool found = false;
          for (State q : a.TransitionsFor(t.label, ql, qr)) {
            if (q == rho[i]) found = true;
          }
          ok = found;
        }
      }
      if (ok && a.IsFinal(rho[0])) ++total;  // nodes[0] is the root
      // Next assignment.
      size_t i = 0;
      while (i < n && ++rho[i] == w) {
        rho[i] = 0;
        ++i;
      }
      if (i == n) break;
    }
  }
  return total;
}

TEST(RunCount, MatchesBruteForceOnTinyTerms) {
  Rng rng(501);
  for (int trial = 0; trial < 25; ++trial) {
    BinaryTva raw = RandomBinaryTvaOnHH(rng, 3, 2, 1, 3, 7);
    Term term(TermAlphabet{2});
    term.set_root(BuildRandomHHTerm(term, rng, 1 + rng.Index(4), 2));
    // Counter runs on the raw automaton (no homogenization needed).
    std::vector<uint8_t> kind(raw.num_states(), 0);
    AssignmentCircuit circuit(&term, &raw, &kind);
    RunCounter counter(&circuit);
    counter.BuildAll();
    EXPECT_EQ(counter.TotalAcceptingRuns(term.root()),
              BruteForceRuns(raw, term))
        << "trial " << trial;
  }
}

TEST(RunCount, UnambiguousQueryCountsAnswers) {
  // The library queries are unambiguous (at most one run per valuation), so
  // the run count at the root equals the number of satisfying assignments.
  Rng rng(503);
  UnrankedTva q = QuerySelectLabel(2, 1);
  HomogenizedTva h = HomogenizeBinaryTva(TranslateUnrankedTva(q).tva);
  for (int trial = 0; trial < 10; ++trial) {
    UnrankedTree t = RandomTree(1 + rng.Index(60), 2, rng);
    size_t expected = 0;
    for (NodeId n : t.PreorderNodes()) expected += t.label(n) == 1;
    Encoding enc = EncodeTree(std::move(t), 2);
    AssignmentCircuit circuit(&enc.term, &h.tva, &h.kind);
    circuit.BuildAll();
    RunCounter counter(&circuit);
    counter.BuildAll();
    // The empty valuation reaches the final 0-state; subtract that run if
    // present (it does not correspond to an answer of this query).
    uint64_t runs = counter.TotalAcceptingRuns(enc.term.root());
    EXPECT_EQ(runs, expected) << "trial " << trial;
  }
}

TEST(RunCount, IncrementalMaintenanceMatchesFresh) {
  Rng rng(509);
  UnrankedTva q = QueryMarkedAncestor(3, 1, 2);
  HomogenizedTva h = HomogenizeBinaryTva(TranslateUnrankedTva(q).tva);
  DynamicEncoding dyn(RandomTree(30, 3, rng), 3);
  AssignmentCircuit circuit(&dyn.term(), &h.tva, &h.kind);
  circuit.BuildAll();
  RunCounter counter(&circuit);
  counter.BuildAll();

  for (int step = 0; step < 40; ++step) {
    std::vector<NodeId> nodes = dyn.tree().PreorderNodes();
    NodeId n = nodes[rng.Index(nodes.size())];
    UpdateResult r;
    switch (rng.Index(3)) {
      case 0:
        r = dyn.Relabel(n, static_cast<Label>(rng.Index(3)));
        break;
      case 1:
        r = dyn.InsertFirstChild(n, static_cast<Label>(rng.Index(3)));
        break;
      default:
        if (n != dyn.tree().root() && dyn.tree().IsLeaf(n)) {
          r = dyn.DeleteLeaf(n);
        } else {
          r = dyn.Relabel(n, static_cast<Label>(rng.Index(3)));
        }
        break;
    }
    for (TermNodeId id : r.freed) {
      circuit.FreeBox(id);
      counter.FreeBoxCounts(id);
    }
    for (TermNodeId id : r.changed_bottom_up) {
      circuit.RebuildBox(id);
      counter.RebuildBoxCounts(id);
    }
    AssignmentCircuit fresh_circuit(&dyn.term(), &h.tva, &h.kind);
    fresh_circuit.BuildAll();
    RunCounter fresh(&fresh_circuit);
    fresh.BuildAll();
    const TermNodeId root = dyn.term().root();
    ASSERT_EQ(counter.TotalAcceptingRuns(root), fresh.TotalAcceptingRuns(root))
        << "step " << step;
  }
}

TEST(RunCount, CountsGrowWithAnswers) {
  // Run counts for the unambiguous marked-ancestor query equal the answer
  // count; verify against the enumerator on a concrete tree.
  UnrankedTree t = UnrankedTree::Parse("(b (c) (a (c) (c)) (b (c)))");
  UnrankedTva q = QueryMarkedAncestor(3, 1, 2);
  HomogenizedTva h = HomogenizeBinaryTva(TranslateUnrankedTva(q).tva);
  Encoding enc = EncodeTree(t, 3);
  AssignmentCircuit circuit(&enc.term, &h.tva, &h.kind);
  circuit.BuildAll();
  RunCounter counter(&circuit);
  counter.BuildAll();
  TreeEnumerator e(t, q);
  EXPECT_EQ(counter.TotalAcceptingRuns(enc.term.root()),
            e.EnumerateAll().size());
}

TEST(RunCount, ReaderThreadsReadPinnedCounts) {
  // Reader threads read the run counts at pinned snapshots while the writer
  // edits, the stores grow and retired buffers are freed; every value must
  // be the one recorded for its epoch (for this unambiguous query, the
  // number of answers of that version).
  Rng rng(521);
  UnrankedTree tree = RandomTree(20, 3, rng);
  const UnrankedTva q = QueryMarkedAncestor(3, 1, 2);
  constexpr int kEdits = 120;
  serving::CommandScript script(tree, 523, serving::WorkloadOptions{3});
  std::vector<Edit> edits;
  std::vector<uint64_t> expected;  // by epoch
  {
    StaticEngine oracle(tree, q);
    expected.push_back(oracle.EnumerateAll().size());
    for (int j = 0; j < kEdits; ++j) {
      edits.push_back(script.NextEdit());
      oracle.ApplyEdits({edits.back()});
      expected.push_back(oracle.EnumerateAll().size());
    }
  }

  DynamicDocument doc(tree, 3);
  const DynamicDocument::QueryHandle h = doc.Register(q);
  doc.pipeline(h).EnableCounting();
  const EnumerationPipeline& p = doc.pipeline(h);
  std::atomic<bool> done{false};
  std::atomic<size_t> reads{0}, mismatches{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      SnapshotRef held;  // reader 0 keeps an older pin for a while
      while (!done.load(std::memory_order_acquire)) {
        SnapshotRef snap = doc.CurrentSnapshot();
        if (r == 0 && reads.load(std::memory_order_relaxed) % 16 == 0) {
          held = snap;
        }
        for (const SnapshotRef* s : {&snap, &held}) {
          if (*s && p.AcceptingRunsAt(*s) != expected[s->epoch()]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int j = 0; j < kEdits; ++j) {
    while (reads.load(std::memory_order_relaxed) < static_cast<size_t>(j)) {
      std::this_thread::yield();
    }
    ASSERT_TRUE(doc.Apply(Command::Of(edits[j])).ok());
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(p.AcceptingRunsAt(doc.CurrentSnapshot()), expected[kEdits]);
}

}  // namespace
}  // namespace treenum
