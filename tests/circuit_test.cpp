#include "circuit/circuit.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <utility>

#include "automata/combinators.h"
#include "automata/homogenize.h"
#include "automata/query_library.h"
#include "automata/translate.h"
#include "circuit/assignment_circuit.h"
#include "core/document.h"
#include "falgebra/builder.h"
#include "falgebra/update.h"
#include "test_util.h"

namespace treenum {
namespace {

// The ⊤-collapse inputs of ∪-gate u of id's box as its wires hold them: one
// per set bit (d, u), naming child ∪-gate d by its state.
std::vector<CollapseInput> WiredInputs(const AssignmentCircuit& c,
                                       TermNodeId id, size_t u) {
  const Term& term = c.term();
  const Box b = c.box(id);
  std::vector<CollapseInput> out;
  for (int side : {0, 1}) {
    const BitMatrixView wire = side == 0 ? b.wire_left() : b.wire_right();
    for (size_t d = 0; d < wire.rows(); ++d) {
      if (!wire.Get(d, u)) continue;
      const TermNode& t = term.node(id);
      out.emplace_back(side,
                       c.box(side == 0 ? t.left : t.right).union_state(d));
    }
  }
  return out;
}

// Structural invariants of Lemma 3.7 / Definition 3.4 on every box.
void CheckStructure(const AssignmentCircuit& c) {
  const Term& term = c.term();
  size_t w = c.width();
  // The arena invariants (span bounds, CSR monotonicity, overlap-freedom)
  // hold alongside the paper's structural ones.
  EXPECT_EQ(c.ValidateStorage(), "");
  for (TermNodeId id = 0; id < term.id_bound(); ++id) {
    if (!term.IsAlive(id)) continue;
    const Box b = c.box(id);
    // Width bound: at most w ∪-gates, at most w² ×-gates.
    EXPECT_LE(b.num_unions(), w);
    EXPECT_LE(b.num_cross_gates(), w * w);
    const std::vector<std::vector<CollapseInput>> collapse =
        CollapseInputs(c, id);
    for (size_t u = 0; u < b.num_unions(); ++u) {
      // The wires hold exactly the ⊤-collapse inputs δ dictates.
      const std::vector<CollapseInput> wired = WiredInputs(c, id, u);
      EXPECT_EQ(wired, collapse[b.union_state(u)]) << "box " << id;
      // Every ∪-gate has at least one input.
      EXPECT_TRUE(!b.cross_inputs(u).empty() || !wired.empty() ||
                  !b.var_inputs(u).empty());
      // Dense index consistency.
      State q = b.union_state(u);
      EXPECT_EQ(b.union_idx(q), static_cast<int32_t>(u));
      EXPECT_EQ(b.gamma(q), GateKind::kUnion);
    }
    if (term.IsLeaf(id)) {
      EXPECT_TRUE(b.cross_gates().empty());
      EXPECT_EQ(b.wire_left().rows() + b.wire_right().rows(), 0u);
    } else {
      EXPECT_TRUE(b.var_masks().empty());
      // ×-gates reference ∪-gates (never ⊤/⊥) in the child boxes — the
      // ⊤/⊥-collapse rule of the appendix construction — and the wires
      // have one row per child ∪-gate.
      const Box lb = c.box(term.node(id).left);
      const Box rb = c.box(term.node(id).right);
      for (const CrossGate& cg : b.cross_gates()) {
        EXPECT_EQ(lb.gamma(cg.left_state), GateKind::kUnion);
        EXPECT_EQ(rb.gamma(cg.right_state), GateKind::kUnion);
      }
      EXPECT_EQ(b.wire_left().rows(), lb.num_unions());
      EXPECT_EQ(b.wire_right().rows(), rb.num_unions());
    }
  }
}

TEST(Circuit, GammaSemanticsOnHHTerms) {
  // For every term node n and state q: S(γ(n,q)) must equal the set of
  // assignments of valuations under which some run reaches q at n
  // (Definition 3.3), checked by brute force.
  Rng rng(61);
  for (int trial = 0; trial < 25; ++trial) {
    BinaryTva raw = RandomBinaryTvaOnHH(rng, 3, 2, 1, 4, 8);
    HomogenizedTva h = HomogenizeBinaryTva(raw);
    Term term(TermAlphabet{2});
    term.set_root(BuildRandomHHTerm(term, rng, 1 + rng.Index(5), 2));
    AssignmentCircuit circuit(&term, &h.tva, &h.kind);
    circuit.BuildAll();
    CheckStructure(circuit);

    std::vector<Assignment> expected = TermBruteForceAssignments(h.tva, term);
    std::vector<Assignment> actual =
        MaterializeSatisfying(circuit, h.kind);
    EXPECT_EQ(expected, actual) << "trial " << trial;
  }
}

TEST(Circuit, GammaPerStateSemantics) {
  Rng rng(67);
  for (int trial = 0; trial < 10; ++trial) {
    BinaryTva raw = RandomBinaryTvaOnHH(rng, 3, 2, 1, 3, 7);
    HomogenizedTva h = HomogenizeBinaryTva(raw);
    Term term(TermAlphabet{2});
    term.set_root(BuildRandomHHTerm(term, rng, 3, 2));
    AssignmentCircuit circuit(&term, &h.tva, &h.kind);
    circuit.BuildAll();
    // Check every root gate against per-state brute force.
    for (State q = 0; q < h.tva.num_states(); ++q) {
      BinaryTva one(h.tva.num_states(), h.tva.num_labels(), h.tva.num_vars());
      for (const LeafInit& li : h.tva.leaf_inits()) {
        one.AddLeafInit(li.label, li.vars, li.state);
      }
      for (const Transition& t : h.tva.transitions()) {
        one.AddTransition(t.label, t.left, t.right, t.state);
      }
      one.AddFinal(q);
      std::vector<Assignment> expected =
          TermBruteForceAssignments(one, term);
      std::set<Assignment> got =
          MaterializeGamma(circuit, term.root(), q);
      std::vector<Assignment> actual(got.begin(), got.end());
      EXPECT_EQ(expected, actual) << "trial " << trial << " state " << q;
    }
  }
}

TEST(Circuit, FullTreePipelineCircuitSemantics) {
  // Translated + homogenized automata on balanced encodings of real trees.
  Rng rng(71);
  UnrankedTva q = QueryMarkedAncestor(3, 1, 2);
  TranslatedTva tr = TranslateUnrankedTva(q);
  HomogenizedTva h = HomogenizeBinaryTva(tr.tva);
  for (const char* s :
       {"(a (c))", "(b (c))", "(b (a (c)) (c))", "(a (b (c) (a (c))))"}) {
    UnrankedTree tree = UnrankedTree::Parse(s);
    Encoding enc = EncodeTree(tree, 3);
    AssignmentCircuit circuit(&enc.term, &h.tva, &h.kind);
    circuit.BuildAll();
    CheckStructure(circuit);
    std::vector<Assignment> expected = q.BruteForceAssignments(tree);
    std::vector<Assignment> actual = MaterializeSatisfying(circuit, h.kind);
    EXPECT_EQ(expected, actual) << s;
  }
}

TEST(Circuit, IncrementalRebuildMatchesFreshBuild) {
  // Rebuilding boxes along an update path yields the same circuit contents
  // as building from scratch.
  Rng rng(73);
  UnrankedTva q = QuerySelectLabel(2, 1);
  TranslatedTva tr = TranslateUnrankedTva(q);
  HomogenizedTva h = HomogenizeBinaryTva(tr.tva);

  DynamicEncoding dyn(RandomTree(40, 2, rng), 2);
  AssignmentCircuit circuit(&dyn.term(), &h.tva, &h.kind);
  circuit.BuildAll();

  for (int step = 0; step < 30; ++step) {
    std::vector<NodeId> nodes = dyn.tree().PreorderNodes();
    NodeId n = nodes[rng.Index(nodes.size())];
    UpdateResult r = dyn.InsertFirstChild(n, static_cast<Label>(
                                                 rng.Index(2)));
    for (TermNodeId id : r.freed) circuit.FreeBox(id);
    for (TermNodeId id : r.changed_bottom_up) circuit.RebuildBox(id);

    AssignmentCircuit fresh(&dyn.term(), &h.tva, &h.kind);
    fresh.BuildAll();
    std::vector<Assignment> a = MaterializeSatisfying(circuit, h.kind);
    std::vector<Assignment> b = MaterializeSatisfying(fresh, h.kind);
    ASSERT_EQ(a, b) << "step " << step;
  }
}

// Applies one scripted command to the encoding and refreshes the circuit the
// way EnumerationPipeline::Apply does: release the boxes of the freed ids,
// then rebuild the changed ids bottom-up.
void ApplyAndRefresh(const Command& c, DynamicEncoding& dyn,
                     AssignmentCircuit& circuit) {
  const UpdateResult& r = ApplyToEncoding(c, dyn);
  for (TermNodeId id : r.freed) circuit.FreeBox(id);
  circuit.ReserveForRebuild(r.changed_bottom_up.size());
  for (TermNodeId id : r.changed_bottom_up) circuit.RebuildBox(id);
}

template <typename T, typename Eq>
bool SameSpan(Span<T> a, Span<T> b, Eq eq) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(), eq);
}

// True iff two bit matrices have the same shape and words, tail bits
// included.
bool SameRows(const BitMatrixView& a, const BitMatrixView& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::equal(a.Row(0), a.Row(a.rows()), b.Row(0));
}

// Names the first gate list on which two boxes differ, or returns an empty
// string when their ×-gates, var masks, wire rows and every ∪-gate's local
// inputs agree.
std::string DiffBoxContents(const Box& a, const Box& b) {
  auto same_cross = [](const CrossGate& x, const CrossGate& y) {
    return x.left_state == y.left_state && x.right_state == y.right_state;
  };
  const std::equal_to<uint32_t> same;
  if (!SameSpan(a.cross_gates(), b.cross_gates(), same_cross)) {
    return "cross gates";
  }
  if (!SameSpan(a.var_masks(), b.var_masks(), same)) return "var masks";
  if (a.num_unions() != b.num_unions()) return "union count";
  if (!SameRows(a.wire_left(), b.wire_left())) return "left wire rows";
  if (!SameRows(a.wire_right(), b.wire_right())) return "right wire rows";
  for (size_t u = 0; u < a.num_unions(); ++u) {
    const std::string gate = " of union gate " + std::to_string(u);
    if (!SameSpan(a.cross_inputs(u), b.cross_inputs(u), same)) {
      return "cross inputs" + gate;
    }
    if (!SameSpan(a.var_inputs(u), b.var_inputs(u), same)) {
      return "var inputs" + gate;
    }
  }
  return "";
}

TEST(Circuit, PerStateViewsAcrossMaskWords) {
  // γ and the dense ∪-indices are read from per-box state bitmasks of
  // ⌈w/64⌉ words; these automata span 1, 2, 3 and 5 words, so states on
  // both sides of every word boundary go through relabels, inserts, leaf
  // deletes and subtree moves/deletes with incremental box refreshes. Each
  // alive box's whole block — masks, ×-gates, var masks, wire rows and
  // every ∪-gate's local inputs — must match a fresh build's after every
  // step.
  struct Case {
    UnrankedTva query;
    size_t words;
  };
  Case cases[] = {
      {QuerySelectLabel(3, 1), 1},
      {QueryMarkedAncestor(3, 1, 2), 2},
      {QueryAncestorAtDistance(3, 0, 6), 3},
      {UnionTva(QueryMarkedAncestor(3, 1, 2), QueryChildOfLabel(3, 0, 2)), 5},
  };
  Rng rng(83);
  for (const Case& tc : cases) {
    TranslatedTva tr = TranslateUnrankedTva(tc.query);
    HomogenizedTva h = HomogenizeBinaryTva(tr.tva);
    const size_t w = h.tva.num_states();
    ASSERT_EQ((w + 63) / 64, tc.words) << "w = " << w;

    UnrankedTree tree = RandomTree(40, 3, rng);
    DynamicEncoding dyn(tree, 3);
    AssignmentCircuit circuit(&dyn.term(), &h.tva, &h.kind);
    circuit.BuildAll();
    serving::WorkloadOptions opts{3};
    opts.structural_fraction = 0.2;
    serving::CommandScript script(tree, 1000 + w, opts);

    for (int step = 0; step < 120; ++step) {
      ApplyAndRefresh(script.Next(), dyn, circuit);
      ASSERT_EQ(circuit.ValidateStorage(), "") << "w " << w << " step " << step;

      AssignmentCircuit fresh(&dyn.term(), &h.tva, &h.kind);
      fresh.BuildAll();
      const Term& term = dyn.term();
      for (TermNodeId id = 0; id < term.id_bound(); ++id) {
        if (!term.IsAlive(id)) continue;
        const Box b = circuit.box(id);
        const Box f = fresh.box(id);
        int32_t below = 0;  // ∪-states below q
        for (State q = 0; q < w; ++q) {
          ASSERT_EQ(b.gamma(q), f.gamma(q))
              << "w " << w << " step " << step << " box " << id << " q " << q;
          int32_t d = b.union_idx(q);
          if (b.gamma(q) != GateKind::kUnion) {
            ASSERT_EQ(d, kNoGate) << "w " << w << " box " << id << " q " << q;
            continue;
          }
          ASSERT_EQ(d, below) << "w " << w << " box " << id << " q " << q;
          ASSERT_EQ(b.union_state(static_cast<size_t>(d)), q)
              << "w " << w << " box " << id << " q " << q;
          ++below;
        }
        ASSERT_EQ(static_cast<size_t>(below), b.num_unions())
            << "w " << w << " box " << id;
        ASSERT_EQ(DiffBoxContents(b, f), "")
            << "w " << w << " step " << step << " box " << id;
      }
    }
    CheckStructure(circuit);
    AssignmentCircuit fresh(&dyn.term(), &h.tva, &h.kind);
    fresh.BuildAll();
    EXPECT_EQ(MaterializeSatisfying(circuit, h.kind),
              MaterializeSatisfying(fresh, h.kind))
        << "w " << w;
  }
}

// A tree of `copies` identical subtrees under one root.
UnrankedTree RepeatedSubtrees(size_t copies) {
  std::string s = "(a";
  for (size_t i = 0; i < copies; ++i) s += " (b (c (a) (b)) (a (c) (c)))";
  return UnrankedTree::Parse(s + ")");
}

// Equal keys share one block: as many blocks as brute-force distinct keys,
// a count that stays flat as copies are added, and far fewer than boxes.
TEST(Circuit, RepeatedSubtreesShareOneBlockPerKey) {
  for (const UnrankedTva& q :
       {QuerySelectLabel(3, 1), QueryMarkedAncestor(3, 1, 2)}) {
    HomogenizedTva h = HomogenizeBinaryTva(TranslateUnrankedTva(q).tva);
    std::vector<size_t> blocks;
    for (size_t copies : {64u, 128u, 256u, 512u}) {
      Encoding enc = EncodeTree(RepeatedSubtrees(copies), 3);
      AssignmentCircuit c(&enc.term, &h.tva, &h.kind);
      c.BuildAll();
      ASSERT_EQ(c.ValidateStorage(), "") << copies;
      EXPECT_EQ(c.num_blocks(), DistinctBoxKeys(c)) << copies;
      EXPECT_LT(20 * c.num_blocks(), enc.term.num_alive()) << copies;
      blocks.push_back(c.num_blocks());
    }
    EXPECT_EQ(std::set<size_t>(blocks.begin(), blocks.end()).size(), 1u);
  }
}

// Use counts per block: a relabel moves one copy's path onto new blocks,
// and its inverse moves it back, freeing them; every use count, the block
// count and the audit return to their starting values.
TEST(Circuit, RelabelAndInverseRestoreUseCounts) {
  HomogenizedTva h = HomogenizeBinaryTva(
      TranslateUnrankedTva(QueryMarkedAncestor(3, 1, 2)).tva);
  UnrankedTree tree = RepeatedSubtrees(32);
  DynamicEncoding dyn(tree, 3);
  AssignmentCircuit circuit(&dyn.term(), &h.tva, &h.kind);
  circuit.BuildAll();
  auto uses = [&] {
    std::vector<std::pair<TermNodeId, uint32_t>> out;
    for (TermNodeId id = 0; id < dyn.term().id_bound(); ++id) {
      if (dyn.term().IsAlive(id)) out.emplace_back(id, circuit.block_uses(id));
    }
    return out;
  };
  const auto start = uses();
  const size_t blocks = circuit.num_blocks();
  auto apply = [&](const Command& c) {
    ApplyAndRefresh(c, dyn, circuit);
    ASSERT_EQ(circuit.ValidateStorage(), "");
    EXPECT_EQ(circuit.num_blocks(), DistinctBoxKeys(circuit));
  };
  size_t moved = 0;  // relabels that changed some use count
  for (NodeId n : tree.PreorderNodes()) {
    const Label l = tree.label(n);
    apply(Command::Relabel(n, (l + 1) % 3));
    moved += uses() != start;
    apply(Command::Relabel(n, l));
    EXPECT_EQ(uses(), start) << "node " << n;
    EXPECT_EQ(circuit.num_blocks(), blocks) << "node " << n;
  }
  EXPECT_EQ(moved, tree.size());
}

TEST(Circuit, GateCountLinearInTree) {
  UnrankedTva q = QuerySelectLabel(2, 1);
  TranslatedTva tr = TranslateUnrankedTva(q);
  HomogenizedTva h = HomogenizeBinaryTva(tr.tva);
  Rng rng(79);
  size_t per_node = 0;
  for (size_t n : {100u, 200u, 400u}) {
    UnrankedTree tree = RandomTree(n, 2, rng);
    Encoding enc = EncodeTree(tree, 2);
    AssignmentCircuit c(&enc.term, &h.tva, &h.kind);
    c.BuildAll();
    size_t gates = c.CountGates();
    size_t nodes = enc.term.num_alive();
    if (per_node == 0) per_node = gates / nodes + 1;
    EXPECT_LE(gates, per_node * nodes * 2) << n;
  }
}

}  // namespace
}  // namespace treenum
