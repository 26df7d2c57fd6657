// Shared helpers for the treenum test suite: random automata/tree/term
// generators and independent brute-force oracles. Mirror edit scripts come
// from serving::CommandScript, included from serving/workload.h; ApplyOk
// applies a command that must be accepted, ApplyToTree replays an edit on
// an oracle's mirror tree, and ApplyToEncoding replays a tree command on a
// bare DynamicEncoding. CollapseInputs and DistinctBoxKeys are circuit
// oracles.
#ifndef TREENUM_TESTS_TEST_UTIL_H_
#define TREENUM_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "automata/binary_tva.h"
#include "automata/homogenize.h"
#include "automata/serialize.h"
#include "automata/unranked_tva.h"
#include "circuit/circuit.h"
#include "core/command.h"
#include "core/document.h"
#include "falgebra/term.h"
#include "falgebra/update.h"
#include "serving/workload.h"
#include "trees/assignment.h"
#include "trees/unranked_tree.h"
#include "util/random.h"

namespace treenum {

/// The serialized body of a compiled plan — the QueryCache's identity for
/// it: equal bytes iff equal automata (sizes, kinds and every relation
/// entry in order).
inline std::string PlanBytes(const HomogenizedTva& a) {
  serialize::ByteWriter w;
  serialize::AppendHomogenizedTva(a, &w);
  return w.bytes();
}

/// Random nondeterministic unranked stepwise TVA. Densities control how
/// many ι entries / δ triples are created.
inline UnrankedTva RandomUnrankedTva(Rng& rng, size_t states, size_t labels,
                                     size_t vars, size_t num_inits,
                                     size_t num_transitions) {
  UnrankedTva a(states, labels, vars);
  // Guarantee every label has at least one empty-annotation init so random
  // trees are never trivially rejected everywhere.
  for (Label l = 0; l < labels; ++l) {
    a.AddInit(l, 0, static_cast<State>(rng.Index(states)));
  }
  for (size_t i = 0; i < num_inits; ++i) {
    a.AddInit(static_cast<Label>(rng.Index(labels)),
              static_cast<VarMask>(rng.Index(size_t{1} << vars)),
              static_cast<State>(rng.Index(states)));
  }
  for (size_t i = 0; i < num_transitions; ++i) {
    a.AddTransition(static_cast<State>(rng.Index(states)),
                    static_cast<State>(rng.Index(states)),
                    static_cast<State>(rng.Index(states)));
  }
  a.AddFinal(static_cast<State>(rng.Index(states)));
  if (states > 1) a.AddFinal(static_cast<State>(rng.Index(states)));
  return a;
}

/// Random nondeterministic binary TVA over an ⊕HH-only term alphabet
/// (leaves a_t for `labels` base labels, one internal operator). Used to
/// exercise the circuit/enumeration layers directly on arbitrary binary
/// trees.
inline BinaryTva RandomBinaryTvaOnHH(Rng& rng, size_t states, size_t labels,
                                     size_t vars, size_t num_inits,
                                     size_t num_transitions) {
  TermAlphabet alphabet(labels);
  BinaryTva a(states, alphabet.num_labels(), vars);
  for (Label l = 0; l < labels; ++l) {
    a.AddLeafInit(alphabet.TreeLeaf(l), 0,
                  static_cast<State>(rng.Index(states)));
  }
  for (size_t i = 0; i < num_inits; ++i) {
    a.AddLeafInit(alphabet.TreeLeaf(static_cast<Label>(rng.Index(labels))),
                  static_cast<VarMask>(rng.Index(size_t{1} << vars)),
                  static_cast<State>(rng.Index(states)));
  }
  Label op = alphabet.Op(TermOp::kConcatHH);
  for (size_t i = 0; i < num_transitions; ++i) {
    a.AddTransition(op, static_cast<State>(rng.Index(states)),
                    static_cast<State>(rng.Index(states)),
                    static_cast<State>(rng.Index(states)));
  }
  a.AddFinal(static_cast<State>(rng.Index(states)));
  if (states > 1) a.AddFinal(static_cast<State>(rng.Index(states)));
  return a;
}

/// Random binary ⊕HH term with `leaves` leaf symbols over `labels` base
/// labels; leaf tree_node ids are 0..leaves-1.
inline TermNodeId BuildRandomHHTerm(Term& term, Rng& rng, size_t leaves,
                                    size_t labels) {
  const TermAlphabet& alphabet = term.alphabet();
  std::vector<TermNodeId> nodes;
  for (size_t i = 0; i < leaves; ++i) {
    nodes.push_back(term.NewLeaf(
        alphabet.TreeLeaf(static_cast<Label>(rng.Index(labels))),
        static_cast<NodeId>(i)));
  }
  while (nodes.size() > 1) {
    size_t i = rng.Index(nodes.size() - 1);
    TermNodeId combined =
        term.NewNode(TermOp::kConcatHH, nodes[i], nodes[i + 1]);
    nodes[i] = combined;
    nodes.erase(nodes.begin() + i + 1);
  }
  return nodes[0];
}

/// Reachable states of a binary TVA at a term node under a fixed valuation
/// of the leaf symbols (indexed by leaf tree_node id).
inline std::vector<bool> TermReachableStates(
    const BinaryTva& a, const Term& term, TermNodeId id,
    const std::vector<VarMask>& valuation) {
  const TermNode& t = term.node(id);
  std::vector<bool> out(a.num_states(), false);
  if (t.left == kNoTerm) {
    VarMask mask = t.tree_node < valuation.size() ? valuation[t.tree_node] : 0;
    for (const auto& [vars, q] : a.LeafInitsFor(t.label)) {
      if (vars == mask) out[q] = true;
    }
    return out;
  }
  std::vector<bool> l = TermReachableStates(a, term, t.left, valuation);
  std::vector<bool> r = TermReachableStates(a, term, t.right, valuation);
  for (State q1 = 0; q1 < a.num_states(); ++q1) {
    if (!l[q1]) continue;
    for (State q2 = 0; q2 < a.num_states(); ++q2) {
      if (!r[q2]) continue;
      for (State q : a.TransitionsFor(t.label, q1, q2)) out[q] = true;
    }
  }
  return out;
}

/// Brute-force satisfying assignments of a binary TVA on a term, trying all
/// valuations of the leaf symbols (tiny instances only). Returns sorted.
inline std::vector<Assignment> TermBruteForceAssignments(const BinaryTva& a,
                                                         const Term& term) {
  // Collect leaves.
  std::vector<std::pair<TermNodeId, NodeId>> leaves;
  auto walk = [&](auto&& self, TermNodeId id) -> void {
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
  size_t bits = leaves.size() * vars;
  std::vector<Assignment> out;
  NodeId max_id = 0;
  for (auto& [tid, nid] : leaves) max_id = std::max(max_id, nid);
  for (uint64_t code = 0; code < (uint64_t{1} << bits); ++code) {
    std::vector<VarMask> nu(max_id + 1, 0);
    uint64_t c = code;
    for (auto& [tid, nid] : leaves) {
      nu[nid] = static_cast<VarMask>(c & ((VarMask{1} << vars) - 1));
      c >>= vars;
    }
    std::vector<bool> root = TermReachableStates(a, term, term.root(), nu);
    bool ok = false;
    for (State q : a.final_states()) ok = ok || root[q];
    if (ok) {
      Assignment as;
      for (auto& [tid, nid] : leaves) {
        for (VarId v = 0; v < vars; ++v) {
          if (nu[nid] & (VarMask{1} << v)) as.Add(Singleton{v, nid});
        }
      }
      as.Normalize();
      out.push_back(std::move(as));
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// Prints a Status by name in gtest messages.
inline void PrintTo(Status s, std::ostream* os) { *os << StatusName(s); }

/// Applies `c` to `doc`, expecting it accepted; returns the stats.
inline UpdateStats ApplyOk(DynamicDocument& doc, const Command& c) {
  UpdateStats s = doc.Apply(c);
  EXPECT_EQ(s.status, Status::kOk);
  return s;
}

/// Applies an edit script to `doc` as one batch, expecting every edit
/// accepted.
inline void ApplyBatchOk(DynamicDocument& doc, const std::vector<Edit>& edits) {
  doc.BeginBatch();
  for (const Edit& e : edits) ApplyOk(doc, Command::Of(e));
  doc.CommitBatch();
}

/// Applies a Definition 7.1 edit to a plain tree: the mirror a test edits
/// beside the documents under test, to build its oracle from afresh.
/// Returns the inserted node's id, or kNoNode.
inline NodeId ApplyToTree(const Edit& e, UnrankedTree& tree) {
  switch (e.kind) {
    case Edit::Kind::kRelabel:
      tree.Relabel(e.node, e.label);
      break;
    case Edit::Kind::kInsertFirstChild:
      return tree.InsertFirstChild(e.node, e.label);
    case Edit::Kind::kInsertRightSibling:
      return tree.InsertRightSibling(e.node, e.label);
    case Edit::Kind::kDeleteLeaf:
      tree.DeleteLeaf(e.node);
      break;
  }
  return kNoNode;
}

/// Applies a scripted tree command (a Definition 7.1 edit or a subtree
/// move/delete) to the encoding and returns its result; the caller
/// refreshes the boxes it names.
inline const UpdateResult& ApplyToEncoding(const Command& c,
                                           DynamicEncoding& dyn) {
  switch (c.kind) {
    case Command::Kind::kRelabel:
      return dyn.Relabel(c.node, c.label);
    case Command::Kind::kInsertFirstChild:
      return dyn.InsertFirstChild(c.node, c.label);
    case Command::Kind::kInsertRightSibling:
      return dyn.InsertRightSibling(c.node, c.label);
    case Command::Kind::kDeleteLeaf:
      return dyn.DeleteLeaf(c.node);
    case Command::Kind::kSubtreeDelete:
      return dyn.SubtreeDelete(c.node);
    default:
      break;
  }
  EXPECT_EQ(c.kind, Command::Kind::kSubtreeMove);
  return dyn.SubtreeMove(c.node, c.dst, c.where == AttachWhere::kFirstChild);
}

/// A ⊤-collapse input of a ∪-gate: (side, child state), side 0 = left.
using CollapseInput = std::pair<int, State>;

/// Per state q, the ⊤-collapse inputs of γ(id, q), derived from δ and the
/// children's gate kinds alone (Lemma 3.7): a transition (q1, q2) → q at
/// id's label whose left gate γ(left, q1) is a ∪-gate and right gate
/// γ(right, q2) is ⊤ gives (0, q1), and the mirror case (1, q2). Sorted,
/// without repeats; all empty for a leaf.
inline std::vector<std::vector<CollapseInput>> CollapseInputs(
    const AssignmentCircuit& c, TermNodeId id) {
  const Term& term = c.term();
  std::vector<std::set<CollapseInput>> in(c.width());
  if (!term.IsLeaf(id)) {
    const TermNode& t = term.node(id);
    const Box lb = c.box(t.left);
    const Box rb = c.box(t.right);
    for (const Transition& tr : c.tva().transitions()) {
      if (tr.label != t.label) continue;
      const GateKind l = lb.gamma(tr.left);
      const GateKind r = rb.gamma(tr.right);
      if (l == GateKind::kUnion && r == GateKind::kTop) {
        in[tr.state].emplace(0, tr.left);
      } else if (l == GateKind::kTop && r == GateKind::kUnion) {
        in[tr.state].emplace(1, tr.right);
      }
    }
  }
  std::vector<std::vector<CollapseInput>> out;
  for (const auto& inputs : in) out.emplace_back(inputs.begin(), inputs.end());
  return out;
}

/// The number of distinct box keys among the circuit's alive term ids,
/// counted by brute force over box views: (label, leaf, and an internal
/// node's children's ⊤ and ∪ masks). A hash-consed circuit keeps exactly
/// one block per distinct key.
inline size_t DistinctBoxKeys(const AssignmentCircuit& c) {
  const Term& term = c.term();
  const size_t words = (c.width() + 63) / 64;
  std::set<std::vector<uint64_t>> keys;
  for (TermNodeId id = 0; id < term.id_bound(); ++id) {
    if (!term.IsAlive(id)) continue;
    const TermNode& t = term.node(id);
    std::vector<uint64_t> key{t.label, term.IsLeaf(id) ? 1u : 0u};
    if (!term.IsLeaf(id)) {
      for (TermNodeId child : {t.left, t.right}) {
        const Box b = c.box(child);
        key.insert(key.end(), b.top_mask(), b.top_mask() + words);
        key.insert(key.end(), b.union_mask(), b.union_mask() + words);
      }
    }
    keys.insert(std::move(key));
  }
  return keys.size();
}

}  // namespace treenum

#endif  // TREENUM_TESTS_TEST_UTIL_H_
