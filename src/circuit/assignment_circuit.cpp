#include "circuit/assignment_circuit.h"

#include <algorithm>
#include <cassert>
#include <map>

namespace treenum {

namespace {

using AssignmentSet = std::set<Assignment>;

class Materializer {
 public:
  explicit Materializer(const AssignmentCircuit& circuit)
      : circuit_(circuit) {}

  const AssignmentSet& Gamma(TermNodeId id, State q) {
    auto key = std::make_pair(id, q);
    auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;
    AssignmentSet out;
    const Box box = circuit_.box(id);
    GateKind k = box.gamma(q);
    if (k == GateKind::kTop) {
      out.insert(Assignment{});
    } else if (k == GateKind::kUnion) {
      size_t u = static_cast<size_t>(box.union_idx(q));
      const Term& term = circuit_.term();
      NodeId leaf_node = term.node(id).tree_node;
      // Var-gate inputs (leaf boxes).
      for (uint32_t vi : box.var_inputs(u)) {
        VarMask mask = box.var_mask(vi);
        Assignment a;
        for (VarId v = 0; mask >> v; ++v) {
          if (mask & (VarMask{1} << v)) a.Add(Singleton{v, leaf_node});
        }
        a.Normalize();
        out.insert(std::move(a));
      }
      // ×-gate inputs.
      TermNodeId lc = term.node(id).left;
      TermNodeId rc = term.node(id).right;
      for (uint32_t ci : box.cross_inputs(u)) {
        const CrossGate& cg = box.cross_gate(ci);
        const AssignmentSet& sl = Gamma(lc, cg.left_state);
        const AssignmentSet& sr = Gamma(rc, cg.right_state);
        for (const Assignment& a : sl) {
          for (const Assignment& b : sr) {
            out.insert(Assignment::DisjointUnion(a, b));
          }
        }
      }
      // Child ∪-gate inputs (⊤-collapse).
      for (const auto& [side, state] : box.child_union_inputs(u)) {
        const AssignmentSet& s = Gamma(side == 0 ? lc : rc, state);
        out.insert(s.begin(), s.end());
      }
    }
    return memo_.emplace(key, std::move(out)).first->second;
  }

 private:
  const AssignmentCircuit& circuit_;
  std::map<std::pair<TermNodeId, State>, AssignmentSet> memo_;
};

}  // namespace

std::set<Assignment> MaterializeGamma(const AssignmentCircuit& circuit,
                                      TermNodeId id, State q) {
  Materializer m(circuit);
  return m.Gamma(id, q);
}

std::vector<Assignment> MaterializeSatisfying(
    const AssignmentCircuit& circuit, const std::vector<uint8_t>& kind) {
  Materializer m(circuit);
  AssignmentSet all;
  TermNodeId root = circuit.term().root();
  const Box root_box = circuit.box(root);
  for (State q : circuit.tva().final_states()) {
    GateKind k = root_box.gamma(q);
    if (k == GateKind::kBot) continue;
    if (kind[q] == 0) {
      assert(k == GateKind::kTop);
      all.insert(Assignment{});
    } else {
      const AssignmentSet& s = m.Gamma(root, q);
      all.insert(s.begin(), s.end());
    }
  }
  return {all.begin(), all.end()};
}

}  // namespace treenum
