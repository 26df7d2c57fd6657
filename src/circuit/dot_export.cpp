#include "circuit/dot_export.h"

#include <sstream>
#include <utility>

namespace treenum {

std::string TermToDot(const Term& term) {
  std::ostringstream out;
  out << "digraph term {\n  node [shape=box];\n";
  auto walk = [&](auto&& self, TermNodeId id) -> void {
    const TermNode& t = term.node(id);
    out << "  t" << id << " [label=\"" << term.alphabet().LabelName(t.label);
    if (t.left == kNoTerm) out << " #" << t.tree_node;
    out << "\\nsize=" << t.size << " h=" << t.height << "\"";
    if (t.is_context) out << " style=dashed";
    out << "];\n";
    if (t.left != kNoTerm) {
      out << "  t" << id << " -> t" << t.left << ";\n";
      out << "  t" << id << " -> t" << t.right << ";\n";
      self(self, t.left);
      self(self, t.right);
    }
  };
  if (term.root() != kNoTerm) walk(walk, term.root());
  out << "}\n";
  return out.str();
}

std::string CircuitToDot(const AssignmentCircuit& circuit) {
  const Term& term = circuit.term();
  std::ostringstream out;
  out << "digraph circuit {\n  rankdir=BT;\n  node [fontsize=10];\n";

  auto gate_name = [](TermNodeId box, const char* kind, size_t idx) {
    std::ostringstream s;
    s << kind << "_" << box << "_" << idx;
    return s.str();
  };

  auto walk = [&](auto&& self, TermNodeId id) -> void {
    const Box b = circuit.box(id);
    out << "  subgraph cluster_" << id << " {\n    label=\"box " << id
        << " (" << term.alphabet().LabelName(term.node(id).label)
        << ")\";\n";
    for (State q = 0; q < circuit.width(); ++q) {
      if (b.gamma(q) == GateKind::kTop) {
        out << "    " << gate_name(id, "g", q) << " [label=\"T q" << q
            << "\" shape=triangle];\n";
      } else if (b.gamma(q) == GateKind::kUnion) {
        out << "    " << gate_name(id, "g", q) << " [label=\"U q" << q
            << "\" shape=ellipse];\n";
      }
    }
    for (size_t c = 0; c < b.num_cross_gates(); ++c) {
      out << "    " << gate_name(id, "x", c) << " [label=\"x("
          << b.cross_gate(c).left_state << ","
          << b.cross_gate(c).right_state << ")\" shape=box];\n";
    }
    for (size_t v = 0; v < b.num_var_masks(); ++v) {
      out << "    " << gate_name(id, "v", v) << " [label=\"vars mask="
          << b.var_mask(v) << "\" shape=plaintext];\n";
    }
    out << "  }\n";
    // Wires.
    const TermNode& t = term.node(id);
    for (size_t u = 0; u < b.num_unions(); ++u) {
      State q = b.union_state(u);
      for (uint32_t ci : b.cross_inputs(u)) {
        out << "  " << gate_name(id, "x", ci) << " -> "
            << gate_name(id, "g", q) << ";\n";
      }
      for (uint32_t vi : b.var_inputs(u)) {
        out << "  " << gate_name(id, "v", vi) << " -> "
            << gate_name(id, "g", q) << ";\n";
      }
      const std::pair<TermNodeId, BitMatrixView> wires[] = {
          {t.left, b.wire_left()}, {t.right, b.wire_right()}};
      for (const auto& [child, wire] : wires) {
        for (size_t d = 0; d < wire.rows(); ++d) {
          if (!wire.Get(d, u)) continue;
          const State cq = circuit.box(child).union_state(d);
          out << "  " << gate_name(child, "g", cq) << " -> "
              << gate_name(id, "g", q) << " [style=dashed];\n";
        }
      }
    }
    for (size_t c = 0; c < b.num_cross_gates(); ++c) {
      out << "  " << gate_name(t.left, "g", b.cross_gate(c).left_state)
          << " -> " << gate_name(id, "x", c) << ";\n";
      out << "  " << gate_name(t.right, "g", b.cross_gate(c).right_state)
          << " -> " << gate_name(id, "x", c) << ";\n";
    }
    if (t.left != kNoTerm) {
      self(self, t.left);
      self(self, t.right);
    }
  };
  if (term.root() != kNoTerm) walk(walk, term.root());
  out << "}\n";
  return out.str();
}

}  // namespace treenum
