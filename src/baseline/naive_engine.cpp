#include "baseline/naive_engine.h"

#include <set>

namespace treenum {

namespace {

using AssignmentSet = std::set<Assignment>;

Assignment MaskAssignment(VarMask mask, NodeId n) {
  Assignment a;
  for (VarId v = 0; mask >> v; ++v) {
    if (mask & (VarMask{1} << v)) a.Add(Singleton{v, n});
  }
  a.Normalize();
  return a;
}

}  // namespace

std::vector<Assignment> MaterializeAssignments(const UnrankedTree& tree,
                                               const UnrankedTva& query) {
  size_t w = query.num_states();

  // Iterative post-order: compute per node the vector (per state) of
  // assignment sets for the subtree rooted there.
  struct F {
    NodeId n;
    size_t ci;
    // Intermediate stepwise states after consuming ci children.
    std::vector<AssignmentSet> acc;
  };
  std::vector<F> stack;
  auto open = [&](NodeId n) {
    F f;
    f.n = n;
    f.ci = 0;
    f.acc.resize(w);
    for (const auto& [mask, q] : query.InitsForLabel(tree.label(n))) {
      f.acc[q].insert(MaskAssignment(mask, n));
    }
    stack.push_back(std::move(f));
  };

  std::vector<AssignmentSet> done;  // result of the last closed node
  open(tree.root());
  while (true) {
    F& f = stack.back();
    const auto& ch = tree.children(f.n);
    if (f.ci < ch.size()) {
      open(ch[f.ci]);  // the fold happens when the child closes, below
      continue;
    }
    // Close this node.
    done = std::move(f.acc);
    stack.pop_back();
    if (stack.empty()) break;
    // Fold `done` (the child's sets) into the parent's accumulator.
    F& p = stack.back();
    ++p.ci;
    std::vector<AssignmentSet> next(w);
    for (State q = 0; q < w; ++q) {
      if (p.acc[q].empty()) continue;
      for (State c = 0; c < w; ++c) {
        if (done[c].empty()) continue;
        for (State to : query.Step(q, c)) {
          for (const Assignment& a : p.acc[q]) {
            for (const Assignment& b : done[c]) {
              next[to].insert(Assignment::DisjointUnion(a, b));
            }
          }
        }
      }
    }
    p.acc = std::move(next);
  }

  AssignmentSet all;
  for (State q : query.final_states()) {
    all.insert(done[q].begin(), done[q].end());
  }
  return {all.begin(), all.end()};
}

}  // namespace treenum
