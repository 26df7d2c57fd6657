// Naive materialization: computes the full set of satisfying assignments
// bottom-up on the unranked tree, with explicit per-(node, state)
// assignment sets and no factorization. Exponential in the worst case;
// serves as (a) the independent correctness oracle for the whole pipeline
// and (b) the "recompute everything on every update" baseline of the
// benchmarks, called again on the edited tree after each edit.
#ifndef TREENUM_BASELINE_NAIVE_ENGINE_H_
#define TREENUM_BASELINE_NAIVE_ENGINE_H_

#include <vector>

#include "automata/unranked_tva.h"
#include "trees/assignment.h"
#include "trees/unranked_tree.h"

namespace treenum {

/// Computes all satisfying assignments of `query` on `tree` by direct
/// materialization (sorted, duplicate-free).
std::vector<Assignment> MaterializeAssignments(const UnrankedTree& tree,
                                               const UnrankedTva& query);

}  // namespace treenum

#endif  // TREENUM_BASELINE_NAIVE_ENGINE_H_
