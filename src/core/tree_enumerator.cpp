#include "core/tree_enumerator.h"

#include <cassert>

namespace treenum {

TreeEnumerator::TreeEnumerator(UnrankedTree tree, const UnrankedTva& query,
                               BoxEnumMode mode)
    : doc_(std::move(tree), query.num_labels()),
      pipe_(&doc_.pipeline(doc_.Register(query, mode))) {}

std::vector<std::vector<NodeId>> AssignmentsToTuples(
    const std::vector<Assignment>& assignments, size_t num_vars) {
  std::vector<std::vector<NodeId>> tuples;
  tuples.reserve(assignments.size());
  for (const Assignment& a : assignments) {
    std::vector<NodeId> tuple(num_vars, kNoNode);
    for (const Singleton& s : a.singletons()) {
      assert(s.var < num_vars && tuple[s.var] == kNoNode &&
             "assignment is not first-order");
      tuple[s.var] = s.node;
    }
    tuples.push_back(std::move(tuple));
  }
  return tuples;
}

}  // namespace treenum
