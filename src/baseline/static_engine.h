// Static-engine baseline (the Bagan'06 / Kazana-Segoufin row of Table 1):
// linear-time preprocessing and constant-delay enumeration, but no update
// support. An edit is paid by preprocessing the edited tree again, so a
// test or bench edits its own mirror tree and builds a fresh StaticEngine
// over it; the oracle never shares the incremental path it checks.
#ifndef TREENUM_BASELINE_STATIC_ENGINE_H_
#define TREENUM_BASELINE_STATIC_ENGINE_H_

#include <utility>
#include <vector>

#include "core/tree_enumerator.h"

namespace treenum {

class StaticEngine {
 public:
  /// Preprocesses `tree` for `query`, O(|T| * poly(|Q|)).
  StaticEngine(UnrankedTree tree, const UnrankedTva& query)
      : inner_(std::move(tree), query) {}

  /// All satisfying assignments (sorted, duplicate-free).
  std::vector<Assignment> EnumerateAll() const {
    return inner_.EnumerateAll();
  }

 private:
  TreeEnumerator inner_;
};

}  // namespace treenum

#endif  // TREENUM_BASELINE_STATIC_ENGINE_H_
