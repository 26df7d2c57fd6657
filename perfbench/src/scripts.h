// Seeded operation scripts over mirror inputs. A script applies every
// operation it emits to its own mirror tree, so the emitted node
// ids and positions are valid on any document fed the same sequence, and
// the mirror is the reference state for the correctness checks.
#ifndef PERFBENCH_SCRIPTS_H_
#define PERFBENCH_SCRIPTS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/document.h"
#include "core/engine.h"
#include "trees/unranked_tree.h"
#include "util/random.h"

namespace perfbench {

using treenum::AttachWhere;
using treenum::Edit;
using treenum::Label;
using treenum::NodeId;
using treenum::Rng;
using treenum::UnrankedTree;

/// One whole-subtree move.
struct TreeMove {
  NodeId v = treenum::kNoNode;
  NodeId dst = treenum::kNoNode;
  AttachWhere where = AttachWhere::kFirstChild;
};

/// Tree edits — half relabels, half inserts (first child or right
/// sibling) or leaf deletes, an insert whenever the tree is below its
/// initial size and a delete otherwise, so the document keeps its size
/// however many edits a run makes — plus moves of small subtrees. A run's
/// document stays statistically the same from its first operation to its
/// last, so a faster program doing more operations in the same seconds is
/// not measured on a different document.
class TreeScript {
 public:
  TreeScript(UnrankedTree mirror, uint64_t seed, size_t num_labels = 3)
      : mirror_(std::move(mirror)), rng_(seed), num_labels_(num_labels),
        target_size_(mirror_.size()) {
    pool_ = mirror_.PreorderNodes();
  }

  const UnrankedTree& mirror() const { return mirror_; }

  Edit NextEdit() {
    NodeId n = Pick();
    Label l = static_cast<Label>(rng_.Index(num_labels_));
    if (rng_.Flip(0.5)) {
      if (mirror_.size() < target_size_) {
        if (n != mirror_.root() && rng_.Flip(0.5)) {
          pool_.push_back(mirror_.InsertRightSibling(n, l));
          return Edit::InsertRightSibling(n, l);
        }
        pool_.push_back(mirror_.InsertFirstChild(n, l));
        return Edit::InsertFirstChild(n, l);
      }
      for (int tries = 0; tries < 16; ++tries, n = Pick()) {
        if (n != mirror_.root() && mirror_.IsLeaf(n)) {
          mirror_.DeleteLeaf(n);
          return Edit::DeleteLeaf(n);
        }
      }
    }
    mirror_.Relabel(n, l);
    return Edit::Relabel(n, l);
  }

  /// A move of a non-root subtree of at most kMaxMoved nodes to an anchor
  /// outside it. The tree must have such a subtree.
  TreeMove NextMove() {
    TreeMove m;
    do {
      m.v = Pick();
    } while (m.v == mirror_.root() || mirror_.SubtreeSize(m.v) > kMaxMoved);
    for (int tries = 0; tries < 16; ++tries) {
      NodeId u = Pick();
      if (!InSubtree(u, m.v)) {
        m.dst = u;
        break;
      }
    }
    if (m.dst == treenum::kNoNode) m.dst = mirror_.root();
    m.where = (m.dst != mirror_.root() && rng_.Flip(0.5))
                  ? AttachWhere::kRightSibling
                  : AttachWhere::kFirstChild;
    mirror_.DetachSubtree(m.v);
    if (m.where == AttachWhere::kFirstChild) {
      mirror_.AttachSubtreeFirstChild(m.v, m.dst);
    } else {
      mirror_.AttachSubtreeRightSibling(m.v, m.dst);
    }
    return m;
  }

 private:
  NodeId Pick() {
    while (true) {
      size_t i = rng_.Index(pool_.size());
      NodeId n = pool_[i];
      if (mirror_.IsAlive(n)) return n;
      pool_[i] = pool_.back();  // drop stale (deleted) entries lazily
      pool_.pop_back();
    }
  }
  bool InSubtree(NodeId u, NodeId v) const {
    for (NodeId w = u; w != treenum::kNoNode; w = mirror_.parent(w)) {
      if (w == v) return true;
    }
    return false;
  }

  /// Moving small subtrees keeps the tree's shape statistics stationary.
  static constexpr size_t kMaxMoved = 64;

  UnrankedTree mirror_;
  Rng rng_;
  size_t num_labels_;
  size_t target_size_;
  std::vector<NodeId> pool_;
};

/// Tree leaf edit on the encoding layer (DynamicDocument::ApplyEdit's
/// counterpart one layer down).
inline const treenum::UpdateResult& ApplyTreeEdit(
    treenum::DynamicEncoding& enc, const Edit& e) {
  switch (e.kind) {
    case Edit::Kind::kInsertFirstChild:
      return enc.InsertFirstChild(e.node, e.label);
    case Edit::Kind::kInsertRightSibling:
      return enc.InsertRightSibling(e.node, e.label);
    case Edit::Kind::kDeleteLeaf:
      return enc.DeleteLeaf(e.node);
    case Edit::Kind::kRelabel:
      break;
  }
  return enc.Relabel(e.node, e.label);
}

}  // namespace perfbench

#endif  // PERFBENCH_SCRIPTS_H_
