#include "serving/workload.h"

namespace treenum {
namespace serving {

CommandScript::CommandScript(UnrankedTree mirror, uint64_t seed,
                             const WorkloadOptions& opts)
    : mirror_(std::move(mirror)), rng_(seed), opts_(opts) {
  pool_ = mirror_.PreorderNodes();
}

Command CommandScript::Next() {
  Command c;
  if (opts_.structural_fraction > 0 && rng_.Flip(opts_.structural_fraction) &&
      NextStructural(&c)) {
    return c;
  }
  return Command::Of(NextEdit());
}

Edit CommandScript::NextEdit() {
  // A delete aimed at an inner node falls back to a relabel, so inserts
  // outnumber deletes and the document slowly grows.
  NodeId n = Pick();
  Label l = static_cast<Label>(rng_.Index(opts_.num_labels));
  switch (rng_.Index(4)) {
    case 1: {
      NodeId u = mirror_.InsertFirstChild(n, l);
      pool_.push_back(u);
      return Edit::InsertFirstChild(n, l);
    }
    case 2:
      if (n != mirror_.root()) {
        NodeId u = mirror_.InsertRightSibling(n, l);
        pool_.push_back(u);
        return Edit::InsertRightSibling(n, l);
      }
      break;
    case 3:
      if (n != mirror_.root() && mirror_.IsLeaf(n)) {
        mirror_.DeleteLeaf(n);
        return Edit::DeleteLeaf(n);
      }
      break;
    default:
      break;
  }
  mirror_.Relabel(n, l);
  return Edit::Relabel(n, l);
}

Edit CommandScript::NextRelabel() {
  NodeId n = Pick();
  Label l = static_cast<Label>(rng_.Index(opts_.num_labels));
  mirror_.Relabel(n, l);
  return Edit::Relabel(n, l);
}

bool CommandScript::NextStructural(Command* c) {
  if (mirror_.size() < 2) return false;
  // A structural op needs a non-root subtree root.
  NodeId v = Pick();
  for (int tries = 0; v == mirror_.root() && tries < 8; ++tries) v = Pick();
  if (v == mirror_.root()) return false;

  if (rng_.Flip(0.3)) {
    // Subtree delete — unless it would shrink the document too far.
    size_t sub = mirror_.SubtreeSize(v);
    if (mirror_.size() - sub >= opts_.min_size) {
      *c = Command::SubtreeDelete(v);
      mirror_.DetachSubtree(v);
      mirror_.FreeDetached(v);
      return true;
    }
  }

  // Subtree move: destination anchor must be outside subtree(v). The root
  // always qualifies (v is non-root), so rejection sampling has a safe
  // fallback.
  NodeId dst = kNoNode;
  for (int tries = 0; tries < 16; ++tries) {
    NodeId u = Pick();
    if (!InSubtree(u, v)) {
      dst = u;
      break;
    }
  }
  if (dst == kNoNode) dst = mirror_.root();
  AttachWhere where = AttachWhere::kFirstChild;
  if (dst != mirror_.root() && rng_.Flip(0.5)) {
    where = AttachWhere::kRightSibling;  // anchor must be non-root
  }
  *c = Command::SubtreeMove(v, dst, where);
  mirror_.DetachSubtree(v);
  if (where == AttachWhere::kFirstChild) {
    mirror_.AttachSubtreeFirstChild(v, dst);
  } else {
    mirror_.AttachSubtreeRightSibling(v, dst);
  }
  return true;
}

NodeId CommandScript::Pick() {
  while (true) {
    size_t i = rng_.Index(pool_.size());
    NodeId n = pool_[i];
    if (mirror_.IsAlive(n)) return n;
    pool_[i] = pool_.back();  // drop stale (deleted) entries lazily
    pool_.pop_back();
  }
}

bool CommandScript::InSubtree(NodeId u, NodeId v) const {
  for (NodeId w = u; w != kNoNode; w = mirror_.parent(w)) {
    if (w == v) return true;
  }
  return false;
}

}  // namespace serving
}  // namespace treenum
