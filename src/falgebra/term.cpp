#include "falgebra/term.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <stdexcept>

namespace treenum {

TermNodeId Term::Alloc() {
  TermNodeId id;
  if (!free_list_.empty()) {
    id = free_list_.back();
    free_list_.pop_back();
    nodes_[id] = TermNode{};
    ++nodes_recycled_;
  } else {
    id = static_cast<TermNodeId>(nodes_.size());
    nodes_.push_back(TermNode{});
  }
  TermNode& t = nodes_[id];
  t.alive = true;
  t.epoch = static_cast<uint32_t>(cur_epoch_);
  ++num_alive_;
  return id;
}

void Term::DecRef(TermNodeId id) {
  TermNode& t = nodes_[id];
  // An alive node holds at least one counted reference; only a dead node
  // can be at zero here, and releasing it again is a no-op.
  assert(t.refs > 0 || !t.alive);
  if (t.refs > 0 && --t.refs == 0) zero_pending_.push_back(id);
}

void Term::set_root(TermNodeId r) {
  if (r == root_) {
    if (r != kNoTerm) nodes_[r].parent = kNoTerm;
    return;
  }
  TermNodeId old = root_;
  root_ = r;
  if (r != kNoTerm) {
    IncRef(r);
    nodes_[r].parent = kNoTerm;
  }
  if (old != kNoTerm) DecRef(old);
}

TermNodeId Term::EnsureMutable(TermNodeId id) {
  if (id == kNoTerm || !frozen(id)) return id;
  return CopyForWrite(id);
}

TermNodeId Term::CopyForWrite(TermNodeId id) {
  TermNodeId nid = Alloc();
  // Copy the source by value *after* Alloc (which may relocate storage).
  TermNode src = nodes_[id];
  {
    TermNode& dst = nodes_[nid];
    dst = src;
    dst.refs = 0;
    dst.epoch = static_cast<uint32_t>(cur_epoch_);
    dst.alive = true;
  }
  if (src.left != kNoTerm) {
    // The copy adds one parent edge to each child; the frozen original keeps
    // its edges until it is reclaimed. Redirect the children's (writer-only)
    // parent pointers to the copy — but only if they still pointed at the
    // original (a child may have been re-linked elsewhere mid-edit).
    IncRef(src.left);
    IncRef(src.right);
    if (nodes_[src.left].parent == id) nodes_[src.left].parent = nid;
    if (nodes_[src.right].parent == id) nodes_[src.right].parent = nid;
  }
  ++path_copies_;
  remap_log_.emplace_back(id, nid);
  if (src.parent == kNoTerm) {
    if (root_ == id) {
      set_root(nid);
    }
    // Detached node: the caller owns the copy.
  } else {
    // Copy the spine: make the parent mutable, then swap its child slot
    // from the original to the copy.
    TermNodeId np = EnsureMutable(src.parent);
    nodes_[nid].parent = np;
    IncRef(nid);
    if (nodes_[np].left == id) {
      nodes_[np].left = nid;
    } else {
      assert(nodes_[np].right == id);
      nodes_[np].right = nid;
    }
    DecRef(id);
  }
  return nid;
}

void Term::SweepZeros(std::vector<TermNodeId>* freed) {
  while (!zero_pending_.empty()) {
    TermNodeId id = zero_pending_.back();
    zero_pending_.pop_back();
    TermNode& t = nodes_[id];
    // Transient zeros (rotations, splits) get re-referenced before the
    // sweep; duplicates in the queue find the node already dead.
    if (!t.alive || t.refs > 0) continue;
    t.alive = false;
    free_list_.push_back(id);
    --num_alive_;
    if (freed) freed->push_back(id);
    if (t.left != kNoTerm) {
      // Push left then right so the right subtree is reclaimed first.
      DecRef(t.left);
      DecRef(t.right);
    }
  }
}

void Term::EndEdit(std::vector<TermNodeId>& freed,
                   std::vector<TermNodeId>& leaf_of,
                   std::vector<TermNodeId>& changed) {
  SweepZeros(&freed);
  for (const auto& [old_id, new_id] : remap_log_) {
    if (!IsAlive(new_id) || !IsLeaf(new_id)) continue;
    NodeId n = nodes_[new_id].tree_node;
    if (n < leaf_of.size() && leaf_of[n] == old_id) leaf_of[n] = new_id;
  }
  // Keep the last occurrence of each id and drop dead ones (e.g. splice-path
  // nodes freed by a later rebuild or split in the same edit).
  if (seen_stamp_.size() < nodes_.size()) seen_stamp_.resize(nodes_.size(), 0);
  if (++seen_epoch_ == 0) {
    std::fill(seen_stamp_.begin(), seen_stamp_.end(), 0);
    seen_epoch_ = 1;
  }
  filter_out_.clear();
  for (auto it = changed.rbegin(); it != changed.rend(); ++it) {
    if (seen_stamp_[*it] == seen_epoch_) continue;
    seen_stamp_[*it] = seen_epoch_;
    if (IsAlive(*it)) filter_out_.push_back(*it);
  }
  changed.assign(filter_out_.rbegin(), filter_out_.rend());
}

void Term::PinRoot(TermNodeId r) {
  ++live_pins_;
  IncRef(r);
}

void Term::UnpinRoot(TermNodeId r, std::vector<TermNodeId>* freed) {
  assert(live_pins_ > 0);
  --live_pins_;
  DecRef(r);
  SweepZeros(freed);
}

TermNodeId Term::NewLeaf(Label symbol, NodeId n) {
  assert(alphabet_.IsLeafSymbol(symbol));
  TermNodeId id = Alloc();
  TermNode& t = nodes_[id];
  t.label = symbol;
  t.tree_node = n;
  t.size = 1;
  t.height = 0;
  t.is_context = alphabet_.IsContextLeaf(symbol);
  return id;
}

TermNodeId Term::NewNode(TermOp op, TermNodeId left, TermNodeId right) {
  assert(IsAlive(left) && IsAlive(right));
  assert(nodes_[left].parent == kNoTerm && nodes_[right].parent == kNoTerm);
  assert(nodes_[left].is_context == OpLeftIsContext(op));
  assert(nodes_[right].is_context == OpRightIsContext(op));
  TermNodeId id = Alloc();
  TermNode& t = nodes_[id];
  t.label = alphabet_.Op(op);
  t.left = left;
  t.right = right;
  t.is_context = OpYieldsContext(op);
  nodes_[left].parent = id;
  nodes_[right].parent = id;
  IncRef(left);
  IncRef(right);
  RecomputeNode(id);
  return id;
}

void Term::ReplaceChild(TermNodeId old_id, TermNodeId new_id) {
  TermNodeId p = nodes_[old_id].parent;
  if (p == kNoTerm) {
    nodes_[new_id].parent = kNoTerm;
    set_root(new_id);
    return;
  }
  p = EnsureMutable(p);
  nodes_[old_id].parent = kNoTerm;
  nodes_[new_id].parent = p;
  IncRef(new_id);
  if (nodes_[p].left == old_id) {
    nodes_[p].left = new_id;
  } else {
    assert(nodes_[p].right == old_id);
    nodes_[p].right = new_id;
  }
  DecRef(old_id);
}

void Term::ClearParent(TermNodeId id) { nodes_[id].parent = kNoTerm; }

void Term::SetChildSlot(TermNodeId parent, bool left_slot, TermNodeId child) {
  assert(!frozen(parent));
  TermNodeId old = left_slot ? nodes_[parent].left : nodes_[parent].right;
  if (old != child) {
    IncRef(child);
    if (left_slot) {
      nodes_[parent].left = child;
    } else {
      nodes_[parent].right = child;
    }
    if (old != kNoTerm) DecRef(old);
  }
  nodes_[child].parent = parent;
}

void Term::SetChildrenRaw(TermNodeId id, TermNodeId l, TermNodeId r) {
  assert(!frozen(id));
  TermNodeId ol = nodes_[id].left;
  TermNodeId orr = nodes_[id].right;
  if (ol != l) {
    IncRef(l);
    nodes_[id].left = l;
    if (ol != kNoTerm) DecRef(ol);
  }
  if (orr != r) {
    IncRef(r);
    nodes_[id].right = r;
    if (orr != kNoTerm) DecRef(orr);
  }
  nodes_[l].parent = id;
  nodes_[r].parent = id;
  RecomputeNode(id);
}

TermNodeId Term::SpliceOp(TermOp op, TermNodeId existing, TermNodeId fresh,
                          bool fresh_on_left) {
  TermNodeId p = nodes_[existing].parent;
  bool was_left = false;
  if (p != kNoTerm) {
    p = EnsureMutable(p);
    was_left = nodes_[p].left == existing;
  }
  nodes_[existing].parent = kNoTerm;
  TermNodeId nn = fresh_on_left ? NewNode(op, fresh, existing)
                                : NewNode(op, existing, fresh);
  if (p == kNoTerm) {
    set_root(nn);
  } else {
    nodes_[nn].parent = p;
    IncRef(nn);
    if (was_left) {
      nodes_[p].left = nn;
    } else {
      nodes_[p].right = nn;
    }
    DecRef(existing);
  }
  return nn;
}

TermNodeId Term::JoinDetached(TermNodeId left, TermNodeId right) {
  bool lc = nodes_[left].is_context;
  bool rc = nodes_[right].is_context;
  assert(!(lc && rc) && "cannot concatenate two contexts");
  TermOp op = lc ? TermOp::kConcatVH
                 : (rc ? TermOp::kConcatHV : TermOp::kConcatHH);
  return NewNode(op, left, right);
}

std::pair<TermNodeId, TermNodeId> Term::SplitChildren(TermNodeId t) {
  assert(!IsLeaf(t));
  TermNodeId l = nodes_[t].left;
  TermNodeId r = nodes_[t].right;
  ClearParent(l);
  ClearParent(r);
  // A node joined earlier in this edit has no references, so no DecRef will
  // ever queue it: hand it to the sweep here.
  if (nodes_[t].refs == 0) zero_pending_.push_back(t);
  return {l, r};
}

void Term::ReleaseDetached(TermNodeId id) {
  assert(IsAlive(id) && nodes_[id].parent == kNoTerm);
  if (nodes_[id].refs == 0) zero_pending_.push_back(id);
}

void Term::SetLabel(TermNodeId id, Label label) {
  assert(!frozen(id));
  nodes_[id].label = label;
}
void Term::SetContext(TermNodeId id, bool is_context) {
  assert(!frozen(id));
  nodes_[id].is_context = is_context;
}

void Term::RecomputeNode(TermNodeId id) {
  TermNode& t = nodes_[id];
  if (t.left == kNoTerm) {
    t.size = 1;
    t.height = 0;
    return;
  }
  const TermNode& l = nodes_[t.left];
  const TermNode& r = nodes_[t.right];
  t.size = l.size + r.size;
  t.height = 1 + std::max(l.height, r.height);
}

void Term::RecomputeUp(TermNodeId id, std::vector<TermNodeId>* path) {
  while (id != kNoTerm) {
    RecomputeNode(id);
    if (path) path->push_back(id);
    id = nodes_[id].parent;
  }
}

namespace {

/// Intermediate decoded node; holes are marked nodes that get substituted.
struct DNode {
  Label label = 0;
  std::vector<DNode*> children;
  bool is_hole = false;
  TermNodeId term_leaf = kNoTerm;
};

struct DForest {
  std::vector<DNode*> roots;
  DNode* hole = nullptr;  ///< Non-null iff this is a context.
};

}  // namespace

UnrankedTree Term::Decode(std::vector<NodeId>* term_to_tree) const {
  return DecodeAt(root_, term_to_tree);
}

UnrankedTree Term::DecodeAt(TermNodeId r,
                            std::vector<NodeId>* term_to_tree) const {
  if (r == kNoTerm) {
    throw std::logic_error("Decode: empty term");
  }
  std::deque<DNode> arena;
  auto make = [&]() {
    arena.emplace_back();
    return &arena.back();
  };

  // Recursive evaluation (term height is O(log n) for balanced terms; decode
  // is a test/rebuild helper, not on the enumeration fast path).
  auto eval = [&](auto&& self, TermNodeId id) -> DForest {
    const TermNode& t = nodes_[id];
    if (t.left == kNoTerm) {
      DNode* n = make();
      n->label = alphabet_.BaseLabel(t.label);
      n->term_leaf = id;
      if (alphabet_.IsContextLeaf(t.label)) {
        DNode* hole = make();
        hole->is_hole = true;
        n->children.push_back(hole);
        return DForest{{n}, hole};
      }
      return DForest{{n}, nullptr};
    }
    DForest l = self(self, t.left);
    DForest rr = self(self, t.right);
    TermOp op = alphabet_.OpOf(t.label);
    switch (op) {
      case TermOp::kConcatHH:
      case TermOp::kConcatHV:
      case TermOp::kConcatVH: {
        DForest out;
        out.roots = l.roots;
        out.roots.insert(out.roots.end(), rr.roots.begin(), rr.roots.end());
        out.hole = l.hole ? l.hole : rr.hole;
        return out;
      }
      case TermOp::kApplyVV:
      case TermOp::kApplyVH: {
        // Replace l's hole node by r's roots, in place in its parent's child
        // list. The hole is always a child slot (never a root) because a_□
        // holes start below their node.
        DNode* hole = l.hole;
        assert(hole != nullptr);
        // Find hole in its parent: we do not store parents in DNode; instead
        // mark the hole node as becoming a "splice" node that adopts r's
        // roots and is flattened during conversion.
        hole->is_hole = false;
        hole->label = static_cast<Label>(-1);  // splice marker
        hole->children = rr.roots;
        DForest out;
        out.roots = l.roots;
        out.hole = rr.hole;
        return out;
      }
    }
    return {};
  };
  DForest top = eval(eval, r);
  if (top.hole != nullptr) {
    throw std::logic_error("Decode: term is context-typed");
  }
  // Flatten splice markers: a node's effective children expand markers.
  if (top.roots.size() != 1) {
    throw std::logic_error("Decode: term represents a forest, not one tree");
  }

  UnrankedTree tree(0);
  if (term_to_tree) term_to_tree->assign(nodes_.size(), kNoNode);

  auto convert = [&](auto&& self, DNode* d, NodeId parent) -> void {
    NodeId me;
    if (parent == kNoNode) {
      me = tree.root();
      tree.Relabel(me, d->label);
    } else {
      me = tree.AppendChild(parent, d->label);
    }
    if (term_to_tree && d->term_leaf != kNoTerm) {
      (*term_to_tree)[d->term_leaf] = me;
    }
    // Expand splice markers depth-first so child order is preserved.
    auto emit = [&](auto&& emit_self, DNode* c) -> void {
      if (c->label == static_cast<Label>(-1) && c->term_leaf == kNoTerm) {
        for (DNode* cc : c->children) emit_self(emit_self, cc);
      } else {
        self(self, c, me);
      }
    };
    for (DNode* c : d->children) emit(emit, c);
  };
  convert(convert, top.roots[0], kNoNode);
  return tree;
}

std::string Term::Validate() const {
  if (root_ == kNoTerm) return "no root";
  std::string err;
  auto fail = [&](TermNodeId id, const std::string& what) {
    if (err.empty()) {
      err = "node " + std::to_string(id) + ": " + what;
    }
  };
  auto walk = [&](auto&& self, TermNodeId id) -> void {
    if (!err.empty()) return;
    const TermNode& t = nodes_[id];
    if (!t.alive) {
      fail(id, "not alive");
      return;
    }
    if (t.left == kNoTerm) {
      if (t.right != kNoTerm) fail(id, "leaf with right child");
      if (!alphabet_.IsLeafSymbol(t.label)) fail(id, "leaf with op label");
      if (t.tree_node == kNoNode) fail(id, "leaf without tree node");
      if (t.size != 1 || t.height != 0) fail(id, "bad leaf counters");
      if (t.is_context != alphabet_.IsContextLeaf(t.label)) {
        fail(id, "leaf type mismatch");
      }
      return;
    }
    if (!alphabet_.IsOp(t.label)) {
      fail(id, "internal node with leaf label");
      return;
    }
    TermOp op = alphabet_.OpOf(t.label);
    const TermNode& l = nodes_[t.left];
    const TermNode& r = nodes_[t.right];
    if (l.parent != id || r.parent != id) fail(id, "bad child parent link");
    if (l.is_context != OpLeftIsContext(op)) fail(id, "left operand type");
    if (r.is_context != OpRightIsContext(op)) fail(id, "right operand type");
    if (t.is_context != OpYieldsContext(op)) fail(id, "result type");
    if (t.size != l.size + r.size) fail(id, "bad size");
    if (t.height != 1 + std::max(l.height, r.height)) fail(id, "bad height");
    self(self, t.left);
    self(self, t.right);
  };
  walk(walk, root_);
  if (err.empty() && nodes_[root_].parent != kNoTerm) err = "root has parent";
  return err;
}

std::string Term::ValidateStructure(uint32_t (*max_height)(uint32_t)) const {
  std::string err = Validate();
  if (!err.empty()) return err;
  if (!zero_pending_.empty()) {
    return "zero-pending queue not swept (" +
           std::to_string(zero_pending_.size()) + " entries)";
  }
  // Balance envelope on the current version.
  if (max_height != nullptr) {
    std::vector<TermNodeId> stack{root_};
    while (!stack.empty()) {
      TermNodeId id = stack.back();
      stack.pop_back();
      const TermNode& t = nodes_[id];
      if (t.height > max_height(t.size)) {
        return "node " + std::to_string(id) + ": height " +
               std::to_string(t.height) + " exceeds envelope for size " +
               std::to_string(t.size);
      }
      if (t.left != kNoTerm) {
        stack.push_back(t.left);
        stack.push_back(t.right);
      }
    }
  }
  // Global reference-count audit over every alive version (current and
  // frozen): in-degree from alive child slots plus the root slot must be
  // covered by each node's count, and the global surplus is exactly the
  // live snapshot pins. A deficit means a future double free; a surplus
  // mismatch means a leaked detached subterm (dangling splice scaffolding).
  std::vector<uint32_t> indeg(nodes_.size(), 0);
  for (TermNodeId id = 0; id < nodes_.size(); ++id) {
    const TermNode& t = nodes_[id];
    if (!t.alive || t.left == kNoTerm) continue;
    if (!IsAlive(t.left) || !IsAlive(t.right)) {
      return "node " + std::to_string(id) + ": dead child";
    }
    ++indeg[t.left];
    ++indeg[t.right];
  }
  if (root_ != kNoTerm) ++indeg[root_];
  uint64_t surplus = 0;
  for (TermNodeId id = 0; id < nodes_.size(); ++id) {
    const TermNode& t = nodes_[id];
    if (!t.alive) continue;
    if (t.refs == 0) {
      return "node " + std::to_string(id) +
             ": alive with no references (leaked)";
    }
    if (t.refs < indeg[id]) {
      return "node " + std::to_string(id) + ": refs " +
             std::to_string(t.refs) + " below in-degree " +
             std::to_string(indeg[id]);
    }
    surplus += t.refs - indeg[id];
  }
  if (surplus != live_pins_) {
    return "reference surplus " + std::to_string(surplus) +
           " does not match live pins " + std::to_string(live_pins_);
  }
  return "";
}

std::string Term::ToString(TermNodeId id) const {
  const TermNode& t = nodes_[id];
  if (t.left == kNoTerm) {
    return alphabet_.LabelName(t.label) + "#" + std::to_string(t.tree_node);
  }
  return "(" + alphabet_.LabelName(t.label) + " " + ToString(t.left) + " " +
         ToString(t.right) + ")";
}

}  // namespace treenum
