#include "falgebra/update.h"

#include <algorithm>
#include <cassert>

namespace treenum {

namespace {

// True iff id's parent chain reaches the current root (rebalance candidates
// must be skipped once a region swap detached them, even though they stay
// alive until the sweep for the sake of pinned snapshots).
bool AttachedToRoot(const Term& term, TermNodeId id) {
  while (term.node(id).parent != kNoTerm) id = term.node(id).parent;
  return id == term.root();
}

}  // namespace

DynamicEncoding::DynamicEncoding(UnrankedTree tree, size_t num_base_labels)
    : enc_(EncodeTree(std::move(tree), num_base_labels)) {}

void DynamicEncoding::EnsureLeafSlot(NodeId n) {
  if (enc_.leaf_of.size() <= n) enc_.leaf_of.resize(n + 1, kNoTerm);
}

void DynamicEncoding::FinishStructural(TermNodeId from, UpdateResult& result) {
  Term& term = enc_.term;
  path_scratch_.clear();
  // The splice that produced `from` already path-copied every frozen
  // ancestor (EnsureMutable cascades to the root), so the recompute walk
  // only touches current-version nodes.
  term.RecomputeUp(from, &path_scratch_);
  result.changed_bottom_up.insert(result.changed_bottom_up.end(),
                                  path_scratch_.begin(), path_scratch_.end());
  FinishTransaction(result);
}

void DynamicEncoding::RebalanceLoop(UpdateResult& result) {
  Term& term = enc_.term;
  while (true) {
    // Root-most violator: every changed node's ancestors are in the list
    // too, so the violator of maximal size is topmost.
    TermNodeId viol = kNoTerm;
    uint32_t best = 0;
    for (TermNodeId id : result.changed_bottom_up) {
      if (!term.IsAlive(id)) continue;
      const TermNode& t = term.node(id);
      if (t.height > MaxAllowedHeight(t.size) && t.size >= best &&
          AttachedToRoot(term, id)) {
        best = t.size;
        viol = id;
      }
    }
    if (viol == kNoTerm) break;
    pieces_.clear();
    CollectPiecesInto(term, viol, pieces_);
    result.rebuilt_size += term.node(viol).size;
    TermNodeId newsub =
        EncodePieces(term, enc_.tree, pieces_.data(), pieces_.size(),
                     enc_.leaf_of, enc_scratch_, &result.changed_bottom_up);
    // Detaching the violator drops its last current-version reference; the
    // end-of-transaction sweep reclaims whatever no pinned snapshot still
    // reaches.
    term.ReplaceChild(viol, newsub);
    path_scratch_.clear();
    term.RecomputeUp(newsub, &path_scratch_);
    result.changed_bottom_up.insert(result.changed_bottom_up.end(),
                                    path_scratch_.begin(),
                                    path_scratch_.end());
  }
}

void DynamicEncoding::FinishTransaction(UpdateResult& result) {
  RebalanceLoop(result);
  enc_.term.EndEdit(result.freed, enc_.leaf_of, result.changed_bottom_up);
}

UpdateResult& DynamicEncoding::ResetResult() {
  result_.freed.clear();
  result_.changed_bottom_up.clear();
  result_.rebuilt_size = 0;
  return result_;
}

const UpdateResult& DynamicEncoding::Relabel(NodeId n, Label l) {
  UpdateResult& result = ResetResult();
  enc_.tree.Relabel(n, l);
  Term& term = enc_.term;
  term.BeginEdit();
  TermNodeId leaf = term.EnsureMutable(enc_.leaf_of[n]);
  enc_.leaf_of[n] = leaf;
  const TermAlphabet& alphabet = term.alphabet();
  Label sym = alphabet.IsContextLeaf(term.node(leaf).label)
                  ? alphabet.ContextLeaf(l)
                  : alphabet.TreeLeaf(l);
  term.SetLabel(leaf, sym);
  for (TermNodeId x = leaf; x != kNoTerm; x = term.node(x).parent) {
    result.changed_bottom_up.push_back(x);
  }
  term.EndEdit(result.freed, enc_.leaf_of, result.changed_bottom_up);
  return result;
}

const UpdateResult& DynamicEncoding::InsertLeaf(NodeId n, Label l,
                                                bool as_first_child,
                                                NodeId* new_node) {
  UpdateResult& result = ResetResult();
  UnrankedTree& tree = enc_.tree;
  bool was_leaf = tree.IsLeaf(n);
  NodeId u = as_first_child ? tree.InsertFirstChild(n, l)
                            : tree.InsertRightSibling(n, l);
  if (new_node) *new_node = u;
  EnsureLeafSlot(u);
  Term& term = enc_.term;
  term.BeginEdit();
  TermNodeId leaf_u = term.NewLeaf(term.alphabet().TreeLeaf(l), u);
  enc_.leaf_of[u] = leaf_u;
  result.changed_bottom_up.push_back(leaf_u);
  TermNodeId nn = SpliceDetached(leaf_u, n, as_first_child, was_leaf, result);
  FinishStructural(nn, result);
  return result;
}

const UpdateResult& DynamicEncoding::DeleteLeaf(NodeId n) {
  UpdateResult& result = ResetResult();
  Term& term = enc_.term;
  term.BeginEdit();
  const TermAlphabet& alphabet = term.alphabet();

  NodeId m = enc_.tree.parent(n);
  enc_.tree.DeleteLeaf(n);  // validates: n is a non-root leaf

  TermNodeId leaf = enc_.leaf_of[n];
  enc_.leaf_of[n] = kNoTerm;
  TermNodeId p = term.node(leaf).parent;
  assert(p != kNoTerm && "a non-root tree node's symbol cannot be the root");
  TermNodeId sib = term.node(p).left == leaf ? term.node(p).right
                                             : term.node(p).left;
  TermOp op = alphabet.OpOf(term.node(p).label);

  if (op == TermOp::kApplyVH) {
    // n was the sole child of m: a_t(n) filled the hole of the context `sib`
    // whose hole parent is m. Close the hole: retype the hole path from
    // a_□(m) up to sib (context → forest).
    assert(term.node(p).right == leaf);
    TermNodeId leaf_m = term.EnsureMutable(enc_.leaf_of[m]);
    enc_.leaf_of[m] = leaf_m;
    term.SetLabel(leaf_m, alphabet.TreeLeaf(enc_.tree.label(m)));
    term.SetContext(leaf_m, false);
    result.changed_bottom_up.push_back(leaf_m);
    // The path-copy cascade above may have replaced p and sib; re-resolve
    // them through leaf's (redirected) parent pointer before walking.
    p = term.node(leaf).parent;
    sib = term.node(p).left == leaf ? term.node(p).right : term.node(p).left;
    for (TermNodeId x = term.node(leaf_m).parent; x != p;
         x = term.node(x).parent) {
      TermOp xop = alphabet.OpOf(term.node(x).label);
      TermOp nop;
      switch (xop) {
        case TermOp::kConcatHV:
        case TermOp::kConcatVH:
          nop = TermOp::kConcatHH;
          break;
        case TermOp::kApplyVV:
          nop = TermOp::kApplyVH;
          break;
        default:
          assert(false && "unexpected operator on hole path");
          nop = xop;
          break;
      }
      term.SetLabel(x, alphabet.Op(nop));
      term.SetContext(x, false);
      result.changed_bottom_up.push_back(x);
    }
  }

  // Detach p (and with it leaf); the end-of-edit sweep reclaims both unless
  // a pinned snapshot still reaches them.
  term.ReplaceChild(p, sib);
  FinishStructural(term.node(sib).parent, result);
  return result;
}

bool DynamicEncoding::SubtreeContains(NodeId v, NodeId u) {
  MarkSubtree(v);
  return InSubtree(u);
}

void DynamicEncoding::MarkSubtree(NodeId v) {
  assert(enc_.tree.IsAlive(v));
  if (tree_stamp_.size() < enc_.tree.id_bound()) {
    tree_stamp_.resize(enc_.tree.id_bound(), 0);
  }
  if (++tree_epoch_ == 0) {
    std::fill(tree_stamp_.begin(), tree_stamp_.end(), 0);
    tree_epoch_ = 1;
  }
  sub_nodes_.clear();
  sub_nodes_.push_back(v);
  tree_stamp_[v] = tree_epoch_;
  // sub_nodes_ doubles as the DFS worklist: entries before `i` are final.
  for (size_t i = 0; i < sub_nodes_.size(); ++i) {
    for (NodeId c : enc_.tree.children(sub_nodes_[i])) {
      tree_stamp_[c] = tree_epoch_;
      sub_nodes_.push_back(c);
    }
  }
}

void DynamicEncoding::CutRegion(NodeId v, UpdateResult& result) {
  Term& term = enc_.term;
  const UnrankedTree& tree = enc_.tree;
  NodeId w = tree.parent(v);
  bool sole_child = tree.children(w).size() == 1;

  // X = the lowest term node covering every leaf of subtree(v) — plus
  // a_(w)'s leaf when v is w's only child, so the region re-encode retypes
  // w's symbol (its hole closes). Found by walking each leaf's root path;
  // visited nodes cache the index where they meet the first leaf's path.
  if (term_stamp_.size() < term.id_bound()) {
    term_stamp_.resize(term.id_bound(), 0);
    term_reach_.resize(term.id_bound(), 0);
  }
  if (++term_epoch_ == 0) {
    std::fill(term_stamp_.begin(), term_stamp_.end(), 0);
    term_epoch_ = 1;
  }
  lca_path_.clear();
  for (TermNodeId x = enc_.leaf_of[v]; x != kNoTerm; x = term.node(x).parent) {
    term_stamp_[x] = term_epoch_;
    term_reach_[x] = static_cast<uint32_t>(lca_path_.size());
    lca_path_.push_back(x);
  }
  size_t max_idx = 0;
  size_t num_cover = sub_nodes_.size() + (sole_child ? 1 : 0);
  for (size_t i = 1; i < num_cover; ++i) {
    NodeId n = i < sub_nodes_.size() ? sub_nodes_[i] : w;
    TermNodeId x = enc_.leaf_of[n];
    size_t walk_begin = path_scratch_.size();
    while (term_stamp_[x] != term_epoch_) {
      path_scratch_.push_back(x);
      x = term.node(x).parent;
      assert(x != kNoTerm);
    }
    uint32_t idx = term_reach_[x];
    if (idx > max_idx) max_idx = idx;
    // Cache the meet point for the walked prefix so later leaves passing
    // through it stop immediately.
    for (size_t j = walk_begin; j < path_scratch_.size(); ++j) {
      term_stamp_[path_scratch_[j]] = term_epoch_;
      term_reach_[path_scratch_[j]] = idx;
    }
    path_scratch_.resize(walk_begin);
  }

  // Collect X's pieces and drop the ones rooted inside subtree(v); climb
  // while nothing survives (the subtree's leaves may form a whole subterm).
  TermNodeId X;
  while (true) {
    X = lca_path_[max_idx];
    pieces_.clear();
    CollectPiecesInto(term, X, pieces_);
    remaining_.clear();
    for (const Piece& p : pieces_) {
      if (!InSubtree(p.root)) remaining_.push_back(p);
    }
    if (!remaining_.empty()) break;
    ++max_idx;
    assert(max_idx < lca_path_.size() &&
           "the tree root's piece survives at the term root");
  }

  // From here on the term region is rebuilt over the post-detach tree: the
  // surviving pieces' traversals skip the detached nodes automatically.
  enc_.tree.DetachSubtree(v);
  TermNodeId region =
      EncodePieces(term, tree, remaining_.data(), remaining_.size(),
                   enc_.leaf_of, enc_scratch_, &result.changed_bottom_up);
  term.ReplaceChild(X, region);
  path_scratch_.clear();
  term.RecomputeUp(region, &path_scratch_);
  result.changed_bottom_up.insert(result.changed_bottom_up.end(),
                                  path_scratch_.begin(), path_scratch_.end());
}

TermNodeId DynamicEncoding::SpliceDetached(TermNodeId sub, NodeId dst,
                                           bool as_first_child,
                                           bool dst_was_leaf,
                                           UpdateResult& result) {
  Term& term = enc_.term;
  const TermAlphabet& alphabet = term.alphabet();
  if (as_first_child) {
    if (dst_was_leaf) {
      // a_t(dst) becomes a context over the new single-child forest.
      TermNodeId leaf_d = term.EnsureMutable(enc_.leaf_of[dst]);
      enc_.leaf_of[dst] = leaf_d;
      term.SetLabel(leaf_d, alphabet.ContextLeaf(enc_.tree.label(dst)));
      term.SetContext(leaf_d, true);
      result.changed_bottom_up.push_back(leaf_d);
      return term.SpliceOp(TermOp::kApplyVH, leaf_d, sub,
                           /*fresh_on_left=*/false);
    }
    // Splice immediately left of dst's old first child c.
    NodeId c = enc_.tree.children(dst)[1];
    TermNodeId leaf_c = enc_.leaf_of[c];
    TermOp op = term.node(leaf_c).is_context ? TermOp::kConcatHV
                                             : TermOp::kConcatHH;
    return term.SpliceOp(op, leaf_c, sub, /*fresh_on_left=*/true);
  }
  // Right sibling: splice at dst's root symbol, subtree forest on the right.
  TermNodeId leaf_d = enc_.leaf_of[dst];
  TermOp op = term.node(leaf_d).is_context ? TermOp::kConcatVH
                                           : TermOp::kConcatHH;
  return term.SpliceOp(op, leaf_d, sub, /*fresh_on_left=*/false);
}

const UpdateResult& DynamicEncoding::SubtreeMove(NodeId v, NodeId dst,
                                                 bool as_first_child) {
  UpdateResult& result = ResetResult();
  UnrankedTree& tree = enc_.tree;
  assert(v != tree.root() && (as_first_child || dst != tree.root()));
  MarkSubtree(v);
  assert(!InSubtree(dst) && "dst inside the moved subtree");
  Term& term = enc_.term;
  term.BeginEdit();
  CutRegion(v, result);
  // Re-encode the detached subtree as one balanced subterm.
  Piece sub_piece{v, kNoNode};
  TermNodeId sub = EncodePieces(term, tree, &sub_piece, 1, enc_.leaf_of,
                                enc_scratch_, &result.changed_bottom_up);
  bool dst_was_leaf = tree.IsLeaf(dst);
  if (as_first_child) {
    tree.AttachSubtreeFirstChild(v, dst);
  } else {
    tree.AttachSubtreeRightSibling(v, dst);
  }
  TermNodeId nn = SpliceDetached(sub, dst, as_first_child, dst_was_leaf,
                                 result);
  FinishStructural(nn, result);
  return result;
}

const UpdateResult& DynamicEncoding::SubtreeDelete(NodeId v) {
  UpdateResult& result = ResetResult();
  UnrankedTree& tree = enc_.tree;
  assert(v != tree.root());
  MarkSubtree(v);
  enc_.term.BeginEdit();
  CutRegion(v, result);
  for (NodeId n : sub_nodes_) enc_.leaf_of[n] = kNoTerm;
  tree.FreeDetached(v);
  FinishTransaction(result);
  return result;
}

const UpdateResult& DynamicEncoding::SubtreeExtract(NodeId v,
                                                    UnrankedTree* extracted) {
  if (extracted != nullptr) *extracted = enc_.tree.CopySubtree(v);
  return SubtreeDelete(v);
}

const UpdateResult& DynamicEncoding::GraftSubtree(const UnrankedTree& src,
                                                  NodeId src_root, NodeId dst,
                                                  bool as_first_child,
                                                  NodeId* new_root) {
  UpdateResult& result = ResetResult();
  UnrankedTree& tree = enc_.tree;
  assert(as_first_child || dst != tree.root());
  NodeId v = tree.CopyDetachedFrom(src, src_root);
  if (new_root) *new_root = v;
  Term& term = enc_.term;
  term.BeginEdit();
  Piece sub_piece{v, kNoNode};
  TermNodeId sub = EncodePieces(term, tree, &sub_piece, 1, enc_.leaf_of,
                                enc_scratch_, &result.changed_bottom_up);
  bool dst_was_leaf = tree.IsLeaf(dst);
  if (as_first_child) {
    tree.AttachSubtreeFirstChild(v, dst);
  } else {
    tree.AttachSubtreeRightSibling(v, dst);
  }
  TermNodeId nn = SpliceDetached(sub, dst, as_first_child, dst_was_leaf,
                                 result);
  FinishStructural(nn, result);
  return result;
}

bool DynamicEncoding::CheckBalanced() const {
  const Term& term = enc_.term;
  if (term.root() == kNoTerm) return true;
  std::vector<TermNodeId> stack{term.root()};
  while (!stack.empty()) {
    TermNodeId id = stack.back();
    stack.pop_back();
    const TermNode& t = term.node(id);
    if (t.height > MaxAllowedHeight(t.size)) return false;
    if (t.left != kNoTerm) {
      stack.push_back(t.left);
      stack.push_back(t.right);
    }
  }
  return true;
}

}  // namespace treenum
