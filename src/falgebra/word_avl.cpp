#include "falgebra/word_avl.h"

#include <cassert>
#include <stdexcept>

namespace treenum {

WordEncoding::WordEncoding(const Word& w, size_t num_base_labels)
    : term_(TermAlphabet(num_base_labels)) {
  if (w.empty()) {
    throw std::invalid_argument("WordEncoding: word must be non-empty");
  }
  // Perfectly balanced initial term.
  auto build = [&](auto&& self, size_t lo, size_t hi) -> TermNodeId {
    if (hi - lo == 1) {
      NodeId id = AllocPosition(w[lo]);
      TermNodeId leaf = term_.NewLeaf(term_.alphabet().TreeLeaf(w[lo]), id);
      pos_leaf_[id] = leaf;
      return leaf;
    }
    size_t mid = lo + (hi - lo) / 2;
    // Children built left before right so initial position ids equal the
    // initial positions (ids are assigned in allocation order).
    TermNodeId left = self(self, lo, mid);
    TermNodeId right = self(self, mid, hi);
    return term_.NewNode(TermOp::kConcatHH, left, right);
  };
  term_.set_root(build(build, 0, w.size()));
  size_ = w.size();
}

NodeId WordEncoding::AllocPosition(Label l) {
  NodeId id;
  if (!free_ids_.empty()) {
    id = free_ids_.back();
    free_ids_.pop_back();
    letters_[id] = l;
  } else {
    id = static_cast<NodeId>(letters_.size());
    letters_.push_back(l);
    pos_leaf_.push_back(kNoTerm);
  }
  return id;
}

TermNodeId WordEncoding::LeafAt(size_t pos) const {
  assert(pos < size_);
  TermNodeId x = term_.root();
  while (!term_.IsLeaf(x)) {
    TermNodeId l = term_.node(x).left;
    uint32_t ls = term_.node(l).size;
    if (pos < ls) {
      x = l;
    } else {
      pos -= ls;
      x = term_.node(x).right;
    }
  }
  return x;
}

Label WordEncoding::LetterAt(size_t pos) const {
  return letters_[term_.node(LeafAt(pos)).tree_node];
}

NodeId WordEncoding::PositionId(size_t pos) const {
  return term_.node(LeafAt(pos)).tree_node;
}

size_t WordEncoding::PositionOf(NodeId id) const {
  TermNodeId x = pos_leaf_[id];
  size_t pos = 0;
  while (term_.node(x).parent != kNoTerm) {
    TermNodeId p = term_.node(x).parent;
    if (term_.node(p).right == x) pos += term_.node(term_.node(p).left).size;
    x = p;
  }
  return pos;
}

Word WordEncoding::Current() const {
  Word w;
  w.reserve(size_);
  auto walk = [&](auto&& self, TermNodeId x) -> void {
    if (term_.IsLeaf(x)) {
      w.push_back(letters_[term_.node(x).tree_node]);
      return;
    }
    self(self, term_.node(x).left);
    self(self, term_.node(x).right);
  };
  walk(walk, term_.root());
  return w;
}

UpdateResult& WordEncoding::ResetResult() {
  result_.freed.clear();
  result_.changed_bottom_up.clear();
  result_.rebuilt_size = 0;
  return result_;
}

const UpdateResult& WordEncoding::Replace(size_t pos, Label l) {
  UpdateResult& result = ResetResult();
  term_.BeginEdit();
  TermNodeId leaf = term_.EnsureMutable(LeafAt(pos));
  NodeId id = term_.node(leaf).tree_node;
  letters_[id] = l;
  pos_leaf_[id] = leaf;
  term_.SetLabel(leaf, term_.alphabet().TreeLeaf(l));
  for (TermNodeId x = leaf; x != kNoTerm; x = term_.node(x).parent) {
    result.changed_bottom_up.push_back(x);
  }
  term_.EndEdit(result.freed, pos_leaf_, result.changed_bottom_up);
  return result;
}

const UpdateResult& WordEncoding::Insert(size_t pos, Label l) {
  assert(pos <= size_);
  UpdateResult& result = ResetResult();
  term_.BeginEdit();
  NodeId id = AllocPosition(l);
  TermNodeId fresh = term_.NewLeaf(term_.alphabet().TreeLeaf(l), id);
  pos_leaf_[id] = fresh;
  result.changed_bottom_up.push_back(fresh);

  bool at_end = pos == size_;
  TermNodeId anchor = at_end ? LeafAt(size_ - 1) : LeafAt(pos);
  TermNodeId nn = term_.SpliceOp(TermOp::kConcatHH, anchor, fresh,
                                 /*fresh_on_left=*/!at_end);
  ++size_;
  RebalanceUp(nn, result);
  term_.EndEdit(result.freed, pos_leaf_, result.changed_bottom_up);
  return result;
}

const UpdateResult& WordEncoding::Erase(size_t pos) {
  assert(pos < size_ && size_ > 1);
  UpdateResult& result = ResetResult();
  term_.BeginEdit();
  TermNodeId leaf = LeafAt(pos);
  NodeId id = term_.node(leaf).tree_node;
  TermNodeId p = term_.node(leaf).parent;
  TermNodeId sib = term_.node(p).left == leaf ? term_.node(p).right
                                              : term_.node(p).left;
  // Detaching p drops its last current-version reference; the end-of-edit
  // sweep reclaims p and leaf unless a pinned snapshot still reaches them.
  term_.ReplaceChild(p, sib);
  pos_leaf_[id] = kNoTerm;
  free_ids_.push_back(id);
  --size_;
  RebalanceUp(term_.node(sib).parent, result);
  term_.EndEdit(result.freed, pos_leaf_, result.changed_bottom_up);
  return result;
}

int WordEncoding::BalanceFactor(TermNodeId x) const {
  const TermNode& t = term_.node(x);
  if (t.left == kNoTerm) return 0;
  return static_cast<int>(term_.node(t.left).height) -
         static_cast<int>(term_.node(t.right).height);
}

TermNodeId WordEncoding::RotateRight(TermNodeId x, UpdateResult& result) {
  x = term_.EnsureMutable(x);
  TermNodeId y = term_.EnsureMutable(term_.node(x).left);
  TermNodeId b = term_.node(y).right;
  TermNodeId p = term_.node(x).parent;
  bool was_left = p != kNoTerm && term_.node(p).left == x;
  bool was_root = term_.root() == x;
  term_.SetChildrenRaw(x, b, term_.node(x).right);
  term_.SetChildrenRaw(y, term_.node(y).left, x);
  if (p != kNoTerm) {
    term_.SetChildSlot(p, was_left, y);
  } else if (was_root) {
    term_.set_root(y);
  } else {
    term_.ClearParent(y);  // rotation inside a detached subtree (bulk ops)
  }
  result.changed_bottom_up.push_back(x);
  return y;
}

TermNodeId WordEncoding::RotateLeft(TermNodeId x, UpdateResult& result) {
  x = term_.EnsureMutable(x);
  TermNodeId y = term_.EnsureMutable(term_.node(x).right);
  TermNodeId b = term_.node(y).left;
  TermNodeId p = term_.node(x).parent;
  bool was_left = p != kNoTerm && term_.node(p).left == x;
  bool was_root = term_.root() == x;
  term_.SetChildrenRaw(x, term_.node(x).left, b);
  term_.SetChildrenRaw(y, x, term_.node(y).right);
  if (p != kNoTerm) {
    term_.SetChildSlot(p, was_left, y);
  } else if (was_root) {
    term_.set_root(y);
  } else {
    term_.ClearParent(y);
  }
  result.changed_bottom_up.push_back(x);
  return y;
}

TermNodeId WordEncoding::RebalanceNode(TermNodeId x, UpdateResult& result) {
  x = term_.EnsureMutable(x);
  term_.SetChildrenRaw(x, term_.node(x).left, term_.node(x).right);
  int bf = BalanceFactor(x);
  if (bf > 1) {
    TermNodeId l = term_.node(x).left;
    if (BalanceFactor(l) < 0) RotateLeft(l, result);
    return RotateRight(x, result);
  }
  if (bf < -1) {
    TermNodeId r = term_.node(x).right;
    if (BalanceFactor(r) > 0) RotateRight(r, result);
    return RotateLeft(x, result);
  }
  return x;
}

TermNodeId WordEncoding::JoinTerms(TermNodeId a, TermNodeId b,
                                   UpdateResult& result) {
  if (a == kNoTerm) return b;
  if (b == kNoTerm) return a;
  int ha = static_cast<int>(term_.node(a).height);
  int hb = static_cast<int>(term_.node(b).height);
  if (ha - hb >= -1 && ha - hb <= 1) {
    TermNodeId nn = term_.JoinDetached(a, b);
    result.changed_bottom_up.push_back(nn);
    return nn;
  }
  if (ha > hb) {
    // Descend the right spine of a until the join site balances. The spine
    // node is about to be re-linked, so path-copy it first if frozen.
    a = term_.EnsureMutable(a);
    TermNodeId r = term_.node(a).right;
    term_.ClearParent(r);
    TermNodeId nr = JoinTerms(r, b, result);
    term_.SetChildSlot(a, /*left_slot=*/false, nr);
    TermNodeId nx = RebalanceNode(a, result);
    result.changed_bottom_up.push_back(nx);
    return nx;
  }
  b = term_.EnsureMutable(b);
  TermNodeId l = term_.node(b).left;
  term_.ClearParent(l);
  TermNodeId nl = JoinTerms(a, l, result);
  term_.SetChildSlot(b, /*left_slot=*/true, nl);
  TermNodeId nx = RebalanceNode(b, result);
  result.changed_bottom_up.push_back(nx);
  return nx;
}

std::pair<TermNodeId, TermNodeId> WordEncoding::SplitAt(
    TermNodeId t, size_t k, UpdateResult& result) {
  size_t sz = term_.node(t).size;
  assert(k <= sz);
  if (k == 0) return {kNoTerm, t};
  if (k == sz) return {t, kNoTerm};
  // t must be internal. It is detached and dismantled here: its children are
  // cut loose (pointer-only) and t itself is reclaimed by the end-of-edit
  // sweep once nothing references it.
  auto [l, r] = term_.SplitChildren(t);
  size_t ls = term_.node(l).size;
  if (k < ls) {
    auto [a, b] = SplitAt(l, k, result);
    return {a, JoinTerms(b, r, result)};
  }
  if (k == ls) return {l, r};
  auto [a, b] = SplitAt(r, k - ls, result);
  return {JoinTerms(l, a, result), b};
}

WordEncoding::SplitOut WordEncoding::SplitOutRange(size_t begin, size_t end,
                                                  UpdateResult& result) {
  assert(begin < end && end <= size_);
  TermNodeId whole = term_.root();
  term_.set_root(kNoTerm);
  auto [a, bc] = SplitAt(whole, begin, result);
  auto [b, c] = SplitAt(bc, end - begin, result);
  return SplitOut{a, b, c};
}

const UpdateResult& WordEncoding::MoveRange(size_t begin, size_t end,
                                            size_t dst) {
  assert(begin < end && end <= size_ && dst <= size_ - (end - begin));
  UpdateResult& result = ResetResult();
  term_.BeginEdit();
  SplitOut s = SplitOutRange(begin, end, result);
  TermNodeId rest = JoinTerms(s.prefix, s.suffix, result);
  TermNodeId root;
  if (rest == kNoTerm) {
    root = s.factor;  // the moved factor is the whole word
  } else {
    auto [r1, r2] = SplitAt(rest, dst, result);
    root = JoinTerms(JoinTerms(r1, s.factor, result), r2, result);
  }
  term_.set_root(root);
  term_.EndEdit(result.freed, pos_leaf_, result.changed_bottom_up);
  return result;
}

void WordEncoding::FreePositions(TermNodeId t) {
  walk_scratch_.clear();
  walk_scratch_.push_back(t);
  while (!walk_scratch_.empty()) {
    TermNodeId x = walk_scratch_.back();
    walk_scratch_.pop_back();
    if (term_.IsLeaf(x)) {
      NodeId id = term_.node(x).tree_node;
      pos_leaf_[id] = kNoTerm;
      free_ids_.push_back(id);
      continue;
    }
    walk_scratch_.push_back(term_.node(x).left);
    walk_scratch_.push_back(term_.node(x).right);
  }
}

const UpdateResult& WordEncoding::ExtractRange(size_t begin, size_t end,
                                               Word* extracted) {
  assert(begin < end && end <= size_ && end - begin < size_);
  UpdateResult& result = ResetResult();
  term_.BeginEdit();
  if (extracted) {
    extracted->clear();
    extracted->reserve(end - begin);
    for (size_t i = begin; i < end; ++i) extracted->push_back(LetterAt(i));
  }
  SplitOut s = SplitOutRange(begin, end, result);
  term_.set_root(JoinTerms(s.prefix, s.suffix, result));
  size_ -= end - begin;
  FreePositions(s.factor);
  // The factor's root may be a join node created this edit (refs == 0, so
  // no DecRef will ever queue it); hand it to the sweep explicitly.
  term_.ReleaseDetached(s.factor);
  term_.EndEdit(result.freed, pos_leaf_, result.changed_bottom_up);
  return result;
}

TermNodeId WordEncoding::BuildDetached(const Word& w, size_t lo, size_t hi,
                                       UpdateResult& result) {
  if (hi - lo == 1) {
    NodeId id = AllocPosition(w[lo]);
    TermNodeId leaf = term_.NewLeaf(term_.alphabet().TreeLeaf(w[lo]), id);
    pos_leaf_[id] = leaf;
    result.changed_bottom_up.push_back(leaf);
    return leaf;
  }
  size_t mid = lo + (hi - lo) / 2;
  TermNodeId left = BuildDetached(w, lo, mid, result);
  TermNodeId right = BuildDetached(w, mid, hi, result);
  TermNodeId nn = term_.JoinDetached(left, right);
  result.changed_bottom_up.push_back(nn);
  return nn;
}

const UpdateResult& WordEncoding::Concat(const Word& w) {
  assert(!w.empty());
  UpdateResult& result = ResetResult();
  term_.BeginEdit();
  TermNodeId fresh = BuildDetached(w, 0, w.size(), result);
  TermNodeId whole = term_.root();
  term_.set_root(kNoTerm);
  term_.set_root(JoinTerms(whole, fresh, result));
  size_ += w.size();
  term_.EndEdit(result.freed, pos_leaf_, result.changed_bottom_up);
  return result;
}

void WordEncoding::RebalanceUp(TermNodeId from, UpdateResult& result) {
  // Every node on the walk is an operator, as RebalanceNode needs: Insert
  // starts at its splice node, Erase at the removed node's parent.
  for (TermNodeId x = from; x != kNoTerm; x = term_.node(x).parent) {
    x = RebalanceNode(x, result);
    result.changed_bottom_up.push_back(x);
  }
}

bool WordEncoding::CheckBalanced() const {
  if (term_.root() == kNoTerm) return true;
  std::vector<TermNodeId> stack{term_.root()};
  while (!stack.empty()) {
    TermNodeId id = stack.back();
    stack.pop_back();
    if (term_.IsLeaf(id)) continue;
    int bf = BalanceFactor(id);
    if (bf < -1 || bf > 1) return false;
    stack.push_back(term_.node(id).left);
    stack.push_back(term_.node(id).right);
  }
  return true;
}

}  // namespace treenum
