#include "enumeration/enumerate.h"

#include <algorithm>
#include <cassert>

namespace treenum {

namespace {

void AddSingletons(VarMask mask, NodeId node, Assignment* a) {
  for (VarId v = 0; mask >> v; ++v) {
    if (mask & (VarMask{1} << v)) a->Add(Singleton{v, node});
  }
}

}  // namespace

Assignment EnumOutput::ToAssignment() const {
  Assignment a;
  for (const auto& [mask, node] : contributions) AddSingletons(mask, node, &a);
  a.Normalize();
  return a;
}

AssignmentCursor::AssignmentCursor(const AssignmentCircuit* circuit,
                                   const EnumIndex* index, BoxEnumMode mode,
                                   TermNodeId box,
                                   const std::vector<uint32_t>& gamma)
    : stack_(circuit, index, mode) {
  Reset(box, gamma);
}

uint32_t AssignmentCursor::Clear(TermNodeId box) {
  stack_.Rewind(0);
  stack_.ClearSteps();
  last_ = kNoLevel;
  const size_t rows = stack_.circuit().box(box).num_unions();
  const uint32_t pos = stack_.Push(rows);
  std::fill_n(stack_.at(pos), rows, kNoPosition);
  return pos;
}

void AssignmentCursor::Reset(TermNodeId box,
                             const std::vector<uint32_t>& gamma) {
  const uint32_t pos = Clear(box);
  for (size_t i = 0; i < gamma.size(); ++i) stack_.at(pos)[gamma[i]] = i;
  if (!gamma.empty()) PushLevel(kNoLevel, box, pos, gamma.size());
}

void AssignmentCursor::ResetToStates(TermNodeId box, const uint64_t* states) {
  const uint32_t pos = Clear(box);
  // Dense ∪-gate indices follow ascending state order (circuit/circuit.h).
  const Box b = stack_.circuit().box(box);
  uint64_t cols = 0;
  size_t d = 0;
  for (size_t k = 0; d < b.num_unions(); ++k) {
    for (uint64_t u = b.union_mask()[k]; u != 0; u &= u - 1, ++d) {
      if ((states[k] >> __builtin_ctzll(u)) & 1) stack_.at(pos)[d] = cols++;
    }
  }
  if (cols > 0) PushLevel(kNoLevel, box, pos, cols);
}

void AssignmentCursor::PushFactor(uint32_t at, Level* lv, int side,
                                  uint32_t ids, uint32_t n) {
  const AssignmentCircuit& circuit = stack_.circuit();
  const TermNode& node = circuit.term().node(lv->boxes.box());
  const TermNodeId child = side == 0 ? node.left : node.right;
  const Box b = circuit.box(lv->boxes.box());
  const Box cb = circuit.box(child);
  const uint32_t pos = stack_.Push(cb.num_unions());
  uint64_t* p = stack_.at(pos);
  std::fill_n(p, cb.num_unions(), kNoPosition);
  uint64_t cols = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const CrossGate& cg = b.cross_gate(stack_.at(ids)[i]);
    const int32_t d = cb.union_idx(side == 0 ? cg.left_state : cg.right_state);
    assert(d != kNoGate);
    if (p[d] == kNoPosition) p[d] = cols++;
  }
  lv->stage = side == 0 ? kPullLeft : kPullRight;
  StoreLevel(at, *lv);
  PushLevel(at, child, pos, cols);
}

void AssignmentCursor::PushLevel(uint32_t parent, TermNodeId box,
                                 uint32_t pos, size_t cols) {
  Level lv{};
  lv.prev = last_;
  lv.parent = parent;
  lv.stage = kNextBox;
  lv.pw = static_cast<uint32_t>((cols + 63) / 64);
  const uint32_t at = stack_.Push(kLevelWords + lv.pw);
  if (parent == kNoLevel) root_ = at;
  lv.boxes.Start(&stack_, box, pos, cols);
  StoreLevel(at, lv);
  last_ = at;
}

void AssignmentCursor::PrepareBox(Level* lv) {
  const Box b = stack_.circuit().box(lv->boxes.box());
  const size_t pw = lv->pw;
  lv->nvar = b.num_var_masks();
  lv->ncross = b.num_cross_gates();
  lv->var_pos = 0;
  const size_t acc_words = (lv->nvar + lv->ncross) * pw;
  const uint32_t acc = stack_.Push(acc_words + lv->ncross);
  uint64_t* vacc = stack_.at(acc);
  uint64_t* cacc = vacc + lv->nvar * pw;
  std::fill_n(vacc, acc_words, uint64_t{0});
  const BitMatrixView rel = lv->boxes.rel(stack_);
  for (size_t g = 0; g < rel.rows(); ++g) {
    const uint64_t* row = rel.Row(g);
    if (!AnyWord(row, pw)) continue;
    for (uint32_t vi : b.var_inputs(g)) {
      for (size_t k = 0; k < pw; ++k) vacc[vi * pw + k] |= row[k];
    }
    for (uint32_t ci : b.cross_inputs(g)) {
      for (size_t k = 0; k < pw; ++k) cacc[ci * pw + k] |= row[k];
    }
    stack_.Step();
  }
  uint64_t* crosses = cacc + lv->ncross * pw;
  uint32_t n = 0;
  for (uint32_t ci = 0; ci < lv->ncross; ++ci) {
    if (AnyWord(cacc + ci * pw, pw)) crosses[n++] = ci;
  }
  lv->ncrosses = n;
  stack_.Rewind(static_cast<uint32_t>(acc + acc_words + n));
}

bool AssignmentCursor::EmitVar(uint32_t at, Level* lv) {
  const size_t pw = lv->pw;
  const uint64_t* vacc = stack_.at(lv->boxes.end());
  while (lv->var_pos < lv->nvar) {
    const uint32_t vi = lv->var_pos++;
    if (!AnyWord(vacc + vi * pw, pw)) continue;
    std::copy_n(vacc + vi * pw, pw, stack_.at(at + kLevelWords));
    stack_.Step();
    return true;
  }
  return false;
}

void AssignmentCursor::PushRight(uint32_t at, Level* lv, uint32_t child) {
  const AssignmentCircuit& circuit = stack_.circuit();
  const Box b = circuit.box(lv->boxes.box());
  const Box lb = circuit.box(circuit.term().node(lv->boxes.box()).left);
  // G×': the related ×-gates whose left input captures the left output.
  lv->right = stack_.Push(lv->ncrosses);
  const uint64_t* crosses = stack_.at(Crosses(*lv));
  const uint64_t* left_pos = crosses + lv->ncrosses;
  const uint64_t* left_prov = stack_.at(child + kLevelWords);
  uint64_t* right = stack_.at(lv->right);
  uint32_t n = 0;
  for (uint32_t i = 0; i < lv->ncrosses; ++i) {
    const CrossGate& cg = b.cross_gate(crosses[i]);
    const uint64_t p = left_pos[lb.union_idx(cg.left_state)];
    if ((left_prov[p / 64] >> (p % 64)) & 1) right[n++] = crosses[i];
  }
  assert(n > 0);
  lv->nright = n;
  stack_.Rewind(lv->right + n);
  PushFactor(at, lv, 1, lv->right, n);
}

void AssignmentCursor::CombineRight(uint32_t at, const Level& lv,
                                    uint32_t child) {
  const AssignmentCircuit& circuit = stack_.circuit();
  const Box b = circuit.box(lv.boxes.box());
  const Box rb = circuit.box(circuit.term().node(lv.boxes.box()).right);
  const size_t pw = lv.pw;
  const uint64_t* right = stack_.at(lv.right);
  const uint64_t* right_pos = right + lv.nright;
  const uint64_t* right_prov = stack_.at(child + kLevelWords);
  const uint64_t* cacc = stack_.at(lv.boxes.end()) + lv.nvar * pw;
  uint64_t* prov = stack_.at(at + kLevelWords);
  std::fill_n(prov, pw, uint64_t{0});
  for (uint32_t i = 0; i < lv.nright; ++i) {
    const uint64_t p =
        right_pos[rb.union_idx(b.cross_gate(right[i]).right_state)];
    if ((right_prov[p / 64] >> (p % 64)) & 1) {
      for (size_t k = 0; k < pw; ++k) prov[k] |= cacc[right[i] * pw + k];
    }
  }
  stack_.Step();
}

bool AssignmentCursor::Next() {
  if (last_ == kNoLevel) return false;
  uint32_t at = last_;
  Level lv = LoadLevel(at);
  for (;;) {
    if (lv.stage == kNextBox) {
      if (lv.boxes.Next(&stack_)) {
        PrepareBox(&lv);
        lv.stage = kEmitVars;
        continue;
      }
      // Exhausted: the root ends the enumeration, a right factor hands
      // control back to the left factor's last level, a left factor to its
      // parent's next box.
      if (lv.parent == kNoLevel) {
        last_ = kNoLevel;
        return false;
      }
      const uint32_t parent = lv.parent;
      Level p = LoadLevel(parent);
      if (p.stage == kPullRight) {
        stack_.Rewind(p.right);
        p.stage = kPullLeft;
        StoreLevel(parent, p);
        at = lv.prev;
        lv = LoadLevel(at);
      } else {
        stack_.Rewind(at);
        p.stage = kNextBox;
        at = parent;
        lv = p;
      }
      last_ = at;
      continue;
    }
    // kEmitVars: the var-gates first, then the ×-gates' left factor.
    if (!EmitVar(at, &lv)) {
      if (lv.ncrosses == 0) {
        lv.stage = kNextBox;
        continue;
      }
      PushFactor(at, &lv, 0, Crosses(lv), lv.ncrosses);
      at = last_;
      lv = LoadLevel(at);
      continue;
    }
    // `at` produced an output: hand it up until a left factor starts its
    // right partner or the root completes the answer.
    StoreLevel(at, lv);
    for (uint32_t child = at;;) {
      const uint32_t parent = LoadLevel(child).parent;
      if (parent == kNoLevel) return true;
      Level p = LoadLevel(parent);
      if (p.stage == kPullLeft) {
        PushRight(parent, &p, child);
        at = last_;
        lv = LoadLevel(at);
        break;
      }
      CombineRight(parent, p, child);
      child = parent;
    }
  }
}

template <typename F>
void AssignmentCursor::ForEachContribution(F f) const {
  for (uint32_t at = last_; at != kNoLevel;) {
    const Level lv = LoadLevel(at);
    if (lv.stage == kEmitVars) {  // a leaf: its last var mask was emitted
      const TermNodeId box = lv.boxes.box();
      f(stack_.circuit().box(box).var_mask(lv.var_pos - 1),
        stack_.circuit().term().node(box).tree_node);
    }
    at = lv.prev;
  }
}

bool AssignmentCursor::Next(EnumOutput* out) {
  if (!Next()) return false;
  out->contributions.clear();
  ForEachContribution([&](VarMask mask, NodeId node) {
    out->contributions.emplace_back(mask, node);
  });
  std::reverse(out->contributions.begin(), out->contributions.end());
  const uint64_t* prov = stack_.at(root_ + kLevelWords);
  out->provenance.assign(prov, prov + LoadLevel(root_).pw);
  return true;
}

void AssignmentCursor::ReadInto(Assignment* out) const {
  out->Clear();
  ForEachContribution(
      [&](VarMask mask, NodeId node) { AddSingletons(mask, node, out); });
  out->Normalize();
}

}  // namespace treenum
