#include "enumeration/box_enum.h"

#include <cassert>

namespace treenum {

void InitialRelationInto(size_t num_unions, const std::vector<uint32_t>& gamma,
                         BitMatrix* out) {
  out->Assign(num_unions, gamma.size());
  for (size_t i = 0; i < gamma.size(); ++i) out->Set(gamma[i], i);
}

void WireRelationInto(const AssignmentCircuit& circuit, TermNodeId box,
                      int side, BitMatrix* out) {
  const Term& term = circuit.term();
  const Box b = circuit.box(box);
  TermNodeId child =
      side == 0 ? term.node(box).left : term.node(box).right;
  const Box cb = circuit.box(child);
  out->Assign(cb.num_unions(), b.num_unions());
  for (size_t u = 0; u < b.num_unions(); ++u) {
    for (const auto& [s, state] : b.child_union_inputs(u)) {
      if (s != side) continue;
      int32_t d = cb.union_idx(state);
      assert(d != kNoGate);
      out->Set(static_cast<size_t>(d), u);
    }
  }
}

// ---------------------------------------------------------------- Indexed

IndexedBoxEnum::IndexedBoxEnum(const EnumIndex* index, TermNodeId box,
                               const std::vector<uint32_t>& gamma)
    : index_(index) {
  Reset(box, gamma);
}

void IndexedBoxEnum::Reset(TermNodeId box,
                           const std::vector<uint32_t>& gamma) {
  assert(!gamma.empty());
  top_ = 0;
  steps_ = 0;
  Frame& f = PushSlot();
  f.kind = Frame::kEnter;
  f.box = box;
  InitialRelationInto(index_->circuit().box(box).num_unions(), gamma, &f.rel);
}

IndexedBoxEnum::Frame& IndexedBoxEnum::PushSlot() {
  if (top_ == stack_.size()) stack_.emplace_back();
  return stack_[top_++];
}

// True iff the jump loop has another iteration at (box, rel): the first
// bidirectional box (lca of the gates' spans) is a strict ancestor of the
// first interesting box. `gates` are rel's non-empty rows. Outputs the span
// candidate index.
static bool WalkViable(const BoxIndex& bi, const std::vector<uint32_t>& gates,
                       int32_t* span_cand) {
  if (gates.empty()) return false;
  int32_t c1 = bi.FibLocal(gates);
  int32_t j = bi.SpanLocal(gates);
  if (j == c1) return false;
  if (bi.Lca(j, c1) != j) return false;  // j not a strict ancestor of c1
  *span_cand = j;
  return true;
}

bool IndexedBoxEnum::Next(BoxRelation* out) {
  const Term& term = index_->circuit().term();
  while (top_ > 0) {
    // Claim the top frame: its relation swaps into frel_ and the slot keeps
    // frel_'s previous (warm) buffer for reuse by a later push.
    Frame& claimed = stack_[top_ - 1];
    const Frame::Kind kind = claimed.kind;
    const TermNodeId fbox = claimed.box;
    frel_.swap(claimed.rel);
    --top_;
    ++steps_;

    if (kind == Frame::kEnter) {
      frel_.NonEmptyRowsInto(&gates_);
      assert(!gates_.empty());
      const BoxIndex bi = index_->at(fbox);
      int32_t c1 = bi.FibLocal(gates_);
      TermNodeId b1 = bi.cand_box(c1);
      // R(B1, Γ), composed straight into the caller's reused output.
      bi.cand_rel(c1).ComposeInto(frel_, &out->rel);

      // The loop continuation for this frame (Line 11-17), pushed only when
      // it will do work — this is the tail-call elimination of Lemma 6.4.
      int32_t span_cand;
      if (WalkViable(bi, gates_, &span_cand)) {
        Frame& w = PushSlot();
        w.kind = Frame::kWalk;
        w.box = fbox;
        w.rel.swap(frel_);
      }
      // Recurse below B1 (Lines 7-10); right pushed first so left pops
      // first.
      if (!term.IsLeaf(b1)) {
        const BoxIndex b1i = index_->at(b1);
        {
          Frame& r = PushSlot();
          r.kind = Frame::kEnter;
          r.box = term.node(b1).right;
          b1i.wire_right().ComposeInto(out->rel, &r.rel);
          if (!r.rel.Any()) --top_;  // vacate; the slot keeps its buffer
        }
        {
          Frame& l = PushSlot();
          l.kind = Frame::kEnter;
          l.box = term.node(b1).left;
          b1i.wire_left().ComposeInto(out->rel, &l.rel);
          if (!l.rel.Any()) --top_;
        }
      }
      out->box = b1;
      return true;
    }

    // kWalk: one iteration of the jump loop. Frames are only pushed when
    // viable, so this always performs a jump.
    frel_.NonEmptyRowsInto(&gates_);
    const BoxIndex bi = index_->at(fbox);
    int32_t span_cand;
    bool viable = WalkViable(bi, gates_, &span_cand);
    assert(viable);
    (void)viable;
    const TermNodeId jbox = bi.cand_box(span_cand);
    bi.cand_rel(span_cand).ComposeInto(frel_, &rj_);
    const BoxIndex ji = index_->at(jbox);
    assert(!term.IsLeaf(jbox));
    // Continue the loop at the left child (pushed first → popped after the
    // right subtree's Enter), if another iteration is viable there.
    {
      Frame& l = PushSlot();
      l.kind = Frame::kWalk;
      l.box = term.node(jbox).left;
      ji.wire_left().ComposeInto(rj_, &l.rel);
      bool keep = false;
      if (l.rel.Any()) {
        l.rel.NonEmptyRowsInto(&walk_gates_);
        int32_t next_span;
        keep = WalkViable(index_->at(l.box), walk_gates_, &next_span);
      }
      if (!keep) --top_;
    }
    {
      Frame& r = PushSlot();
      r.kind = Frame::kEnter;
      r.box = term.node(jbox).right;
      ji.wire_right().ComposeInto(rj_, &r.rel);
      if (!r.rel.Any()) --top_;
    }
  }
  return false;
}

// ------------------------------------------------------------------ Naive

NaiveBoxEnum::NaiveBoxEnum(const AssignmentCircuit* circuit, TermNodeId box,
                           const std::vector<uint32_t>& gamma)
    : circuit_(circuit) {
  Reset(box, gamma);
}

void NaiveBoxEnum::Reset(TermNodeId box, const std::vector<uint32_t>& gamma) {
  assert(!gamma.empty());
  top_ = 0;
  steps_ = 0;
  Frame& f = PushSlot();
  f.box = box;
  InitialRelationInto(circuit_->box(box).num_unions(), gamma, &f.rel);
}

NaiveBoxEnum::Frame& NaiveBoxEnum::PushSlot() {
  if (top_ == stack_.size()) stack_.emplace_back();
  return stack_[top_++];
}

bool NaiveBoxEnum::Next(BoxRelation* out) {
  const Term& term = circuit_->term();
  while (top_ > 0) {
    Frame& claimed = stack_[top_ - 1];
    const TermNodeId fbox = claimed.box;
    frel_.swap(claimed.rel);
    --top_;
    ++steps_;

    frel_.NonEmptyRowsInto(&gates_);
    if (gates_.empty()) continue;

    if (!term.IsLeaf(fbox)) {
      {
        Frame& r = PushSlot();
        r.box = term.node(fbox).right;
        WireRelationInto(*circuit_, fbox, 1, &wire_);
        wire_.ComposeInto(frel_, &r.rel);
        if (!r.rel.Any()) --top_;
      }
      {
        Frame& l = PushSlot();
        l.box = term.node(fbox).left;
        WireRelationInto(*circuit_, fbox, 0, &wire_);
        wire_.ComposeInto(frel_, &l.rel);
        if (!l.rel.Any()) --top_;
      }
    }

    const Box b = circuit_->box(fbox);
    bool interesting = false;
    for (uint32_t g : gates_) {
      if (b.HasNonUnionInput(g)) {
        interesting = true;
        break;
      }
    }
    if (interesting) {
      out->box = fbox;
      // Swap instead of move: the caller's previous buffer becomes the next
      // pop's swap target, keeping the cycle allocation-free.
      out->rel.swap(frel_);
      return true;
    }
  }
  return false;
}

}  // namespace treenum
