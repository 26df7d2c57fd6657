#include "enumeration/box_enum.h"

#include <cassert>
#include <cstring>

namespace treenum {

namespace {

// A frame holds R(box, Γ) by its non-empty rows: those rows, then a bitmap
// of which rows they are (one bit per ∪-gate of the box), then a metadata
// word (box, kind, a walk frame's span candidate).
constexpr size_t kMetaWords = 1;
enum FrameKind : uint32_t { kEnter = 0, kWalk = 1 };

struct Frame {
  uint32_t start;  // first packed row
  uint32_t rows;   // the box's ∪-gates
  TermNodeId box;
  FrameKind kind;
  int32_t span;  // kWalk: the span candidate of the next jump
};

TermNodeId TopBox(const EnumStack& st) {
  return static_cast<TermNodeId>(*st.at(st.top() - kMetaWords));
}

// The top frame, whose box has `rows` ∪-gates.
Frame TopFrame(const EnumStack& st, size_t rows, size_t wpr) {
  const uint64_t meta = *st.at(st.top() - kMetaWords);
  const size_t bw = (rows + 63) / 64;
  size_t packed = 0;
  for (size_t k = 0; k < bw; ++k) {
    packed += __builtin_popcountll(*st.at(st.top() - kMetaWords - bw + k));
  }
  return Frame{
      static_cast<uint32_t>(st.top() - kMetaWords - bw - packed * wpr),
      static_cast<uint32_t>(rows), static_cast<TermNodeId>(meta),
      static_cast<FrameKind>((meta >> 32) & 1),
      static_cast<int32_t>(meta >> 33)};
}

void SetMeta(uint64_t* meta, TermNodeId box, FrameKind kind, int32_t span) {
  *meta = box | (uint64_t{kind} << 32) |
          (uint64_t{static_cast<uint32_t>(span)} << 33);
}

// Packs the dense rows × wpr relation at `off`, the top of the stack, into
// a frame; pops it instead when the relation is empty.
void Pack(EnumStack* st, uint32_t off, size_t rows, size_t wpr,
          TermNodeId box, FrameKind kind, int32_t span) {
  const size_t bw = (rows + 63) / 64;
  const uint32_t bits = st->Push(bw + kMetaWords);
  uint64_t* w = st->at(0);
  std::fill_n(w + bits, bw, uint64_t{0});
  size_t packed = 0;
  for (size_t r = 0; r < rows; ++r) {
    if (!AnyWord(w + off + r * wpr, wpr)) continue;
    w[bits + r / 64] |= uint64_t{1} << (r % 64);
    std::memmove(w + off + packed++ * wpr, w + off + r * wpr, wpr * 8);
  }
  const uint32_t end = static_cast<uint32_t>(off + packed * wpr);
  if (packed == 0) return st->Rewind(off);
  std::memmove(w + end, w + bits, bw * sizeof(uint64_t));
  SetMeta(w + end + bw, box, kind, span);
  st->Rewind(static_cast<uint32_t>(end + bw + kMetaWords));
}

// Pushes the top frame's relation as a dense rows × wpr matrix.
uint32_t Unpack(EnumStack* st, const Frame& f, size_t wpr) {
  const size_t bw = (f.rows + 63) / 64;
  const uint32_t out = st->Push(f.rows * wpr);
  uint64_t* dense = st->at(out);
  const uint64_t* bits = st->at(out - kMetaWords - bw);
  const uint64_t* row = st->at(f.start);
  std::fill_n(dense, f.rows * wpr, uint64_t{0});
  for (size_t r = 0; r < f.rows; ++r) {
    if ((bits[r / 64] >> (r % 64)) & 1) {
      std::copy_n(row, wpr, dense + r * wpr);
      row += wpr;
    }
  }
  return out;
}

// Algorithm 3's jump targets for the boxed set of rel's non-empty rows, as
// candidate indices: fib, and the lca of the gates' spans (the first
// bidirectional box, see enumeration/index.h). fib < 0 for no rows.
struct Jump {
  int32_t fib = -1;
  int32_t span = -1;
};

Jump JumpOf(const BoxIndex& bi, const BitMatrixView& rel) {
  Jump j;
  for (size_t g = 0; g < rel.rows(); ++g) {
    if (!AnyWord(rel.Row(g), rel.words_per_row())) continue;
    j.span = j.fib < 0 ? bi.span(g) : bi.Lca(j.span, bi.span(g));
    j.fib = j.fib < 0 ? bi.fib(g) : std::min(j.fib, bi.fib(g));
  }
  return j;
}

// True iff the jump loop has another iteration: the first bidirectional box
// is a strict ancestor of the first interesting box.
bool Viable(const BoxIndex& bi, const Jump& j) {
  return j.fib >= 0 && j.span != j.fib && bi.Lca(j.span, j.fib) == j.span;
}

// Pushes the frame (kind, box, wire ∘ R) for the wire.cols() × `cols`
// relation R at offset `rel`, kept when it has work: a non-empty relation
// for an Enter frame, a viable jump for a walk frame.
void PushChild(EnumStack* st, FrameKind kind, TermNodeId box,
               const BitMatrixView& wire, uint32_t rel, size_t cols) {
  const size_t wpr = (cols + 63) / 64;
  const uint32_t off = st->Push(wire.rows() * wpr);
  BitMatrixView::ComposeIntoWords(
      wire, BitMatrixView(st->at(rel), wire.cols(), cols), st->at(off));
  Jump jump;
  if (kind == kWalk) {
    if (!AnyWord(st->at(off), wire.rows() * wpr)) return st->Rewind(off);
    const BoxIndex bi = st->index().at(box);
    jump = JumpOf(bi, BitMatrixView(st->at(off), wire.rows(), cols));
    if (!Viable(bi, jump)) return st->Rewind(off);
  }
  Pack(st, off, wire.rows(), wpr, box, kind, jump.span);
}

// The child step of both modes: pushes the Enter frames of `box`'s children
// for R(box, Γ) at `rel`, right first so left pops first; a leaf has none.
void PushChildren(EnumStack* st, TermNodeId box, uint32_t rel, size_t cols) {
  const Term& term = st->circuit().term();
  if (term.IsLeaf(box)) return;
  const Box b = st->circuit().box(box);
  PushChild(st, kEnter, term.node(box).right, b.wire_right(), rel, cols);
  PushChild(st, kEnter, term.node(box).left, b.wire_left(), rel, cols);
}

}  // namespace

void BoxEnum::Start(EnumStack* st, TermNodeId box, uint32_t pos,
                    size_t cols) {
  assert(cols > 0);
  const size_t wpr = (cols + 63) / 64;
  const size_t rows = st->circuit().box(box).num_unions();
  cols_ = static_cast<uint32_t>(cols);
  cur_box_ = kNoTerm;
  cur_rows_ = 0;
  base_ = st->Push(rows * wpr);
  uint64_t* rel = st->at(base_);
  const uint64_t* p = st->at(pos);
  std::fill_n(rel, rows * wpr, uint64_t{0});
  for (size_t d = 0; d < rows; ++d) {
    if (p[d] == kNoPosition) continue;
    rel[d * wpr + p[d] / 64] |= uint64_t{1} << p[d] % 64;
  }
  Pack(st, base_, rows, wpr, box, kEnter, 0);
  top_ = st->top();
}

bool BoxEnum::Next(EnumStack* st) {
  st->Rewind(top_);
  return st->mode() == BoxEnumMode::kIndexed ? NextIndexed(st)
                                             : NextNaive(st);
}

void BoxEnum::Settle(EnumStack* st, uint32_t frames_top, uint32_t rel,
                     size_t rel_words) {
  uint64_t* w = st->at(0);
  const uint32_t end = st->top();
  std::rotate(w + rel, w + rel + rel_words, w + end);
  std::memmove(w + frames_top, w + rel, (end - rel) * sizeof(uint64_t));
  top_ = static_cast<uint32_t>(frames_top + (end - rel) - rel_words);
  st->Rewind(static_cast<uint32_t>(top_ + rel_words));
}

bool BoxEnum::NextIndexed(EnumStack* st) {
  const EnumIndex& index = st->index();
  const Term& term = index.circuit().term();
  const size_t wpr = (cols_ + 63) / 64;
  while (st->top() > base_) {
    const uint32_t top = st->top();
    const BoxIndex bi = index.at(TopBox(*st));
    const Frame f = TopFrame(*st, bi.num_unions(), wpr);
    st->Step();
    // An Enter frame composes to B1 = fib(Γ); a walk frame jumps to the
    // span candidate cached when it was pushed. Above the popped frame go
    // its relation, unpacked, the relation at the target, and the
    // children's frames.
    const uint32_t src = Unpack(st, f, wpr);
    const BitMatrixView frel(st->at(src), f.rows, cols_);
    Jump jump;
    if (f.kind == kEnter) jump = JumpOf(bi, frel);
    const int32_t c = f.kind == kEnter ? jump.fib : f.span;
    const TermNodeId target = bi.cand_box(c);
    const BitMatrixView crel = bi.cand_rel(c);
    const uint32_t rel = st->Push(crel.rows() * wpr);
    BitMatrixView::ComposeIntoWords(
        crel, BitMatrixView(st->at(src), f.rows, cols_), st->at(rel));

    if (f.kind == kEnter) {
      // The loop continuation for this frame (Lines 11-17) stays on the
      // stack, in place, only when it will do work — the tail-call
      // elimination of Lemma 6.4.
      uint32_t frames_top = f.start;
      if (Viable(bi, jump)) {
        SetMeta(st->at(top - kMetaWords), f.box, kWalk, jump.span);
        frames_top = top;
      }
      // Recurse below B1 (Lines 7-10).
      PushChildren(st, target, rel, cols_);
      cur_box_ = target;
      cur_rows_ = static_cast<uint32_t>(crel.rows());
      Settle(st, frames_top, rel, crel.rows() * wpr);
      return true;
    }

    // kWalk: one iteration of the jump loop. The loop continues at the left
    // child (pushed first → popped after the right subtree's Enter).
    assert(!term.IsLeaf(target));
    const Box tb = st->circuit().box(target);
    PushChild(st, kWalk, term.node(target).left, tb.wire_left(), rel, cols_);
    PushChild(st, kEnter, term.node(target).right, tb.wire_right(), rel,
              cols_);
    Settle(st, f.start, rel, crel.rows() * wpr);
    st->Rewind(top_);
  }
  top_ = st->top();
  return false;
}

bool BoxEnum::NextNaive(EnumStack* st) {
  const size_t wpr = (cols_ + 63) / 64;
  while (st->top() > base_) {
    const Box b = st->circuit().box(TopBox(*st));
    const Frame f = TopFrame(*st, b.num_unions(), wpr);
    st->Step();
    const uint32_t rel = Unpack(st, f, wpr);
    PushChildren(st, f.box, rel, cols_);
    cur_box_ = f.box;
    cur_rows_ = f.rows;
    Settle(st, f.start, rel, f.rows * wpr);
    const BitMatrixView out = this->rel(*st);
    for (size_t g = 0; g < f.rows; ++g) {
      if (AnyWord(out.Row(g), wpr) && b.HasNonUnionInput(g)) return true;
    }
    st->Rewind(top_);
  }
  top_ = st->top();
  return false;
}

}  // namespace treenum
