#include "core/pipeline.h"

#include <algorithm>

namespace treenum {

bool SnapshotCursor::Next(Assignment* out) {
  if (emit_empty_) {
    emit_empty_ = false;
    out->Clear();
    return true;
  }
  if (!inner_.Next()) return false;
  inner_.ReadInto(out);
  return true;
}

EnumerationPipeline::EnumerationPipeline(
    const Term* term, std::shared_ptr<const HomogenizedTva> homog,
    BoxEnumMode mode)
    : homog_(std::move(homog)),
      circuit_(term, &homog_->tva, &homog_->kind),
      index_(&circuit_),
      mode_(mode),
      // The snapshot current at build time captured epoch() - 1 (Publish
      // captures, then bumps); it and everything newer is servable.
      min_snapshot_epoch_(term->epoch() - 1) {
  const size_t mask_words = (width() + 63) / 64;
  final_empty_.assign(mask_words, 0);
  final_nonempty_.assign(mask_words, 0);
  for (State q : homog_->tva.final_states()) {
    auto& mask = homog_->kind[q] == 1 ? final_nonempty_ : final_empty_;
    mask[q / 64] |= uint64_t{1} << (q % 64);
  }
  circuit_.BuildAll();
  if (mode_ == BoxEnumMode::kIndexed) index_.BuildAll();
}

void EnumerationPipeline::EnableCounting() {
  if (counter_) return;
  auto counter = std::make_unique<RunCounter>(&circuit_);
  counter->BuildAll();
  counter_ = std::move(counter);
}

uint64_t EnumerationPipeline::AcceptingRunsAt(const SnapshotRef& snap) const {
  const TermNodeId root = RootAt(snap);
  return counter_ && root != kNoTerm ? counter_->TotalAcceptingRuns(root) : 0;
}

void EnumerationPipeline::Apply(const std::vector<TermNodeId>& freed,
                                const std::vector<TermNodeId>& changed) {
  // One pass per layer. The circuit boxes are final after the first pass;
  // the index and the counts read them and their own children.
  for (TermNodeId id : freed) circuit_.FreeBox(id);
  circuit_.ReserveForRebuild(changed.size());
  for (TermNodeId id : changed) circuit_.RebuildBox(id);
  if (mode_ == BoxEnumMode::kIndexed) {
    for (TermNodeId id : freed) index_.FreeBoxIndex(id);
    index_.ReserveForRebuild(changed.size());
    for (TermNodeId id : changed) index_.RebuildBoxIndex(id);
  }
  if (counter_) {
    for (TermNodeId id : freed) counter_->FreeBoxCounts(id);
    for (TermNodeId id : changed) counter_->RebuildBoxCounts(id);
  }
}

void EnumerationPipeline::ReleaseRetired() {
  circuit_.ReleaseRetired();
  index_.ReleaseRetired();
  if (counter_) counter_->ReleaseRetired();
}

size_t EnumerationPipeline::retired_bytes() const {
  return circuit_.retired_bytes() + index_.retired_bytes() +
         (counter_ ? counter_->retired_bytes() : 0);
}

std::string EnumerationPipeline::ValidateStorage() const {
  std::string err = circuit_.ValidateStorage();
  if (err.empty() && mode_ == BoxEnumMode::kIndexed) {
    err = index_.ValidateStorage();
  }
  if (err.empty() && counter_) err = counter_->ValidateStorage();
  return err;
}

// ---- Query surface ----

bool EnumerationPipeline::Serves(const SnapshotRef& snap) const {
  return snap && snap.term() == &circuit_.term() &&
         snap.epoch() >= min_snapshot_epoch_;
}

TermNodeId EnumerationPipeline::RootAt(const SnapshotRef& snap) const {
  return Serves(snap) ? snap.root() : kNoTerm;
}

namespace {

bool MasksIntersect(const uint64_t* a, const std::vector<uint64_t>& b) {
  for (size_t k = 0; k < b.size(); ++k) {
    if (a[k] & b[k]) return true;
  }
  return false;
}

}  // namespace

bool EnumerationPipeline::EmptyAssignmentSatisfiesAt(TermNodeId root) const {
  return MasksIntersect(circuit_.box(root).top_mask(), final_empty_);
}

bool EnumerationPipeline::NonEmptyAssignmentAt(TermNodeId root) const {
  return MasksIntersect(circuit_.box(root).union_mask(), final_nonempty_);
}

bool EnumerationPipeline::HasAnswerAt(const SnapshotRef& snap) const {
  const TermNodeId root = RootAt(snap);
  return root != kNoTerm &&
         (EmptyAssignmentSatisfiesAt(root) || NonEmptyAssignmentAt(root));
}

SnapshotCursor EnumerationPipeline::MakeCursorAt(SnapshotRef snap) const {
  const TermNodeId root = RootAt(snap);
  SnapshotCursor c(&circuit_, &index_, mode_);
  if (root == kNoTerm) return c;  // exhausted
  c.emit_empty_ = EmptyAssignmentSatisfiesAt(root);
  if (NonEmptyAssignmentAt(root)) {
    c.inner_.ResetToStates(root, final_nonempty_.data());
  }
  c.snap_ = std::move(snap);
  return c;
}

std::vector<Assignment> EnumerationPipeline::EnumerateAt(
    const SnapshotRef& snap) const {
  std::vector<Assignment> out;
  SnapshotCursor cursor = MakeCursorAt(snap);
  Assignment a;
  while (cursor.Next(&a)) out.push_back(std::move(a));
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace treenum
