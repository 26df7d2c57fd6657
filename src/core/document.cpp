#include "core/document.h"

#include <algorithm>
#include <cassert>

#include "util/check.h"

namespace treenum {

DynamicDocument::DynamicDocument(UnrankedTree tree, size_t num_labels,
                                 QueryCache* cache)
    : tree_enc_(std::make_unique<DynamicEncoding>(std::move(tree), num_labels)),
      term_(&tree_enc_->term()),
      snapshots_(std::make_unique<TermSnapshots>(&mutable_term())),
      cache_(cache != nullptr ? cache : &QueryCache::Global()) {
  snapshots_->Publish();
}

DynamicDocument::DynamicDocument(const Word& w, size_t num_labels,
                                 QueryCache* cache)
    : word_enc_(std::make_unique<WordEncoding>(w, num_labels)),
      term_(&word_enc_->term()),
      snapshots_(std::make_unique<TermSnapshots>(&mutable_term())),
      cache_(cache != nullptr ? cache : &QueryCache::Global()) {
  snapshots_->Publish();
}

const UnrankedTree& DynamicDocument::tree() const {
  TREENUM_CHECK(tree_enc_ != nullptr, "tree() requires a tree document");
  return tree_enc_->tree();
}

const WordEncoding& DynamicDocument::word_encoding() const {
  TREENUM_CHECK(word_enc_ != nullptr,
                "word_encoding() requires a word document");
  return *word_enc_;
}

size_t DynamicDocument::size() const {
  return tree_enc_ ? tree_enc_->tree().size() : word_enc_->size();
}

Status DynamicDocument::CheckRegister(bool on_tree, size_t num_labels) const {
  if (on_tree != (tree_enc_ != nullptr)) return Status::kWrongDocumentKind;
  if (in_batch_) return Status::kInBatch;
  // Translation always builds TermAlphabet(query.num_labels()), so the
  // alphabet check needs no translation — which lets a cache hit skip
  // the whole compile pipeline.
  return num_labels == term_->alphabet().num_base_labels()
             ? Status::kOk
             : Status::kWrongAlphabet;
}

DynamicDocument::Registration DynamicDocument::Register(
    const UnrankedTva& query, BoxEnumMode mode) {
  const Status s = CheckRegister(/*on_tree=*/true, query.num_labels());
  if (s != Status::kOk) return {kNoHandle, s};
  return {AdmitShared(cache_->CompileTree(query), mode), s};
}

DynamicDocument::Registration DynamicDocument::Register(const Wva& query,
                                                        BoxEnumMode mode) {
  const Status s = CheckRegister(/*on_tree=*/false, query.num_labels());
  if (s != Status::kOk) return {kNoHandle, s};
  return {AdmitShared(cache_->CompileWord(query), mode), s};
}

DynamicDocument::QueryHandle DynamicDocument::AdmitShared(
    std::shared_ptr<const HomogenizedTva> homog, BoxEnumMode mode) {
  // The cache hash-conses plans, so plan identity is query identity.
  auto it = std::find_if(entries_.begin(), entries_.end(),
                         [&](const std::unique_ptr<QueryEntry>& e) {
                           return e->pipeline.automaton() == homog &&
                                  e->pipeline.mode() == mode;
                         });
  QueryEntry* entry;
  if (it == entries_.end()) {
    // New query: a pipeline over the current term. It shares the cache's
    // refcounted plan handle, so a live registration pins the cache entry.
    entries_.push_back(
        std::make_unique<QueryEntry>(term_, std::move(homog), mode));
    entry = entries_.back().get();
  } else {
    entry = it->get();
    ++shared_hits_;  // another registration shares the pipeline
  }

  ++entry->refcount;
  ++num_live_;
  uint32_t slot;
  if (!handle_free_.empty()) {
    slot = handle_free_.back();
    handle_free_.pop_back();
  } else {
    slot = static_cast<uint32_t>(handle_entry_.size());
    handle_entry_.push_back(nullptr);
    handle_gen_.push_back(0);
  }
  handle_entry_[slot] = entry;
  return MakeHandle(slot, handle_gen_[slot]);
}

Status DynamicDocument::Unregister(QueryHandle handle) {
  if (in_batch_) return Status::kInBatch;
  if (!IsRegistered(handle)) return Status::kUnknownHandle;
  const uint32_t slot = HandleSlot(handle);
  QueryEntry& e = *handle_entry_[slot];
  handle_entry_[slot] = nullptr;
  ++handle_gen_[slot];  // invalidate any copies of this handle
  handle_free_.push_back(slot);
  --e.refcount;
  --num_live_;
  if (e.refcount == 0) {
    // The last registration takes the pipeline with it; its plan handle
    // goes back to the cache, which alone decides how long to keep it.
    entries_.erase(std::find_if(entries_.begin(), entries_.end(),
                                [&](const std::unique_ptr<QueryEntry>& p) {
                                  return p.get() == &e;
                                }));
  }
  return Status::kOk;
}

bool DynamicDocument::IsRegistered(QueryHandle handle) const {
  const uint32_t slot = HandleSlot(handle);
  return slot < handle_entry_.size() &&
         handle_gen_[slot] == HandleGen(handle) &&
         handle_entry_[slot] != nullptr;
}

EnumerationPipeline& DynamicDocument::pipeline(QueryHandle handle) {
  TREENUM_CHECK(IsRegistered(handle), "unknown or already-unregistered query");
  return handle_entry_[HandleSlot(handle)]->pipeline;
}

const EnumerationPipeline& DynamicDocument::pipeline(
    QueryHandle handle) const {
  TREENUM_CHECK(IsRegistered(handle), "unknown or already-unregistered query");
  return handle_entry_[HandleSlot(handle)]->pipeline;
}

DocumentStats DynamicDocument::stats() const {
  DocumentStats s;
  s.live_queries = num_live_;
  s.live_pipelines = entries_.size();
  s.shared_hits = shared_hits_;
  s.handle_slots = handle_entry_.size();
  s.retired_bytes = term_->retired_bytes();
  for (const std::unique_ptr<QueryEntry>& e : entries_) {
    DocumentStats::PipelineStats ps;
    ps.queries = e->refcount;
    ps.width = e->pipeline.width();
    ps.circuit_blocks = e->pipeline.circuit().num_blocks();
    s.pipelines.push_back(ps);
    s.retired_bytes += e->pipeline.retired_bytes();
  }
  return s;
}

UpdateStats DynamicDocument::Apply(const Command& command) {
  UpdateStats stats;
  stats.status = Check(command);
  if (stats.status != Status::kOk) return stats;  // nothing drained or changed
  PreEdit();
  const UpdateResult& result = Run(command);
  freed_.insert(freed_.end(), result.freed.begin(), result.freed.end());
  changed_.insert(changed_.end(), result.changed_bottom_up.begin(),
                  result.changed_bottom_up.end());
  stats.edits_applied = 1;
  stats.rebuilt_size = result.rebuilt_size;
  if (!in_batch_) stats.boxes_recomputed = Commit();
  return stats;
}

Status DynamicDocument::Check(const Command& c) {
  using Kind = Command::Kind;
  const bool on_tree = c.kind <= Kind::kGraftSubtree;  // tree kinds first
  if (on_tree != (tree_enc_ != nullptr)) return Status::kWrongDocumentKind;
  const size_t num_labels = term_->alphabet().num_base_labels();
  const Status label = c.label < num_labels ? Status::kOk
                                            : Status::kUnknownLabel;
  if (word_enc_ != nullptr) {
    const size_t n = word_enc_->size();
    const bool range = c.pos < c.end && c.end <= n;  // non-empty
    switch (c.kind) {
      case Kind::kReplace:
        return c.pos < n ? label : Status::kOutOfRange;
      case Kind::kInsert:
        return c.pos <= n ? label : Status::kOutOfRange;
      case Kind::kErase:
        return c.pos < n && n > 1 ? Status::kOk : Status::kOutOfRange;
      case Kind::kMoveRange:
        return range && c.to <= n - (c.end - c.pos) ? Status::kOk
                                                    : Status::kOutOfRange;
      case Kind::kEraseRange:
      case Kind::kExtractRange:  // a letter must remain
        return range && c.end - c.pos < n ? Status::kOk
                                          : Status::kOutOfRange;
      default:  // kConcat
        if (c.word == nullptr || c.word->empty()) return Status::kOutOfRange;
        for (Label l : *c.word) {
          if (l >= num_labels) return Status::kUnknownLabel;
        }
        return Status::kOk;
    }
  }

  const UnrankedTree& tree = tree_enc_->tree();
  const NodeId root = tree.root();
  const bool root_sibling =
      c.where == AttachWhere::kRightSibling && c.dst == root;
  if (c.kind == Kind::kGraftSubtree) {
    if (c.src == nullptr || !c.src->IsAlive(c.node) || !tree.IsAlive(c.dst)) {
      return Status::kUnknownNode;
    }
    if (root_sibling) return Status::kIsRoot;
    graft_walk_.assign(1, c.node);  // every grafted label, O(|subtree|)
    while (!graft_walk_.empty()) {
      const NodeId n = graft_walk_.back();
      graft_walk_.pop_back();
      if (c.src->label(n) >= num_labels) return Status::kUnknownLabel;
      graft_walk_.insert(graft_walk_.end(), c.src->children(n).begin(),
                         c.src->children(n).end());
    }
    return Status::kOk;
  }
  if (!tree.IsAlive(c.node)) return Status::kUnknownNode;
  switch (c.kind) {
    case Kind::kRelabel:
    case Kind::kInsertFirstChild:
      return label;
    case Kind::kInsertRightSibling:
      return c.node == root ? Status::kIsRoot : label;
    case Kind::kDeleteLeaf:
      if (c.node == root) return Status::kIsRoot;
      return tree.IsLeaf(c.node) ? Status::kOk : Status::kNotALeaf;
    case Kind::kSubtreeMove:
      if (!tree.IsAlive(c.dst)) return Status::kUnknownNode;
      if (c.node == root || root_sibling) return Status::kIsRoot;
      // Marks subtree(node), O(|subtree|): no walk up from dst.
      return tree_enc_->SubtreeContains(c.node, c.dst)
                 ? Status::kInsideMovedSubtree
                 : Status::kOk;
    default:  // kSubtreeDelete, kSubtreeExtract
      return c.node == root ? Status::kIsRoot : Status::kOk;
  }
}

void DynamicDocument::PreEdit() {
  if (in_batch_) return;  // drained once, at BeginBatch
  snapshots_->DrainRetired(&freed_);
  // Every buffer was retired before the current snapshot's publish, and
  // only a reader pinned before that publish can hold one: with no such pin
  // left, free them all.
  if (snapshots_->live_snapshots() == 1) {
    mutable_term().ReleaseRetired();
    for (const std::unique_ptr<QueryEntry>& e : entries_) {
      e->pipeline.ReleaseRetired();
    }
  }
}

const UpdateResult& DynamicDocument::Run(const Command& c) {
  using Kind = Command::Kind;
  const bool first = c.where == AttachWhere::kFirstChild;
  switch (c.kind) {
    case Kind::kRelabel:
      return tree_enc_->Relabel(c.node, c.label);
    case Kind::kInsertFirstChild:
      return tree_enc_->InsertFirstChild(c.node, c.label, c.new_node);
    case Kind::kInsertRightSibling:
      return tree_enc_->InsertRightSibling(c.node, c.label, c.new_node);
    case Kind::kDeleteLeaf:
      return tree_enc_->DeleteLeaf(c.node);
    case Kind::kSubtreeMove:
      return tree_enc_->SubtreeMove(c.node, c.dst, first);
    case Kind::kSubtreeDelete:
      return tree_enc_->SubtreeDelete(c.node);
    case Kind::kSubtreeExtract:
      return tree_enc_->SubtreeExtract(c.node, c.tree_out);
    case Kind::kGraftSubtree:
      return tree_enc_->GraftSubtree(*c.src, c.node, c.dst, first,
                                     c.new_node);
    case Kind::kReplace:
      return word_enc_->Replace(c.pos, c.label);
    case Kind::kInsert:
      return word_enc_->Insert(c.pos, c.label);
    case Kind::kErase:
      return word_enc_->Erase(c.pos);
    case Kind::kMoveRange:
      return word_enc_->MoveRange(c.pos, c.end, c.to);
    case Kind::kEraseRange:  // word_out is null
    case Kind::kExtractRange:
      return word_enc_->ExtractRange(c.pos, c.end, c.word_out);
    case Kind::kConcat:
      break;
  }
  return word_enc_->Concat(*c.word);
}

size_t DynamicDocument::Commit() {
  // Every alive changed id once, in ascending (height, id) order: a child's
  // subterm is strictly lower than its parent's, so children come first.
  order_.clear();
  for (TermNodeId id : changed_) {
    if (term_->IsAlive(id)) {
      order_.push_back(uint64_t{term_->node(id).height} << 32 | id);
    }
  }
  std::sort(order_.begin(), order_.end());
  order_.erase(std::unique(order_.begin(), order_.end()), order_.end());
  changed_.clear();
  for (uint64_t key : order_) changed_.push_back(static_cast<TermNodeId>(key));
  // Every freed id is released, alive or not: one that a later edit
  // re-allocated is in changed_ and is rebuilt from an empty block.
  for (const std::unique_ptr<QueryEntry>& e : entries_) {
    e->pipeline.Apply(freed_, changed_);
  }
  // Every box of the new version is current — publish it for readers, one
  // epoch per edit, transaction or batch.
  snapshots_->Publish();
  const size_t boxes = changed_.size() * entries_.size();
  freed_.clear();
  changed_.clear();
  return boxes;
}

// ---- Batched updates ----

void DynamicDocument::BeginBatch() {
  assert(!in_batch_ && "nested batches are not supported");
  PreEdit();  // drain retired snapshots once for the whole transaction
  in_batch_ = true;
}

UpdateStats DynamicDocument::CommitBatch() {
  assert(in_batch_);
  in_batch_ = false;
  // One publish per batch: readers never observe intermediate versions.
  UpdateStats stats;
  stats.boxes_recomputed = Commit();
  return stats;
}

}  // namespace treenum
