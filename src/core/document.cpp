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

DynamicDocument::QueryHandle DynamicDocument::Register(const UnrankedTva& query,
                                                   BoxEnumMode mode) {
  TREENUM_CHECK(tree_enc_ != nullptr,
                "tree queries require a tree document");
  TREENUM_CHECK(!in_batch_, "cannot register a query mid-batch");
  // Translation always builds TermAlphabet(query.num_labels()), so the
  // alphabet check needs no translation — which lets a cache hit skip
  // the whole compile pipeline.
  TREENUM_CHECK(query.num_labels() == term_->alphabet().num_base_labels(),
                "query alphabet must match the document alphabet");
  return AdmitShared(cache_->CompileTree(query), mode);
}

DynamicDocument::QueryHandle DynamicDocument::Register(const Wva& query,
                                                   BoxEnumMode mode) {
  TREENUM_CHECK(word_enc_ != nullptr,
                "word queries require a word document");
  TREENUM_CHECK(!in_batch_, "cannot register a query mid-batch");
  TREENUM_CHECK(query.num_labels() == term_->alphabet().num_base_labels(),
                "query alphabet must match the document alphabet");
  return AdmitShared(cache_->CompileWord(query), mode);
}

DynamicDocument::QueryHandle DynamicDocument::AdmitShared(
    std::shared_ptr<const HomogenizedTva> homog, BoxEnumMode mode) {
  TREENUM_CHECK(!in_batch_, "cannot register a query mid-batch");
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

void DynamicDocument::Unregister(QueryHandle handle) {
  TREENUM_CHECK(!in_batch_, "cannot unregister a query mid-batch");
  TREENUM_CHECK(IsRegistered(handle), "unknown or already-unregistered query");
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
  for (const std::unique_ptr<QueryEntry>& e : entries_) {
    DocumentStats::PipelineStats ps;
    ps.queries = e->refcount;
    ps.width = e->pipeline.width();
    s.pipelines.push_back(ps);
  }
  return s;
}

void DynamicDocument::PreEdit() {
  if (in_batch_) return;  // drained once, at BeginBatch
  snapshots_->DrainRetired(&freed_);
}

UpdateStats DynamicDocument::Dispatch(const UpdateResult& result) {
  freed_.insert(freed_.end(), result.freed.begin(), result.freed.end());
  changed_.insert(changed_.end(), result.changed_bottom_up.begin(),
                  result.changed_bottom_up.end());
  UpdateStats stats;
  stats.edits_applied = 1;
  stats.rebuilt_size = result.rebuilt_size;
  if (!in_batch_) stats.boxes_recomputed = Commit();
  return stats;
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

// ---- Tree edits ----

UpdateStats DynamicDocument::Relabel(NodeId n, Label l) {
  TREENUM_CHECK(tree_enc_ != nullptr, "Relabel requires a tree document");
  TREENUM_CHECK(tree_enc_->tree().IsAlive(n), "unknown node");
  TREENUM_CHECK(l < term_->alphabet().num_base_labels(), "unknown label");
  PreEdit();
  return Dispatch(tree_enc_->Relabel(n, l));
}

UpdateStats DynamicDocument::InsertFirstChild(NodeId n, Label l,
                                              NodeId* new_node) {
  TREENUM_CHECK(tree_enc_ != nullptr,
                "InsertFirstChild requires a tree document");
  TREENUM_CHECK(tree_enc_->tree().IsAlive(n), "unknown node");
  TREENUM_CHECK(l < term_->alphabet().num_base_labels(), "unknown label");
  PreEdit();
  return Dispatch(tree_enc_->InsertFirstChild(n, l, new_node));
}

UpdateStats DynamicDocument::InsertRightSibling(NodeId n, Label l,
                                                NodeId* new_node) {
  TREENUM_CHECK(tree_enc_ != nullptr,
                "InsertRightSibling requires a tree document");
  TREENUM_CHECK(tree_enc_->tree().IsAlive(n), "unknown node");
  TREENUM_CHECK(l < term_->alphabet().num_base_labels(), "unknown label");
  PreEdit();
  return Dispatch(tree_enc_->InsertRightSibling(n, l, new_node));
}

UpdateStats DynamicDocument::DeleteLeaf(NodeId n) {
  TREENUM_CHECK(tree_enc_ != nullptr, "DeleteLeaf requires a tree document");
  TREENUM_CHECK(tree_enc_->tree().IsAlive(n), "unknown node");
  PreEdit();
  return Dispatch(tree_enc_->DeleteLeaf(n));
}

// ---- Word edits ----

UpdateStats DynamicDocument::Replace(size_t pos, Label l) {
  TREENUM_CHECK(word_enc_ != nullptr, "Replace requires a word document");
  TREENUM_CHECK(pos < word_enc_->size(), "position out of range");
  TREENUM_CHECK(l < term_->alphabet().num_base_labels(), "unknown label");
  PreEdit();
  return Dispatch(word_enc_->Replace(pos, l));
}

UpdateStats DynamicDocument::Insert(size_t pos, Label l) {
  TREENUM_CHECK(word_enc_ != nullptr, "Insert requires a word document");
  TREENUM_CHECK(pos <= word_enc_->size(), "position out of range");
  TREENUM_CHECK(l < term_->alphabet().num_base_labels(), "unknown label");
  PreEdit();
  return Dispatch(word_enc_->Insert(pos, l));
}

UpdateStats DynamicDocument::Erase(size_t pos) {
  TREENUM_CHECK(word_enc_ != nullptr, "Erase requires a word document");
  TREENUM_CHECK(pos < word_enc_->size(), "position out of range");
  PreEdit();
  return Dispatch(word_enc_->Erase(pos));
}

// ---- Tree structural transactions ----

UpdateStats DynamicDocument::SubtreeMove(NodeId v, NodeId dst,
                                         AttachWhere where) {
  TREENUM_CHECK(tree_enc_ != nullptr, "SubtreeMove requires a tree document");
  TREENUM_CHECK(tree_enc_->tree().IsAlive(v), "unknown node");
  TREENUM_CHECK(tree_enc_->tree().IsAlive(dst), "unknown node");
  PreEdit();
  return Dispatch(
      tree_enc_->SubtreeMove(v, dst, where == AttachWhere::kFirstChild));
}

UpdateStats DynamicDocument::SubtreeDelete(NodeId v) {
  TREENUM_CHECK(tree_enc_ != nullptr, "SubtreeDelete requires a tree document");
  TREENUM_CHECK(tree_enc_->tree().IsAlive(v), "unknown node");
  PreEdit();
  return Dispatch(tree_enc_->SubtreeDelete(v));
}

UpdateStats DynamicDocument::SubtreeExtract(NodeId v,
                                            UnrankedTree* extracted) {
  TREENUM_CHECK(tree_enc_ != nullptr,
                "SubtreeExtract requires a tree document");
  TREENUM_CHECK(tree_enc_->tree().IsAlive(v), "unknown node");
  PreEdit();
  return Dispatch(tree_enc_->SubtreeExtract(v, extracted));
}

UpdateStats DynamicDocument::GraftSubtree(const UnrankedTree& src,
                                          NodeId src_root, NodeId dst,
                                          AttachWhere where,
                                          NodeId* new_root) {
  TREENUM_CHECK(tree_enc_ != nullptr, "GraftSubtree requires a tree document");
  TREENUM_CHECK(src.IsAlive(src_root), "unknown node");
  TREENUM_CHECK(tree_enc_->tree().IsAlive(dst), "unknown node");
  std::vector<NodeId> todo{src_root};  // the grafted subtree, walked in O(m)
  while (!todo.empty()) {
    const NodeId n = todo.back();
    todo.pop_back();
    TREENUM_CHECK(src.label(n) < term_->alphabet().num_base_labels(),
                  "unknown label");
    todo.insert(todo.end(), src.children(n).begin(), src.children(n).end());
  }
  PreEdit();
  return Dispatch(tree_enc_->GraftSubtree(
      src, src_root, dst, where == AttachWhere::kFirstChild, new_root));
}

// ---- Word structural transactions ----

UpdateStats DynamicDocument::MoveRange(size_t begin, size_t end, size_t dst) {
  TREENUM_CHECK(word_enc_ != nullptr, "MoveRange requires a word document");
  TREENUM_CHECK(begin <= end && end <= word_enc_->size() &&
                    dst <= word_enc_->size() - (end - begin),
                "range out of bounds");
  PreEdit();
  return Dispatch(word_enc_->MoveRange(begin, end, dst));
}

UpdateStats DynamicDocument::EraseRange(size_t begin, size_t end) {
  TREENUM_CHECK(word_enc_ != nullptr, "EraseRange requires a word document");
  TREENUM_CHECK(begin <= end && end <= word_enc_->size(),
                "range out of bounds");
  PreEdit();
  return Dispatch(word_enc_->EraseRange(begin, end));
}

UpdateStats DynamicDocument::ExtractRange(size_t begin, size_t end,
                                          Word* extracted) {
  TREENUM_CHECK(word_enc_ != nullptr, "ExtractRange requires a word document");
  TREENUM_CHECK(begin <= end && end <= word_enc_->size(),
                "range out of bounds");
  PreEdit();
  return Dispatch(word_enc_->ExtractRange(begin, end, extracted));
}

UpdateStats DynamicDocument::Concat(const Word& w) {
  TREENUM_CHECK(word_enc_ != nullptr, "Concat requires a word document");
  for (Label l : w) {
    TREENUM_CHECK(l < term_->alphabet().num_base_labels(), "unknown label");
  }
  PreEdit();
  return Dispatch(word_enc_->Concat(w));
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
