// The traced run: a span recorder and a layer chain that replays a
// workload's operations through the library's layer objects directly —
// encoding (DynamicEncoding) → snapshots (TermSnapshots) →
// circuit (AssignmentCircuit) → jump index (EnumIndex) → run counts
// (RunCounter) → cursor (AssignmentCursor, EnumOutput::ToAssignment) — in
// the order DynamicDocument and EnumerationPipeline call them, timing each
// public call from the benchmark's side. Nothing inside the library is
// instrumented.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "automata/query_cache.h"
#include "circuit/circuit.h"
#include "common.h"
#include "core/snapshot.h"
#include "counting/run_count.h"
#include "enumeration/enumerate.h"
#include "enumeration/index.h"
#include "falgebra/update.h"
#include "util/alloc_gauge.h"

namespace perfbench {

/// Span kinds. The first group are roots — one per benchmark operation;
/// the rest are calls into one layer.
enum Sp : uint8_t {
  kOpEdit,
  kOpMove,
  kOpBatch,
  kOpRead,
  kOpSetup,
  kCoreDrain,
  kCorePublish,
  kCorePin,
  kCoreCoalesce,
  kAutomataCompile,
  kFalgebraEncode,
  kFalgebraEdit,
  kFalgebraMove,
  kCircuitBuild,
  kCircuitRebuild,
  kCircuitFree,
  kIndexBuild,
  kIndexRebuild,
  kIndexFree,
  kCountBuild,
  kCountRebuild,
  kCountFree,
  kCursorSetup,
  kCursorNext,
  kToAssignment,
  kNumSpans
};

const char* SpanName(Sp s);

/// In-memory span recorder. Every span is aggregated (count, total and
/// self time, keyed by its root kind and its own kind); the first
/// `max_stored` spans are also kept verbatim and written at exit.
class Tracer {
 public:
  struct Agg {
    uint64_t count = 0;
    uint64_t total_ns = 0;
    uint64_t self_ns = 0;
  };

  explicit Tracer(size_t max_stored = 200000) : max_stored_(max_stored) {
    spans_.reserve(max_stored_);
  }

  void Begin(Sp kind) {
    if (stack_.empty()) ++op_;
    const uint64_t now = NowNs();
    int64_t stored = -1;
    if (spans_.size() < max_stored_) {
      stored = static_cast<int64_t>(spans_.size());
      spans_.push_back(
          {kind, now, 0, stack_.empty() ? -1 : stack_.back().stored, op_});
    }
    stack_.push_back({kind, now, 0, stored});
  }

  void End() {
    const uint64_t end = NowNs();
    const Open o = stack_.back();
    stack_.pop_back();
    const uint64_t dur = end - o.start;
    const Sp root = stack_.empty() ? o.kind : stack_.front().kind;
    Agg& a = agg_[root][o.kind];
    ++a.count;
    a.total_ns += dur;
    a.self_ns += dur - std::min(dur, o.child_ns);
    if (!stack_.empty()) stack_.back().child_ns += dur;
    if (o.stored >= 0) spans_[static_cast<size_t>(o.stored)].end = end;
  }

  /// Aggregate of `kind` spans under roots of kind `root`.
  const Agg& Get(Sp root, Sp kind) const { return agg_[root][kind]; }
  /// Aggregate of `kind` spans under any root.
  Agg Total(Sp kind) const {
    Agg t;
    for (const auto& row : agg_) {
      t.count += row[kind].count;
      t.total_ns += row[kind].total_ns;
      t.self_ns += row[kind].self_ns;
    }
    return t;
  }
  uint64_t stored() const { return spans_.size(); }

  /// Writes the kept spans as CSV (row, op, name, parent row, start, end).
  bool WriteSpans(const std::string& path) const;

 private:
  struct Open {
    Sp kind;
    uint64_t start;
    uint64_t child_ns;
    int64_t stored;
  };
  struct Span {
    Sp kind;
    uint64_t start;
    uint64_t end;
    int64_t parent;
    uint64_t op;
  };

  size_t max_stored_;
  uint64_t op_ = 0;
  std::vector<Open> stack_;
  std::vector<Span> spans_;
  Agg agg_[kNumSpans][kNumSpans] = {};
};

/// RAII span.
class Scoped {
 public:
  Scoped(Tracer* t, Sp kind) : t_(t) { t_->Begin(kind); }
  ~Scoped() { t_->End(); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer* t_;
};

/// Work counts the chain observes at its layer boundaries.
struct ChainCounts {
  uint64_t edits = 0;             ///< Single leaf/position edits.
  uint64_t edit_changed = 0;      ///< Σ changed boxes of single edits.
  uint64_t edit_rebuilt = 0;      ///< Σ rebalance-rebuilt term nodes.
  uint64_t edit_path_copies = 0;  ///< Σ path-copied term nodes.
  uint64_t moves = 0;             ///< Structural transactions (any).
  uint64_t batches = 0;           ///< Batch commits.
  uint64_t batch_edits = 0;       ///< Edits inside batches.
  uint64_t batch_changed = 0;     ///< Σ per-command changed boxes in batches.
  uint64_t batch_boxes = 0;       ///< Σ coalesced boxes refreshed at commit.
  uint64_t answers = 0;           ///< Answers read through the cursor.
  uint64_t answer_allocs = 0;     ///< Heap allocations while reading them.
  uint64_t answer_bytes = 0;      ///< Bytes allocated while reading them.
  uint64_t cursor_steps = 0;      ///< AssignmentCursor::steps() summed.

  void Add(const ChainCounts& o) {
    edits += o.edits;
    edit_changed += o.edit_changed;
    edit_rebuilt += o.edit_rebuilt;
    edit_path_copies += o.edit_path_copies;
    moves += o.moves;
    batches += o.batches;
    batch_edits += o.batch_edits;
    batch_changed += o.batch_changed;
    batch_boxes += o.batch_boxes;
    answers += o.answers;
    answer_allocs += o.answer_allocs;
    answer_bytes += o.answer_bytes;
    cursor_steps += o.cursor_steps;
  }
};

/// One tree document's layer objects, driven the way DynamicDocument
/// drives them.
class LayerChain {
 public:
  LayerChain(Tracer* tracer, std::unique_ptr<treenum::DynamicEncoding> enc)
      : t_(tracer),
        enc_(std::move(enc)),
        snaps_(std::make_unique<treenum::TermSnapshots>(
            &enc_->mutable_term())) {
    snaps_->Publish();
  }

  const ChainCounts& counts() const { return counts_; }
  const treenum::Term& term() const { return enc_->term(); }

  /// Builds circuit, index and (optionally) run counts for one plan.
  void AddQuery(treenum::QueryCache::Handle plan, bool counting) {
    auto q = std::make_unique<Query>();
    q->plan = std::move(plan);
    q->circuit = std::make_unique<treenum::AssignmentCircuit>(
        &term(), &q->plan->tva, &q->plan->kind);
    {
      Scoped s(t_, kCircuitBuild);
      q->circuit->BuildAll();
    }
    q->index = std::make_unique<treenum::EnumIndex>(q->circuit.get());
    {
      Scoped s(t_, kIndexBuild);
      q->index->BuildAll();
    }
    if (counting) {
      q->counter = std::make_unique<treenum::RunCounter>(q->circuit.get());
      Scoped s(t_, kCountBuild);
      q->counter->BuildAll();
    }
    queries_.push_back(std::move(q));
  }

  /// One edit outside a batch, or one recorded edit inside a batch.
  /// `apply(DynamicEncoding&)` returns the encoding's UpdateResult.
  template <class F>
  void Edit(F&& apply) {
    if (in_batch_) {
      const treenum::UpdateResult* r;
      {
        Scoped s(t_, kFalgebraEdit);
        r = &apply(*enc_);
      }
      ++counts_.batch_edits;
      RecordInBatch(*r);
      return;
    }
    Scoped root(t_, kOpEdit);
    PreEdit();
    const uint64_t copies0 = term().path_copies();
    const treenum::UpdateResult* r;
    {
      Scoped s(t_, kFalgebraEdit);
      r = &apply(*enc_);
    }
    ++counts_.edits;
    counts_.edit_changed += r->changed_bottom_up.size();
    counts_.edit_rebuilt += r->rebuilt_size;
    counts_.edit_path_copies += term().path_copies() - copies0;
    for (auto& q : queries_) {
      for (treenum::TermNodeId id : r->freed) Release(*q, id);
      for (treenum::TermNodeId id : r->changed_bottom_up) Refresh(*q, id);
    }
    Publish();
  }

  /// One structural transaction (subtree move/delete, factor move):
  /// DynamicDocument::DispatchTransaction's sequence, or, inside a batch,
  /// recorded for the commit like an edit.
  template <class F>
  void Transaction(F&& apply) {
    if (in_batch_) {
      const treenum::UpdateResult* r;
      {
        Scoped s(t_, kFalgebraMove);
        r = &apply(*enc_);
      }
      ++counts_.moves;
      RecordInBatch(*r);
      return;
    }
    Scoped root(t_, kOpMove);
    PreEdit();
    const treenum::UpdateResult* r;
    {
      Scoped s(t_, kFalgebraMove);
      r = &apply(*enc_);
    }
    ++counts_.moves;
    dead_.clear();
    for (treenum::TermNodeId id : r->freed) {
      if (!term().IsAlive(id)) dead_.push_back(id);
    }
    for (auto& q : queries_) ApplyCoalesced(*q, dead_, r->changed_bottom_up);
    Publish();
  }

  void BeginBatch() {
    t_->Begin(kOpBatch);
    PreEdit();
    in_batch_ = true;
  }

  /// DynamicDocument::CommitBatch's coalescing, then one refresh pass.
  void CommitBatch() {
    in_batch_ = false;
    {
      Scoped s(t_, kCoreCoalesce);
      std::sort(batch_freed_.begin(), batch_freed_.end());
      batch_freed_.erase(
          std::unique(batch_freed_.begin(), batch_freed_.end()),
          batch_freed_.end());
      dead_.clear();
      for (treenum::TermNodeId id : batch_freed_) {
        if (!term().IsAlive(id)) dead_.push_back(id);
      }
      std::sort(batch_changed_.begin(), batch_changed_.end());
      batch_changed_.erase(
          std::unique(batch_changed_.begin(), batch_changed_.end()),
          batch_changed_.end());
      order_.clear();
      for (treenum::TermNodeId id : batch_changed_) {
        if (!term().IsAlive(id)) continue;
        uint32_t depth = 0;
        for (treenum::TermNodeId p = term().node(id).parent;
             p != treenum::kNoTerm; p = term().node(p).parent) {
          ++depth;
        }
        order_.emplace_back(depth, id);
      }
      std::sort(order_.begin(), order_.end(),
                [](const auto& a, const auto& b) { return a.first > b.first; });
      ordered_.clear();
      for (const auto& entry : order_) ordered_.push_back(entry.second);
    }
    ++counts_.batches;
    counts_.batch_boxes += ordered_.size();
    for (auto& q : queries_) ApplyCoalesced(*q, dead_, ordered_);
    batch_freed_.clear();
    batch_changed_.clear();
    Publish();
    t_->End();
  }

  /// Reads up to `k` answers of the first query at the current snapshot:
  /// pin, cursor setup, then Next + ToAssignment per answer, each a span.
  void Read(size_t k, ReadStats* rs) {
    Scoped root(t_, kOpRead);
    const uint64_t t0 = NowNs();
    treenum::SnapshotRef snap;
    {
      Scoped s(t_, kCorePin);
      snap = snaps_->Current();
    }
    Query& q = *queries_[0];
    std::optional<treenum::AssignmentCursor> cursor;
    {
      Scoped s(t_, kCursorSetup);
      std::vector<uint32_t> gamma = FinalGammaAt(q, snap.root());
      if (!gamma.empty()) {
        cursor.emplace(q.circuit.get(), q.index.get(),
                       treenum::BoxEnumMode::kIndexed, snap.root(),
                       std::move(gamma));
      }
    }
    size_t n = 0;
    uint64_t prev = t0;
    treenum::EnumOutput out;
    treenum::Assignment a;
    while (cursor && n < k) {
      treenum::AllocGaugeScope gauge;
      bool ok;
      {
        Scoped s(t_, kCursorNext);
        ok = cursor->Next(&out);
      }
      if (!ok) break;
      {
        Scoped s(t_, kToAssignment);
        a = out.ToAssignment();
      }
      counts_.answer_allocs += gauge.allocs();
      counts_.answer_bytes += gauge.bytes();
      const uint64_t now = NowNs();
      if (n == 0) {
        rs->restart_us.Add(static_cast<double>(now - t0) / 1e3);
      } else {
        rs->delay_ns.Add(static_cast<double>(now - prev));
      }
      prev = now;
      ++n;
    }
    if (n == 0) rs->restart_us.Add(static_cast<double>(NowNs() - t0) / 1e3);
    if (cursor) counts_.cursor_steps += cursor->steps();
    counts_.answers += n;
    rs->answers.Add(n, prev - t0);
    ++rs->reads;
  }

  /// Every answer of query `qi` at the current snapshot, sorted (untraced;
  /// for the correctness checks).
  std::vector<treenum::Assignment> AllAnswers(size_t qi = 0) const {
    std::vector<treenum::Assignment> all;
    const Query& q = *queries_[qi];
    const treenum::TermNodeId root = term().root();
    if (EmptyAt(q, root)) all.emplace_back();
    std::vector<uint32_t> gamma = FinalGammaAt(q, root);
    if (!gamma.empty()) {
      treenum::AssignmentCursor cursor(q.circuit.get(), q.index.get(),
                                       treenum::BoxEnumMode::kIndexed, root,
                                       std::move(gamma));
      treenum::EnumOutput out;
      while (cursor.Next(&out)) all.push_back(out.ToAssignment());
    }
    std::sort(all.begin(), all.end());
    return all;
  }

 private:
  struct Query {
    treenum::QueryCache::Handle plan;
    std::unique_ptr<treenum::AssignmentCircuit> circuit;
    std::unique_ptr<treenum::EnumIndex> index;
    std::unique_ptr<treenum::RunCounter> counter;
  };

  // EnumerationPipeline::FinalGammaAt / EmptyAssignmentSatisfiesAt.
  static std::vector<uint32_t> FinalGammaAt(const Query& q,
                                            treenum::TermNodeId root) {
    std::vector<uint32_t> gamma;
    const treenum::Box box = q.circuit->box(root);
    for (treenum::State s : q.plan->tva.final_states()) {
      if (q.plan->kind[s] == 1 && box.gamma(s) == treenum::GateKind::kUnion) {
        gamma.push_back(static_cast<uint32_t>(box.union_idx(s)));
      }
    }
    return gamma;
  }
  static bool EmptyAt(const Query& q, treenum::TermNodeId root) {
    const treenum::Box box = q.circuit->box(root);
    for (treenum::State s : q.plan->tva.final_states()) {
      if (q.plan->kind[s] == 0 && box.gamma(s) == treenum::GateKind::kTop) {
        return true;
      }
    }
    return false;
  }

  void RecordInBatch(const treenum::UpdateResult& r) {
    counts_.batch_changed += r.changed_bottom_up.size();
    batch_freed_.insert(batch_freed_.end(), r.freed.begin(), r.freed.end());
    batch_changed_.insert(batch_changed_.end(), r.changed_bottom_up.begin(),
                          r.changed_bottom_up.end());
  }

  void PreEdit() {
    drained_.clear();
    {
      Scoped s(t_, kCoreDrain);
      snaps_->DrainRetired(&drained_);
    }
    for (auto& q : queries_) {
      for (treenum::TermNodeId id : drained_) Release(*q, id);
    }
  }

  void Publish() {
    Scoped s(t_, kCorePublish);
    snaps_->Publish();
  }

  void Refresh(Query& q, treenum::TermNodeId id) {
    {
      Scoped s(t_, kCircuitRebuild);
      q.circuit->RebuildBox(id);
    }
    {
      Scoped s(t_, kIndexRebuild);
      q.index->RebuildBoxIndex(id);
    }
    if (q.counter) {
      Scoped s(t_, kCountRebuild);
      q.counter->RebuildBoxCounts(id);
    }
  }

  void Release(Query& q, treenum::TermNodeId id) {
    {
      Scoped s(t_, kCircuitFree);
      q.circuit->FreeBox(id);
    }
    {
      Scoped s(t_, kIndexFree);
      q.index->FreeBoxIndex(id);
    }
    if (q.counter) {
      Scoped s(t_, kCountFree);
      q.counter->FreeBoxCounts(id);
    }
  }

  // EnumerationPipeline::ApplyCoalesced.
  void ApplyCoalesced(Query& q, const std::vector<treenum::TermNodeId>& dead,
                      const std::vector<treenum::TermNodeId>& ordered) {
    for (treenum::TermNodeId id : dead) Release(q, id);
    {
      Scoped s(t_, kCircuitRebuild);
      q.circuit->ReserveForRebuild(ordered.size());
    }
    {
      Scoped s(t_, kIndexRebuild);
      q.index->ReserveForRebuild(ordered.size());
    }
    for (treenum::TermNodeId id : ordered) Refresh(q, id);
  }

  Tracer* t_;
  // Destruction runs bottom-up: queries (which read the term), then the
  // snapshots (which unpin from it), then the encoding that owns it.
  std::unique_ptr<treenum::DynamicEncoding> enc_;
  std::unique_ptr<treenum::TermSnapshots> snaps_;
  std::vector<std::unique_ptr<Query>> queries_;

  ChainCounts counts_;
  bool in_batch_ = false;
  std::vector<treenum::TermNodeId> drained_, dead_, ordered_;
  std::vector<treenum::TermNodeId> batch_freed_, batch_changed_;
  std::vector<std::pair<uint32_t, treenum::TermNodeId>> order_;
};

/// Per-layer metrics (BENCHMARK.json "per_layer") from one traced run.
/// `untraced_edit_mean_us` / `untraced_edit_p50_us` come from the same
/// run's untraced phase; `traced_edit_p50_us` from the traced replay.
struct TraceSummary {
  const Tracer* tracer = nullptr;
  ChainCounts counts;
  double untraced_edit_mean_us = 0;
  double untraced_edit_p50_us = 0;
  double traced_edit_p50_us = 0;
  double cache_hit_frac = 0;
};
void LayerMetrics(const TraceSummary& s, Metrics* out);

/// Share of a cache's lookups served without compiling.
inline double CacheHitFrac(const treenum::QueryCache::Stats& cs) {
  return cs.lookups == 0
             ? 0.0
             : static_cast<double>(cs.source_hits + cs.canonical_hits) /
                   static_cast<double>(cs.lookups);
}

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
