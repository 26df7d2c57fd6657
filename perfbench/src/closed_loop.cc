// tree_edits: the closed-loop, single-threaded workload. One cycle
// (RunCycle) runs against either target: a DynamicDocument (untraced run) or
// the layer chain (traced run).
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "automata/query_cache.h"
#include "automata/query_library.h"
#include "baseline/static_engine.h"
#include "common.h"
#include "core/document.h"
#include "scripts.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using treenum::Assignment;
using treenum::DynamicDocument;
using treenum::DynamicEncoding;
using treenum::QueryCache;
using treenum::UpdateResult;

/// The shape of one cycle (see RunCycle).
struct LoopParams {
  size_t probe_answers = 8;       ///< Answers a restart probe reads.
  size_t move_every = 0;          ///< Cycles between moves (0 = none).
  size_t batch_every = 0;         ///< Cycles between batch commits.
  size_t batch_k = 256;           ///< Edits per batch commit.
  /// Cycle at which peak RSS is read: a fixed amount of work, so the
  /// figure does not depend on how many cycles the seconds allowed.
  uint64_t rss_cycle = 0;
};

struct LoopStats {
  Samples edit_us{2000};
  Samples move_us{1000};
  Samples batch_ms{8};
  ReadStats probe;
  Rate writes;  ///< Write commands over time in write calls.
  uint64_t cycles = 0;
  uint64_t ops = 0;  ///< Timed operations (writes, batches, reads).
  double rss_mb = 0;
};

// ---- Targets ----------------------------------------------------------

/// Untraced target: the public DynamicDocument surface.
class DocTarget {
 public:
  DocTarget(DynamicDocument* doc, DynamicDocument::QueryHandle probed)
      : doc_(doc), h_(probed) {}

  void Apply(const Edit& e) { doc_->ApplyEdit(e); }
  void Move(const TreeMove& m) { doc_->SubtreeMove(m.v, m.dst, m.where); }
  void BeginBatch() { doc_->BeginBatch(); }
  void CommitBatch() { doc_->CommitBatch(); }

  /// Pin, cursor, then up to `k` answers.
  void Read(size_t k, ReadStats* rs) {
    const uint64_t t0 = NowNs();
    std::unique_ptr<treenum::Engine::Cursor> cursor =
        doc_->MakeCursorAt(doc_->CurrentSnapshot(), h_);
    Assignment a;
    size_t n = 0;
    uint64_t prev = t0;
    while (n < k && cursor->Next(&a)) {
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
    rs->answers.Add(n, prev - t0);
    ++rs->reads;
  }

 private:
  DynamicDocument* doc_;
  DynamicDocument::QueryHandle h_;
};

/// Traced target: the same operations through the layer chain.
class ChainTarget {
 public:
  explicit ChainTarget(LayerChain* chain) : chain_(chain) {}

  void Apply(const Edit& e) {
    chain_->Edit([&e](DynamicEncoding& enc) -> const UpdateResult& {
      return ApplyTreeEdit(enc, e);
    });
  }
  void Move(const TreeMove& m) {
    chain_->Transaction([&m](DynamicEncoding& enc) -> const UpdateResult& {
      return enc.SubtreeMove(m.v, m.dst,
                             m.where == AttachWhere::kFirstChild);
    });
  }
  void BeginBatch() { chain_->BeginBatch(); }
  void CommitBatch() { chain_->CommitBatch(); }
  void Read(size_t k, ReadStats* rs) { chain_->Read(k, rs); }

 private:
  LayerChain* chain_;
};

// ---- The cycle ----------------------------------------------------------

/// One cycle: an edit, then a restart probe · [move] · [batch commit of
/// batch_k edits]. Edits of a batch are generated before the clock starts,
/// so the batch time is the document's alone.
template <class Target>
void RunCycle(TreeScript& script, Target& target, const LoopParams& p,
              LoopStats* st) {
  const uint64_t cycle = st->cycles++;
  {
    const Edit e = script.NextEdit();
    const uint64_t t0 = NowNs();
    target.Apply(e);
    const uint64_t t1 = NowNs();
    st->edit_us.Add(static_cast<double>(t1 - t0) / 1e3);
    st->writes.Add(1, t1 - t0);
    target.Read(p.probe_answers, &st->probe);
    st->ops += 2;
  }
  if (p.move_every != 0 && cycle % p.move_every == p.move_every - 1) {
    const TreeMove m = script.NextMove();
    const uint64_t t0 = NowNs();
    target.Move(m);
    const uint64_t t1 = NowNs();
    st->move_us.Add(static_cast<double>(t1 - t0) / 1e3);
    st->writes.Add(1, t1 - t0);
    ++st->ops;
  }
  if (p.batch_every != 0 && cycle % p.batch_every == p.batch_every - 1) {
    std::vector<Edit> edits;
    edits.reserve(p.batch_k);
    for (size_t i = 0; i < p.batch_k; ++i) edits.push_back(script.NextEdit());
    const uint64_t t0 = NowNs();
    target.BeginBatch();
    for (const Edit& e : edits) target.Apply(e);
    target.CommitBatch();
    const uint64_t t1 = NowNs();
    st->batch_ms.Add(static_cast<double>(t1 - t0) / 1e6);
    st->writes.Add(p.batch_k, t1 - t0);
    ++st->ops;
  }
  if (st->cycles == p.rss_cycle) st->rss_mb = PeakRssMb();
}

/// The untraced phase's unmeasured warm-up cycles, the cycle indices at
/// which it checked the answers, and the answer digest it saw there; the
/// traced replay must see the same.
struct Checkpoints {
  uint64_t warmup_cycles = 0;
  std::vector<uint64_t> cycles;
  std::vector<uint64_t> digests;
};

/// Warm-up before the clock starts: pools grow and caches fill during the
/// first second of edits, which no later second repeats.
constexpr double kWarmupSeconds = 1.0;

/// About five host-speed samples a second (see HostSpeed), 1% of the time.
constexpr uint64_t kHostSampleCycles = 1024;

/// Runs unmeasured warm-up cycles, then cycles for `seconds` of loop time
/// (checks and host samples excluded), checking at the middle and at the
/// end.
template <class Target, class CheckFn>
void RunTimed(TreeScript& script, Target& target, const LoopParams& p,
              double seconds, LoopStats* st, HostSpeed* host, Checkpoints* cp,
              CheckFn&& check) {
  {
    LoopStats warm;
    const uint64_t end = NowNs() + static_cast<uint64_t>(kWarmupSeconds * 1e9);
    while (NowNs() < end) RunCycle(script, target, p, &warm);
    cp->warmup_cycles = warm.cycles;
  }
  const double budget_ns = seconds * 1e9;
  double loop_ns = 0;
  bool mid_done = false;
  while (loop_ns < budget_ns) {
    if (st->cycles % kHostSampleCycles == 0) host->Sample();
    const uint64_t t0 = NowNs();
    RunCycle(script, target, p, st);
    loop_ns += static_cast<double>(NowNs() - t0);
    // The oracle check allocates; after the RSS cycle it cannot raise the
    // peak RSS figure, whatever the run's speed.
    if (!mid_done && loop_ns >= budget_ns / 2 && st->cycles >= p.rss_cycle) {
      mid_done = true;
      cp->cycles.push_back(st->cycles);
      cp->digests.push_back(check());
    }
  }
  if (st->rss_mb == 0) st->rss_mb = PeakRssMb();
  if (cp->cycles.empty() || cp->cycles.back() != st->cycles) {
    cp->cycles.push_back(st->cycles);
    cp->digests.push_back(check());
  }
}

/// Replays exactly the cycles of an untraced phase (warm-up included) and
/// compares digests at its checkpoints.
template <class Target, class DigestFn>
void RunReplay(TreeScript& script, Target& target, const LoopParams& p,
               const Checkpoints& cp, LoopStats* st, DigestFn&& digest,
               RunResult* res) {
  {
    LoopStats warm;
    while (warm.cycles < cp.warmup_cycles) RunCycle(script, target, p, &warm);
  }
  size_t next = 0;
  while (next < cp.cycles.size()) {
    if (st->cycles == cp.cycles[next]) {
      res->Check(digest() == cp.digests[next],
                 "traced replay answers differ from the document's at cycle " +
                     std::to_string(st->cycles));
      ++next;
      continue;
    }
    RunCycle(script, target, p, st);
  }
}

uint64_t DigestAll(const std::vector<std::vector<Assignment>>& per_query) {
  uint64_t d = 0;
  for (size_t q = 0; q < per_query.size(); ++q) {
    for (const Assignment& a : per_query[q]) d += DigestOne(a) * (2 * q + 1);
  }
  return d;
}

void EndToEndMetrics(LoopStats& st, const HostSpeed& host, double setup_s,
                     RunResult* res) {
  Metrics& m = res->metrics;
  const double f = host.Factor();  // times at the reference host speed
  m.Set("setup_s", setup_s * f, "s");
  m.Set("edit_p50_us", st.edit_us.P50() * f, "us");
  m.Set("edit_p99_us", st.edit_us.P99() * f, "us");
  m.Set("batch_commit_p50_ms", st.batch_ms.P50() * f, "ms");
  m.Set("restart_p90_us", st.probe.restart_us.P90() * f, "us");
  m.Set("answers_per_s", st.probe.answers.PerSecond() / f, "1/s");
  m.Set("delay_p90_ns", st.probe.delay_ns.P90() * f, "ns");
  m.Set("sustained_cmd_per_s", st.writes.PerSecond() / f, "1/s");
  // A run too slow to reach the RSS cycle reports its peak before the
  // final check.
  m.Set("peak_rss_mb", st.rss_mb, "MB");
  res->extra.Set("host_ns_per_step", host.NsPerStep(), "ns");
  res->extra.Set("edit_p50_us_unscaled", st.edit_us.P50(), "us");
  res->extra.Set("cycles", static_cast<double>(st.cycles), "count");
  res->extra.Set("edits_timed", static_cast<double>(st.edit_us.count()),
                 "count");
  res->extra.Set("batches_timed", static_cast<double>(st.batch_ms.count()),
                 "count");
  res->extra.Set("moves_timed", static_cast<double>(st.move_us.count()),
                 "count");
  if (st.move_us.count() != 0) {
    res->extra.Set("move_p50_us", st.move_us.P50(), "us");
  }
  res->extra.Set("answers_read",
                 static_cast<double>(st.probe.answers.total()), "count");
  res->extra.Set("restart_p99_us", st.probe.restart_us.P99(), "us");
  res->extra.Set("delay_p99_ns", st.probe.delay_ns.P99(), "ns");
  res->extra.Set("edit_pooled_p99_us", st.edit_us.PooledP99(), "us");
  res->extra.Set("restart_pooled_p99_us", st.probe.restart_us.PooledP99(),
                 "us");
  res->extra.Set("delay_pooled_p99_ns", st.probe.delay_ns.PooledP99(), "ns");
}

// ---- Workload specs -------------------------------------------------------

/// A document with its queries registered through a private (cold) cache.
struct DocState {
  QueryCache cache;  // outlives the document
  std::unique_ptr<DynamicDocument> doc;
  std::vector<DynamicDocument::QueryHandle> handles;
};

/// tree_edits: a 32768-node document with two indexed queries (the
/// standard marked-ancestor query with counting, and a child-axis query);
/// mixed edits each followed by a restart probe, plus subtree moves and
/// k = 256 batch commits. The update path does nearly all the work, over
/// ~0.5 GB of circuit and index state — far beyond any cache. (131072 nodes
/// would need 2 GB resident, 4 GB at the oracle checks.)
struct TreeEditsSpec {
  /// The shape is fixed per size and only the labels come from the seed:
  /// term depth, and so every cost, depends strongly on the shape of a
  /// random recursive tree, and seeds must compare like with like.
  static treenum::UnrankedTree MakeInput(size_t n, uint64_t seed) {
    Rng shape(0x7265656E756DULL + n);
    treenum::UnrankedTree t = treenum::RandomTree(n, 3, shape);
    Rng labels(seed);
    for (NodeId v : t.PreorderNodes()) {
      t.Relabel(v, static_cast<Label>(labels.Index(3)));
    }
    return t;
  }
  static size_t Size(bool smoke) { return smoke ? 4096 : 32768; }
  static LoopParams Params(bool smoke) {
    LoopParams p;
    p.probe_answers = 8;
    p.move_every = 64;
    p.batch_every = smoke ? 64 : 512;
    p.batch_k = smoke ? 32 : 256;
    p.rss_cycle = smoke ? 256 : 16384;
    return p;
  }
  static std::vector<treenum::UnrankedTva> Queries() {
    return {treenum::QueryMarkedAncestor(3, 1, 2),
            treenum::QueryChildOfLabel(3, 0, 2)};
  }
  static std::vector<bool> Counting() { return {true, false}; }

  /// Mirror equality plus a StaticEngine oracle per query.
  static uint64_t Check(DocState& s, const TreeScript& script,
                        RunResult* res) {
    res->Check(s.doc->tree() == script.mirror(),
               "tree_edits: document tree differs from the mirror");
    std::vector<std::vector<Assignment>> got;
    const auto queries = Queries();
    for (size_t i = 0; i < queries.size(); ++i) {
      treenum::StaticEngine oracle(script.mirror(), queries[i]);
      got.push_back(s.doc->EnumerateAt(s.doc->CurrentSnapshot(),
                                       s.handles[i]));
      res->Check(got.back() == oracle.EnumerateAll(),
                 "tree_edits: answers differ from the StaticEngine oracle "
                 "(query " + std::to_string(i) + ")");
    }
    return DigestAll(got);
  }
};

void BuildDoc(treenum::UnrankedTree input, DocState* s) {
  s->doc = std::make_unique<DynamicDocument>(std::move(input), 3, &s->cache);
  const auto queries = TreeEditsSpec::Queries();
  const auto counting = TreeEditsSpec::Counting();
  for (size_t i = 0; i < queries.size(); ++i) {
    s->handles.push_back(s->doc->Register(queries[i]));
    if (counting[i]) s->doc->pipeline(s->handles.back()).EnableCounting();
  }
}

}  // namespace

void RunTreeEdits(const RunConfig& cfg, RunResult* res) {
  using Spec = TreeEditsSpec;
  const treenum::UnrankedTree input =
      Spec::MakeInput(Spec::Size(cfg.smoke), cfg.seed);
  const LoopParams params = Spec::Params(cfg.smoke);
  const uint64_t script_seed = cfg.seed * 0x9E3779B97F4A7C15ull + 1;

  // Set-up: encode, cold compile, register (pipeline builds) — repeated,
  // the median reported; the last document is the one measured.
  HostSpeed host;
  const int setups = cfg.trace ? 1 : 5;
  std::vector<double> setup_s;
  auto state = std::make_unique<DocState>();
  for (int i = 0; i < setups; ++i) {
    state = std::make_unique<DocState>();
    treenum::UnrankedTree copy = input;
    const uint64_t t0 = NowNs();
    BuildDoc(std::move(copy), state.get());
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  res->extra.Set("rss_after_setup_mb", PeakRssMb(), "MB");

  // Untraced phase (the whole run, or the first half of a traced run).
  TreeScript script(input, script_seed);
  DocTarget target(state->doc.get(), state->handles[0]);
  LoopStats st;
  Checkpoints cp;
  RunTimed(script, target, params, cfg.trace ? cfg.seconds / 2 : cfg.seconds,
           &st, &host, &cp, [&] { return Spec::Check(*state, script, res); });
  res->attempted += st.ops;
  if (!cfg.trace) {
    EndToEndMetrics(st, host, Median(setup_s), res);
    return;
  }
  const double untraced_mean = st.edit_us.Mean();
  const double untraced_p50 = st.edit_us.P50();
  state.reset();

  // Traced replay of the same cycles through the layer chain.
  Tracer tracer;
  QueryCache cache;
  std::unique_ptr<DynamicEncoding> enc;
  {
    Scoped s(&tracer, kOpSetup);
    Scoped e(&tracer, kFalgebraEncode);
    enc = std::make_unique<DynamicEncoding>(input, 3);
  }
  LayerChain chain(&tracer, std::move(enc));
  {
    const auto queries = Spec::Queries();
    const auto counting = Spec::Counting();
    for (size_t i = 0; i < queries.size(); ++i) {
      Scoped s(&tracer, kOpSetup);
      QueryCache::Handle plan;
      {
        Scoped c(&tracer, kAutomataCompile);
        plan = cache.CompileTree(queries[i]);
      }
      chain.AddQuery(std::move(plan), counting[i]);
    }
  }
  TreeScript replay_script(input, script_seed);
  ChainTarget chain_target(&chain);
  LoopStats traced;
  const size_t num_queries = Spec::Queries().size();
  RunReplay(replay_script, chain_target, params, cp, &traced,
            [&] {
              std::vector<std::vector<Assignment>> all;
              for (size_t q = 0; q < num_queries; ++q) {
                all.push_back(chain.AllAnswers(q));
              }
              return DigestAll(all);
            },
            res);
  res->attempted += traced.ops;

  TraceSummary summary;
  summary.tracer = &tracer;
  summary.counts = chain.counts();
  summary.untraced_edit_mean_us = untraced_mean;
  summary.untraced_edit_p50_us = untraced_p50;
  summary.traced_edit_p50_us = traced.edit_us.P50();
  summary.cache_hit_frac = CacheHitFrac(cache.stats());
  LayerMetrics(summary, &res->metrics);
  res->extra.Set("untraced_edit_p50_us", untraced_p50, "us");
  res->extra.Set("traced_edit_p50_us", traced.edit_us.P50(), "us");
  res->extra.Set("spans_kept", static_cast<double>(tracer.stored()), "count");
  if (!cfg.spans_path.empty()) {
    res->Check(tracer.WriteSpans(cfg.spans_path),
               "could not write the span file " + cfg.spans_path);
  }
}

}  // namespace perfbench
