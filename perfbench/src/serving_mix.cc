// serving_mix: DocumentShardServer with S = 2 shard workers and 256 tenant
// documents of 256 nodes. The generator submits fixed-size chunks of
// commands round-robin over the tenants (95% leaf edits, 5% subtree
// moves), each chunk flat out and then drained, while one reader/admin
// thread pins snapshots, reads the first 8 answers and does the
// query-registration churn. Four threads: the generator (which waits in
// Drain while a chunk is served), two shard workers, and the reader, which
// spins between reads.
//
// The traced run adds the open loop: Poisson arrivals at a fixed absolute
// rate (8000 commands/s, about a fifth of the S = 2 saturation rate on a
// 4-core host, then 20000/s), submitted by a generator that makes only
// asynchronous calls and records how late each arrival was submitted. Its
// figures are diagnostics, not gated: on a shared 4-vCPU host an open loop
// idles the vCPUs between arrivals, and waking them takes up to
// milliseconds when other tenants are busy, so its tails say more about
// the host than about the server.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "automata/query_cache.h"
#include "automata/query_library.h"
#include "baseline/static_engine.h"
#include "common.h"
#include "scripts.h"
#include "serving/shard_server.h"
#include "serving/workload.h"
#include "trace.h"
#include "util/latency_histogram.h"
#include "workloads.h"

namespace perfbench {
namespace {

using treenum::Assignment;
using treenum::DynamicEncoding;
using treenum::QueryCache;
using treenum::SnapshotRef;
using treenum::UpdateResult;
using treenum::serving::DocCommand;
using treenum::serving::DocumentShardServer;
using treenum::serving::PoissonArrivals;
using treenum::serving::StructuralOp;

struct ServingParams {
  size_t docs = 256;
  size_t doc_size = 256;
  size_t shards = 2;
  double structural = 0.05;    ///< Share of subtree moves.
  /// Commands per flat-out chunk: a multiple of `docs`, so each chunk
  /// gives every tenant the same run of consecutive commands.
  size_t chunk = 1024;
  size_t chunks_per_window = 8;  ///< Chunks per latency window.
  size_t rss_chunks = 32;      ///< Peak RSS is read after this many chunks.
  size_t read_answers = 8;
  size_t churn_every = 64;     ///< Reader iterations per churn.
  size_t churn_tenants = 16;   ///< Churn picks among these tenants.
  // Traced-run open loop.
  double open_rate = 8000;
  double diag_rate = 20000;
  double open_seconds = 2.0;
  double diag_seconds = 0.5;
};

ServingParams Params(bool smoke) {
  ServingParams p;
  if (smoke) {
    p.docs = 16;
    p.doc_size = 64;
    p.chunk = 256;
    p.chunks_per_window = 4;
    p.rss_chunks = 8;
    p.churn_every = 16;
    p.churn_tenants = 4;
    p.open_seconds = 0.2;
    p.diag_seconds = 0.1;
  }
  return p;
}

uint64_t TenantSeed(uint64_t seed, size_t i) {
  return seed * 0x9E3779B97F4A7C15ull + 7919 * (i + 1);
}

/// One tenant's command stream: balanced tree edits (see TreeScript) and
/// small subtree moves, so documents keep their size and shape however many
/// commands a run submits.
class TenantScript {
 public:
  TenantScript(UnrankedTree tree, uint64_t seed, double structural)
      : script_(std::move(tree), seed), mix_(seed ^ 0xC0FFEE),
        structural_(structural) {}

  DocCommand Next() {
    DocCommand c;
    if (mix_.Flip(structural_)) {
      const TreeMove m = script_.NextMove();
      c.kind = DocCommand::Kind::kStructural;
      c.structural = StructuralOp::Move(m.v, m.dst, m.where);
    } else {
      c.kind = DocCommand::Kind::kEdit;
      c.edit = script_.NextEdit();
    }
    return c;
  }
  const UnrankedTree& mirror() const { return script_.mirror(); }

 private:
  TreeScript script_;
  Rng mix_;
  double structural_;
};

struct Tenant {
  DocumentShardServer::DocRef doc;
  DocumentShardServer::QueryRef query;
  TenantScript script;
  uint64_t submitted = 0;
  uint64_t chunked = 0;  ///< Of `submitted`, those sent in flat-out chunks.
};

/// One served fleet: the cache (outlives the server), the server and the
/// tenants.
struct Fleet {
  QueryCache cache;
  std::unique_ptr<DocumentShardServer> server;
  std::vector<Tenant> tenants;
};

/// Tenant scripts (with their mirror trees) — benchmark bookkeeping, made
/// before set-up is timed.
std::vector<TenantScript> MakeScripts(
    const ServingParams& p, const std::vector<treenum::UnrankedTree>& trees,
    uint64_t seed) {
  std::vector<TenantScript> scripts;
  for (size_t i = 0; i < p.docs; ++i) {
    scripts.emplace_back(trees[i], TenantSeed(seed, i), p.structural);
  }
  return scripts;
}

void BuildFleet(const ServingParams& p, std::vector<treenum::UnrankedTree> trees,
                std::vector<TenantScript> scripts, Fleet* f) {
  DocumentShardServer::Options so;
  so.shards = p.shards;
  so.query_cache = &f->cache;
  f->server = std::make_unique<DocumentShardServer>(so);
  const treenum::UnrankedTva query = treenum::QueryMarkedAncestor(3, 1, 2);
  f->tenants.reserve(p.docs);
  for (size_t i = 0; i < p.docs; ++i) {
    auto doc = f->server->AddDocument(std::move(trees[i]), 3);
    auto q = f->server->RegisterQuery(doc, query);
    f->tenants.push_back({doc, q, std::move(scripts[i]), 0, 0});
  }
  // The churn tenants start with the churn query's pipeline warm, as a
  // server in steady state has them; otherwise per-edit cost would drift
  // up during the run as churn warms one tenant after another.
  const treenum::UnrankedTva churn = treenum::QuerySelectLabel(3, 1);
  for (size_t i = 0; i < p.churn_tenants; ++i) {
    Tenant& t = f->tenants[i];
    f->server->UnregisterQuery(t.doc, f->server->RegisterQuery(t.doc, churn).handle);
  }
  f->server->Drain();
}

void Submit(DocumentShardServer& server, Tenant& t, const DocCommand& c) {
  if (c.kind == DocCommand::Kind::kStructural) {
    server.SubmitStructural(t.doc, c.structural);
  } else {
    server.SubmitEdit(t.doc, c.edit);
  }
  ++t.submitted;
}

/// Gate between the generator's phase boundaries and the reader/admin
/// thread's command submissions: the server's latency histograms may only
/// be read and reset while drained.
class AdminGate {
 public:
  bool TryBegin() {
    std::lock_guard<std::mutex> lock(mu_);
    if (!open_) return false;
    busy_ = true;
    return true;
  }
  void End() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      busy_ = false;
    }
    cv_.notify_all();
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
  }
  void Close() {
    std::unique_lock<std::mutex> lock(mu_);
    open_ = false;
    cv_.wait(lock, [this] { return !busy_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;  // guarded by mu_
  bool busy_ = false;  // guarded by mu_
};

/// What the reader/admin thread measured.
struct AdminStats {
  ReadStats reads;
  Samples pin_ns{20000};
  Samples register_us{20000};
  uint64_t churns = 0;
};

void AdminLoop(Fleet& f, const ServingParams& p, uint64_t seed,
               AdminGate& gate, const std::atomic<bool>& stop,
               AdminStats* out) {
  DocumentShardServer& server = *f.server;
  const treenum::UnrankedTva churn_query = treenum::QuerySelectLabel(3, 1);
  Rng rng(seed);
  uint64_t iter = 0;
  while (!stop.load(std::memory_order_acquire)) {
    Tenant& t = f.tenants[rng.Index(f.tenants.size())];
    const uint64_t t0 = NowNs();
    SnapshotRef snap = server.Pin(t.doc);
    out->pin_ns.Add(static_cast<double>(NowNs() - t0));
    auto cursor = t.query.view.MakeCursorAt(std::move(snap));
    Assignment a;
    size_t n = 0;
    uint64_t prev = t0;
    while (n < p.read_answers && cursor->Next(&a)) {
      const uint64_t now = NowNs();
      if (n == 0) {
        out->reads.restart_us.Add(static_cast<double>(now - t0) / 1e3);
      } else {
        out->reads.delay_ns.Add(static_cast<double>(now - prev));
      }
      prev = now;
      ++n;
    }
    if (n == 0) {
      out->reads.restart_us.Add(static_cast<double>(NowNs() - t0) / 1e3);
    }
    cursor.reset();
    out->reads.answers.Add(n, prev - t0);
    ++out->reads.reads;
    ++iter;

    if (iter % p.churn_every == 0 && gate.TryBegin()) {
      Tenant& c = f.tenants[rng.Index(p.churn_tenants)];
      const uint64_t r0 = NowNs();
      auto ref = server.RegisterQuery(c.doc, churn_query);
      out->register_us.Add(static_cast<double>(NowNs() - r0) / 1e3);
      server.UnregisterQuery(c.doc, ref.handle);
      ++out->churns;
      gate.End();
    }
    // Paced by spinning, not sleeping: a vCPU that idles on a shared host
    // is handed to other tenants, and the next read then starts on cold
    // caches, so the read tails would measure the host.
    const uint64_t until = NowNs() + 100000;
    while (NowNs() < until) {
    }
  }
}

double QuantileUs(const treenum::LatencyHistogram& h, double q) {
  return static_cast<double>(h.Quantile(q)) / 1e3;
}

/// The server's submit→commit latencies, window by window (see Samples
/// for why the gated figures are medians over windows), and pooled.
struct ServedLatency {
  std::vector<double> p50_us, p99_us;  ///< Per window.
  treenum::LatencyHistogram pooled;

  /// Drains, then takes the latencies recorded since the last call as one
  /// window.
  void TakeWindow(DocumentShardServer& server) {
    server.Drain();
    treenum::LatencyHistogram h;
    server.MergeEditLatency(&h);
    server.ResetEditLatency();
    if (h.count() == 0) return;
    p50_us.push_back(QuantileUs(h, 0.50));
    p99_us.push_back(QuantileUs(h, 0.99));
    pooled.MergeFrom(h);
  }
};

/// Open-loop generator state (traced run only).
struct GenStats {
  Samples late_us{20000};
  Samples submit_ns{20000};
  uint64_t submitted = 0;
  double backlog_max = 0;
};

/// The open loop at `rate` for `ns`: Poisson arrivals, asynchronous
/// submissions only, lateness recorded against each intended arrival.
void Generate(Fleet& f, double rate, uint64_t ns, uint64_t seed, size_t* rr,
              GenStats* g) {
  DocumentShardServer& server = *f.server;
  PoissonArrivals arrivals(rate, seed);
  const uint64_t start = NowNs();
  const uint64_t end = start + ns;
  uint64_t due = start;
  uint64_t total = server.stats().commands;
  while (true) {
    due += arrivals.NextGapNs();
    if (due >= end) break;
    Tenant& t = f.tenants[(*rr)++ % f.tenants.size()];
    const DocCommand c = t.script.Next();
    uint64_t now = NowNs();
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      now = NowNs();
    }
    g->late_us.Add(static_cast<double>(now - due) / 1e3);
    Submit(server, t, c);
    g->submit_ns.Add(static_cast<double>(NowNs() - now));
    ++g->submitted;
    ++total;
    if ((g->submitted & 255) == 0) {
      const double backlog =
          static_cast<double>(total) - static_cast<double>(server.stats().commands);
      g->backlog_max = std::max(g->backlog_max, backlog);
    }
  }
  while (NowNs() < end) std::this_thread::sleep_for(std::chrono::microseconds(50));
}

/// Traced run: replays every tenant's command sequence through the layer
/// objects (one chain per tenant) the way the server committed it, and
/// checks the replayed answers against the served documents. A flat-out
/// chunk gives each tenant chunk / docs consecutive commands, which the
/// server group-commits under one batch (serving.commits_per_cmd shows
/// it); open-loop commands arrive far apart and commit alone. Each commit
/// is followed by an 8-answer read.
void ReplayTenants(const ServingParams& p,
                   const std::vector<treenum::UnrankedTree>& trees,
                   uint64_t seed, const Fleet& f, Tracer* tracer,
                   ChainCounts* counts, RunResult* res) {
  QueryCache cache;
  QueryCache::Handle plan;
  {
    Scoped s(tracer, kOpSetup);
    Scoped c(tracer, kAutomataCompile);
    plan = cache.CompileTree(treenum::QueryMarkedAncestor(3, 1, 2));
  }
  ReadStats reads;
  const uint64_t per_chunk = std::min<uint64_t>(
      p.chunk / p.docs, DocumentShardServer::Options().max_group_commit);
  for (size_t i = 0; i < f.tenants.size(); ++i) {
    std::unique_ptr<DynamicEncoding> enc;
    {
      Scoped s(tracer, kOpSetup);
      Scoped e(tracer, kFalgebraEncode);
      enc = std::make_unique<DynamicEncoding>(trees[i], 3);
    }
    LayerChain chain(tracer, std::move(enc));
    {
      Scoped s(tracer, kOpSetup);
      chain.AddQuery(plan, false);
    }
    TenantScript script(trees[i], TenantSeed(seed, i), p.structural);
    const Tenant& t = f.tenants[i];
    for (uint64_t k = 0; k < t.submitted;) {
      const uint64_t group = k < t.chunked ? std::min(t.chunked - k, per_chunk)
                                           : 1;
      if (group > 1) chain.BeginBatch();
      for (uint64_t g = 0; g < group; ++g) {
        const DocCommand c = script.Next();
        if (c.kind == DocCommand::Kind::kStructural) {
          const StructuralOp& op = c.structural;
          chain.Transaction([&op](DynamicEncoding& e) -> const UpdateResult& {
            return e.SubtreeMove(op.v, op.dst,
                                 op.where == AttachWhere::kFirstChild);
          });
        } else {
          chain.Edit([&c](DynamicEncoding& e) -> const UpdateResult& {
            return ApplyTreeEdit(e, c.edit);
          });
        }
      }
      if (group > 1) chain.CommitBatch();
      chain.Read(p.read_answers, &reads);
      k += group;
    }
    const treenum::DynamicDocument& doc = f.server->document(f.tenants[i].doc);
    res->Check(chain.AllAnswers() ==
                   doc.EnumerateAt(doc.CurrentSnapshot(), f.tenants[i].query.handle),
               "serving_mix: replayed answers differ from tenant " +
                   std::to_string(i));
    counts->Add(chain.counts());
  }
}

}  // namespace

void RunServingMix(const RunConfig& cfg, RunResult* res) {
  const ServingParams p = Params(cfg.smoke);
  std::vector<treenum::UnrankedTree> trees;
  for (size_t i = 0; i < p.docs; ++i) {
    Rng rng(TenantSeed(cfg.seed, i) ^ 0x5A5A);
    trees.push_back(treenum::RandomTree(p.doc_size, 3, rng));
  }

  // Set-up: server start, 256 documents encoded, the query compiled cold
  // once and registered on every tenant, churn tenants warmed. Repeated;
  // median reported.
  const int setups = cfg.trace ? 1 : 5;
  std::vector<double> setup_s;
  std::unique_ptr<Fleet> fleet;
  for (int i = 0; i < setups; ++i) {
    fleet.reset();
    fleet = std::make_unique<Fleet>();
    std::vector<treenum::UnrankedTree> copy = trees;
    std::vector<TenantScript> scripts = MakeScripts(p, trees, cfg.seed);
    const uint64_t t0 = NowNs();
    BuildFleet(p, std::move(copy), std::move(scripts), fleet.get());
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  DocumentShardServer& server = *fleet->server;
  server.ResetEditLatency();  // drained by BuildFleet
  const double seconds = cfg.trace ? cfg.seconds / 2 : cfg.seconds;

  // ---- Chunks submitted flat out and drained, with the reader/admin
  // thread running.
  AdminGate gate;
  AdminStats admin;
  std::atomic<bool> stop{false};
  std::thread admin_thread([&] {
    AdminLoop(*fleet, p, cfg.seed + 1000, gate, stop, &admin);
  });
  Samples chunk_ms{p.chunks_per_window};
  Rate rate;
  ServedLatency lat;
  HostSpeed host;
  uint64_t chunks = 0;
  double rss_mb = 0;
  size_t rr = 0;
  const DocumentShardServer::Stats before = server.stats();
  const uint64_t run_t0 = NowNs();
  {
    std::vector<std::pair<Tenant*, DocCommand>> chunk;
    const double budget_ns = seconds * 1e9;
    double busy_ns = 0;
    gate.Open();
    while (busy_ns < budget_ns) {
      chunk.clear();
      for (size_t k = 0; k < p.chunk; ++k) {
        Tenant& t = fleet->tenants[rr++ % fleet->tenants.size()];
        chunk.emplace_back(&t, t.script.Next());
      }
      const uint64_t t0 = NowNs();
      for (auto& [t, c] : chunk) Submit(server, *t, c);
      server.Drain();
      const uint64_t t1 = NowNs();
      busy_ns += static_cast<double>(t1 - t0);
      chunk_ms.Add(static_cast<double>(t1 - t0) / 1e6);
      rate.Add(chunk.size(), t1 - t0);
      if (++chunks % p.chunks_per_window == 0) {
        gate.Close();
        lat.TakeWindow(server);
        gate.Open();
        host.Sample();  // drained: the shard workers are idle
      }
      // Peak RSS after a fixed amount of work, so it does not depend on
      // the run's speed.
      if (chunks == p.rss_chunks) rss_mb = PeakRssMb();
    }
  }
  for (Tenant& t : fleet->tenants) t.chunked = t.submitted;
  const double run_s = static_cast<double>(NowNs() - run_t0) / 1e9;
  const DocumentShardServer::Stats after = server.stats();

  // Traced run only: the open loop at the fixed rate, then at the
  // diagnostic rate where the commit tail is unexplained (ungated).
  GenStats gen, diag_gen;
  ServedLatency open_lat, diag_lat;
  if (cfg.trace) {
    gate.Close();
    lat.TakeWindow(server);  // the chunks' last partial window
    gate.Open();
    Generate(*fleet, p.open_rate, static_cast<uint64_t>(p.open_seconds * 1e9),
             cfg.seed * 31, &rr, &gen);
    gate.Close();
    open_lat.TakeWindow(server);
    gate.Open();
    Generate(*fleet, p.diag_rate, static_cast<uint64_t>(p.diag_seconds * 1e9),
             cfg.seed * 31 + 999, &rr, &diag_gen);
    gate.Close();
    diag_lat.TakeWindow(server);
  }
  stop.store(true, std::memory_order_release);
  admin_thread.join();
  server.Drain();

  // ---- Correctness, outside every timed region.
  uint64_t submitted = 0;
  for (size_t i = 0; i < fleet->tenants.size(); ++i) {
    const Tenant& t = fleet->tenants[i];
    submitted += t.submitted;
    res->Check(server.document(t.doc).tree() == t.script.mirror(),
               "serving_mix: tenant " + std::to_string(i) +
                   " tree differs from its script's mirror");
  }
  const DocumentShardServer::Stats end = server.stats();
  res->Check(end.edits_applied + end.structural_applied == submitted,
             "serving_mix: applied commands != submitted commands");
  // Set-up registered every tenant's query and warmed the churn tenants.
  res->Check(end.registers ==
                     fleet->tenants.size() + p.churn_tenants + admin.churns &&
                 end.unregisters == p.churn_tenants + admin.churns,
             "serving_mix: registrations applied != registrations submitted");
  const treenum::UnrankedTva query = treenum::QueryMarkedAncestor(3, 1, 2);
  for (size_t i = 0; i < fleet->tenants.size(); i += 16) {
    const Tenant& t = fleet->tenants[i];
    const treenum::DynamicDocument& doc = server.document(t.doc);
    treenum::StaticEngine oracle(t.script.mirror(), query);
    res->Check(doc.EnumerateAt(doc.CurrentSnapshot(), t.query.handle) ==
                   oracle.EnumerateAll(),
               "serving_mix: tenant " + std::to_string(i) +
                   " answers differ from the StaticEngine oracle");
  }
  res->attempted += submitted + admin.reads.reads + admin.churns;

  Metrics& m = res->metrics;
  if (!cfg.trace) {
    const double f = host.Factor();  // times at the reference host speed
    m.Set("setup_s", Median(setup_s) * f, "s");
    m.Set("edit_p50_us", Median(lat.p50_us) * f, "us");
    m.Set("edit_p99_us", Median(lat.p99_us) * f, "us");
    m.Set("batch_commit_p50_ms", chunk_ms.P50() * f, "ms");
    m.Set("restart_p90_us", admin.reads.restart_us.P90() * f, "us");
    m.Set("answers_per_s", admin.reads.answers.PerSecond() / f, "1/s");
    m.Set("delay_p90_ns", admin.reads.delay_ns.P90() * f, "ns");
    m.Set("sustained_cmd_per_s", rate.PerSecond() / f, "1/s");
    m.Set("peak_rss_mb", rss_mb > 0 ? rss_mb : PeakRssMb(), "MB");
  } else {
    Tracer tracer;
    ChainCounts counts;
    ReplayTenants(p, trees, cfg.seed, *fleet, &tracer, &counts, res);
    m.Set("serving.submit_ns", gen.submit_ns.Mean(), "ns");
    const double cmds = static_cast<double>(after.commands - before.commands);
    m.Set("serving.commits_per_cmd",
          cmds == 0 ? 0.0 : static_cast<double>(after.commits - before.commits) / cmds,
          "fraction");
    m.Set("serving.steals_per_s",
          static_cast<double>(after.steals - before.steals) / run_s, "1/s");
    m.Set("serving.backlog_max", gen.backlog_max, "count");
    m.Set("serving.register_p99_us", admin.register_us.P99(), "us");
    m.Set("serving.gen_late_p99_us", gen.late_us.P99(), "us");
    m.Set("serving.commit_p99_us_at_8k", QuantileUs(open_lat.pooled, 0.99),
          "us");
    m.Set("serving.commit_p99_us_at_20k", QuantileUs(diag_lat.pooled, 0.99),
          "us");
    TraceSummary summary;
    summary.tracer = &tracer;
    summary.counts = counts;
    summary.cache_hit_frac = CacheHitFrac(fleet->cache.stats());
    LayerMetrics(summary, &m);
    // Reads on serving_mix pin through the server. The residual and the
    // trace overhead compare an untraced edit with its replay; served
    // commands have no untraced single-edit latency to compare with.
    m.Set("core.pin_ns", admin.pin_ns.Mean(), "ns");
    m.Set("core.residual_us", 0.0, "us");
    m.Set("trace.edit_p50_overhead_us", 0.0, "us");
    if (!cfg.spans_path.empty()) {
      res->Check(tracer.WriteSpans(cfg.spans_path),
                 "could not write the span file " + cfg.spans_path);
    }
    res->extra.Set("open_commit_p50_us_at_8k",
                   QuantileUs(open_lat.pooled, 0.50), "us");
    res->extra.Set("open_submitted", static_cast<double>(gen.submitted),
                   "count");
  }
  res->extra.Set("host_ns_per_step", host.NsPerStep(), "ns");
  res->extra.Set("edit_p50_us_unscaled", Median(lat.p50_us), "us");
  res->extra.Set("chunks", static_cast<double>(chunks), "count");
  res->extra.Set("restart_p99_us", admin.reads.restart_us.P99(), "us");
  res->extra.Set("delay_p99_ns", admin.reads.delay_ns.P99(), "ns");
  res->extra.Set("edit_pooled_p99_us", QuantileUs(lat.pooled, 0.99), "us");
  res->extra.Set("restart_pooled_p99_us", admin.reads.restart_us.PooledP99(),
                 "us");
  res->extra.Set("delay_pooled_p99_ns", admin.reads.delay_ns.PooledP99(),
                 "ns");
  res->extra.Set("register_p99_us", admin.register_us.P99(), "us");
  res->extra.Set("reads", static_cast<double>(admin.reads.reads), "count");
  res->extra.Set("churns", static_cast<double>(admin.churns), "count");
}

}  // namespace perfbench
