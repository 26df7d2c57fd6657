// Open-loop serving load harness (BENCH_serving.json).
//
// Unlike the google-benchmark suites, this binary models a *served* system:
// a DocumentShardServer with S shard workers hosting D tenant documents,
// driven by a fixed-rate open-loop generator. Closed-loop benchmarks hide
// queueing delay (the generator waits for the system), so tail latency
// looks flat right up to collapse; an open-loop generator schedules
// arrivals on a Poisson clock independent of service times, and the
// submit→commit latency recorded by the server therefore *includes* the
// queueing the load actually causes.
//
// Two phases per (S, D) configuration:
//
//   1. Saturation: a fixed command budget is submitted as fast as the
//      generator can go, then Drain() — the wall time gives the sustained
//      commands/sec ceiling for this configuration.
//   2. Open-loop latency: the same mixed workload (edits + structural
//      transactions + query churn) replayed at a fixed fraction of the
//      measured ceiling on Poisson arrivals, while reader threads pin
//      snapshots and enumerate on their own threads (never queued behind
//      edits). Per-command submit→commit latencies come from the server's
//      per-shard lock-free histograms; enumeration latencies are recorded
//      by the readers into a shared histogram.
//
// Knobs (env):
//   TREENUM_SERVING_SMOKE=1      CI smoke: tiny budgets, S={1,2}, D={16}
//   TREENUM_SERVING_CMDS=N       commands per phase per configuration
//   TREENUM_SERVING_DOC_SIZE=N   initial nodes per document
//   TREENUM_SERVING_SHARDS=a,b   shard counts to sweep
//   TREENUM_SERVING_DOCS=a,b     document counts to sweep
//   TREENUM_SERVING_LOAD=f       open-loop rate as a fraction of the
//                                measured ceiling (default 0.6)
//   TREENUM_BENCH_JSON=path      append one JSON line per configuration
#include <atomic>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "automata/query_cache.h"
#include "automata/query_library.h"
#include "bench_util.h"
#include "core/document.h"
#include "serving/shard_server.h"
#include "serving/workload.h"
#include "util/latency_histogram.h"

namespace treenum {
namespace {

using serving::CommandScript;
using serving::DocCommand;
using serving::DocumentShardServer;
using serving::PoissonArrivals;
using serving::WorkloadOptions;

size_t EnvSize(const char* name, size_t def) {
  const char* v = std::getenv(name);
  return v ? static_cast<size_t>(std::strtoull(v, nullptr, 10)) : def;
}

double EnvDouble(const char* name, double def) {
  const char* v = std::getenv(name);
  return v ? std::strtod(v, nullptr) : def;
}

std::vector<size_t> EnvSizeList(const char* name,
                                std::vector<size_t> def) {
  const char* v = std::getenv(name);
  if (!v) return def;
  std::vector<size_t> out;
  for (const char* p = v; *p != '\0';) {
    out.push_back(static_cast<size_t>(std::strtoull(p, nullptr, 10)));
    const char* comma = std::strchr(p, ',');
    if (!comma) break;
    p = comma + 1;
  }
  return out.empty() ? def : out;
}

double Us(uint64_t ns) { return static_cast<double>(ns) / 1e3; }

/// One tenant document being served: its server ref, persistent query
/// registration, churn slot, and the deterministic command script.
struct Tenant {
  DocumentShardServer::DocRef doc;
  DocumentShardServer::QueryRef query;
  DynamicDocument::QueryHandle churn_handle = 0;
  bool churn_live = false;
  CommandScript script;

  Tenant(DocumentShardServer::DocRef d, DocumentShardServer::QueryRef q,
         CommandScript s)
      : doc(d), query(q), script(std::move(s)) {}
};

/// Maps one generated command onto the server. Register/unregister churn
/// markers register a second, distinct query: each registration is a
/// query-cache hit that builds a fresh pipeline, and each release destroys
/// it, which is the churn pattern being modeled.
void SubmitCommand(DocumentShardServer& server, Tenant& t,
                   const UnrankedTva& churn_query, const DocCommand& c) {
  switch (c.kind) {
    case DocCommand::Kind::kEdit:
      server.SubmitEdit(t.doc, c.edit);
      break;
    case DocCommand::Kind::kStructural:
      server.SubmitStructural(t.doc, c.structural);
      break;
    case DocCommand::Kind::kRegister:
      t.churn_handle = server.RegisterQuery(t.doc, churn_query).handle;
      t.churn_live = true;
      break;
    case DocCommand::Kind::kUnregister:
      if (t.churn_live) {
        server.UnregisterQuery(t.doc, t.churn_handle);
        t.churn_live = false;
      }
      break;
  }
}

struct PhaseResult {
  uint64_t submitted = 0;
  double wall_s = 0;
  double rate_eps = 0;  ///< mutation commands per second
};

/// Reader thread body: pin → existence check → bounded cursor drain,
/// recording wall latency per enumeration into `hist`.
void ReaderLoop(DocumentShardServer& server, std::vector<Tenant>& tenants,
                std::atomic<bool>& stop, uint64_t seed,
                LatencyHistogram& hist, std::atomic<uint64_t>& answers) {
  Rng rng(seed);
  while (!stop.load(std::memory_order_acquire)) {
    Tenant& t = tenants[rng.Index(tenants.size())];
    const uint64_t t0 = DocumentShardServer::NowNs();
    SnapshotRef snap = server.Pin(t.doc);
    uint64_t local = 0;
    if (t.query.view.HasAnswerAt(snap)) {
      auto cursor = t.query.view.MakeCursorAt(snap);
      Assignment a;
      for (size_t k = 0; k < 8 && cursor->Next(&a); ++k) ++local;
    }
    snap.Reset();
    hist.Record(DocumentShardServer::NowNs() - t0);
    answers.fetch_add(local, std::memory_order_relaxed);
    // Modest pacing so readers probe rather than saturate the host.
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

void RunConfig(size_t shards, size_t docs, size_t doc_size, size_t cmds,
               double load_factor, size_t readers, double structural_frac,
               double churn_frac) {
  DocumentShardServer::Options so;
  so.shards = shards;
  DocumentShardServer server(so);

  WorkloadOptions wo;
  wo.num_labels = 3;
  wo.structural_fraction = structural_frac;
  wo.churn_fraction = churn_frac;

  const UnrankedTva query = bench::StandardQuery();
  const UnrankedTva churn_query = QuerySelectLabel(3, 1);

  std::vector<Tenant> tenants;
  tenants.reserve(docs);
  for (size_t i = 0; i < docs; ++i) {
    Rng rng(bench::kSeed + i);
    UnrankedTree tree = RandomTree(doc_size, 3, rng);
    auto doc = server.AddDocument(tree, 3);
    auto q = server.RegisterQuery(doc, query);
    tenants.emplace_back(doc, q,
                         CommandScript(std::move(tree), bench::kSeed ^ i, wo));
  }

  // ---- Phase 1: saturation (fixed budget, submit flat out, drain) ----
  PhaseResult sat;
  {
    const uint64_t t0 = DocumentShardServer::NowNs();
    for (size_t k = 0; k < cmds; ++k) {
      Tenant& t = tenants[k % tenants.size()];
      SubmitCommand(server, t, churn_query, t.script.Next());
    }
    server.Drain();
    const uint64_t t1 = DocumentShardServer::NowNs();
    sat.submitted = cmds;
    sat.wall_s = static_cast<double>(t1 - t0) / 1e9;
    sat.rate_eps = static_cast<double>(cmds) / sat.wall_s;
  }
  server.ResetEditLatency();

  // ---- Phase 2: open-loop latency at a fraction of the ceiling ----
  const double target_rate = sat.rate_eps * load_factor;
  LatencyHistogram enum_hist;
  std::atomic<uint64_t> enum_answers{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> reader_threads;
  for (size_t r = 0; r < readers; ++r) {
    reader_threads.emplace_back([&, r] {
      ReaderLoop(server, tenants, stop, bench::kSeed + 1000 + r, enum_hist,
                 enum_answers);
    });
  }

  PhaseResult open;
  {
    PoissonArrivals arrivals(target_rate, bench::kSeed + 7);
    const uint64_t t0 = DocumentShardServer::NowNs();
    uint64_t next = t0;
    for (size_t k = 0; k < cmds; ++k) {
      next += arrivals.NextGapNs();
      // Open loop: the arrival schedule never waits for the system. If we
      // are behind, submit immediately (the backlog is the point).
      for (;;) {
        const uint64_t now = DocumentShardServer::NowNs();
        if (now >= next) break;
        const uint64_t gap = next - now;
        if (gap > 100000) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(gap - 50000));
        }
      }
      Tenant& t = tenants[k % tenants.size()];
      SubmitCommand(server, t, churn_query, t.script.Next());
    }
    server.Drain();
    const uint64_t t1 = DocumentShardServer::NowNs();
    open.submitted = cmds;
    open.wall_s = static_cast<double>(t1 - t0) / 1e9;
    open.rate_eps = static_cast<double>(cmds) / open.wall_s;
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : reader_threads) th.join();

  LatencyHistogram edit_hist;
  server.MergeEditLatency(&edit_hist);
  const DocumentShardServer::Stats stats = server.stats();

  const double p50 = Us(edit_hist.Quantile(0.50));
  const double p99 = Us(edit_hist.Quantile(0.99));
  const double p999 = Us(edit_hist.Quantile(0.999));
  const double ep50 = Us(enum_hist.Quantile(0.50));
  const double ep99 = Us(enum_hist.Quantile(0.99));

  std::printf(
      "serving S=%zu docs=%zu size=%zu cmds=%zu | sustained %.0f cmd/s "
      "(drain %.2fs) | open-loop @%.0f/s: p50 %.1fus p99 %.1fus p999 %.1fus "
      "| enum n=%" PRIu64 " p50 %.1fus p99 %.1fus | steals %" PRIu64
      " commits %" PRIu64 " structural %" PRIu64 "\n",
      shards, docs, doc_size, cmds, sat.rate_eps, sat.wall_s, target_rate,
      p50, p99, p999, enum_hist.count(), ep50, ep99, stats.steals,
      stats.commits, stats.structural_applied);

  bench::EmitJson(
      "serving",
      {{"shards", static_cast<double>(shards)},
       {"docs", static_cast<double>(docs)},
       {"doc_size", static_cast<double>(doc_size)},
       {"commands", static_cast<double>(cmds)},
       {"sustained_eps", sat.rate_eps},
       {"sat_wall_s", sat.wall_s},
       {"target_eps", target_rate},
       {"open_eps", open.rate_eps},
       {"p50_us", p50},
       {"p99_us", p99},
       {"p999_us", p999},
       {"enum_count", static_cast<double>(enum_hist.count())},
       {"enum_p50_us", ep50},
       {"enum_p99_us", ep99},
       {"steals", static_cast<double>(stats.steals)},
       {"commits", static_cast<double>(stats.commits)},
       {"edits", static_cast<double>(stats.edits_applied)},
       {"structural", static_cast<double>(stats.structural_applied)},
       {"registers", static_cast<double>(stats.registers)},
       {"unregisters", static_cast<double>(stats.unregisters)}});
}

// ---- Warm-start phase (serving_warmstart series) ----
//
// Cold: the whole query library registered on a fresh document through a
// fresh QueryCache — each registration pays translation, determinization,
// homogenization and canonicalization before the pipeline is built. The
// cache image is then serialized (SaveCache) and restored into a second
// cache (WarmStart); re-registering the same library on a new document
// pays only the pipeline build. The cold/warm latency ratio is the
// restart-time win a server gets from shipping its compiled-plan cache.
void RunWarmStart(size_t doc_size) {
  std::vector<UnrankedTva> library;
  library.push_back(QuerySelectLabel(3, 1));
  library.push_back(QuerySelectAll(3));
  library.push_back(QueryMarkedAncestor(3, 1, 2));
  library.push_back(QueryDescendantPairs(3, 0, 1));
  library.push_back(QueryContainsLabel(3, 2));
  library.push_back(QueryAnySubsetOfLabel(3, 0));
  // Compile cost grows exponentially with the distance k while the
  // per-document pipeline cost only tracks the final automaton, so this
  // query dominates the cold leg — exactly the plan a warm start saves.
  library.push_back(QueryAncestorAtDistance(3, 1, 6));
  library.push_back(QueryChildOfLabel(3, 0, 2));
  library.push_back(QuerySelectLeaves(3));
  library.push_back(QueryNextSibling(3, 1, 0));

  Rng rng(bench::kSeed + 31);
  UnrankedTree tree = RandomTree(doc_size, 3, rng);

  QueryCache cold_cache;
  uint64_t cold_ns = 0;
  {
    DynamicDocument doc(tree, 3, &cold_cache);
    for (const UnrankedTva& q : library) {
      const uint64_t t0 = DocumentShardServer::NowNs();
      doc.Register(q);
      cold_ns += DocumentShardServer::NowNs() - t0;
    }
  }

  std::stringstream image(std::ios::in | std::ios::out | std::ios::binary);
  if (!cold_cache.SaveCache(image)) {
    std::fprintf(stderr, "warmstart: SaveCache failed\n");
    return;
  }
  const size_t image_bytes = image.str().size();

  QueryCache warm_cache;
  std::string error;
  const size_t admitted = warm_cache.WarmStart(image, &error);
  if (admitted != library.size()) {
    std::fprintf(stderr, "warmstart: restored %zu/%zu plans (%s)\n", admitted,
                 library.size(), error.c_str());
    return;
  }

  uint64_t warm_ns = 0;
  {
    DynamicDocument doc(tree, 3, &warm_cache);
    for (const UnrankedTva& q : library) {
      const uint64_t t0 = DocumentShardServer::NowNs();
      doc.Register(q);
      warm_ns += DocumentShardServer::NowNs() - t0;
    }
  }
  const QueryCache::Stats ws = warm_cache.stats();

  const double speedup =
      warm_ns > 0 ? static_cast<double>(cold_ns) / static_cast<double>(warm_ns)
                  : 0.0;
  std::printf(
      "serving_warmstart size=%zu queries=%zu | cold %.1fus warm %.1fus "
      "(%.1fx) | image %zu bytes | warm translations %" PRIu64 "\n",
      doc_size, library.size(), Us(cold_ns), Us(warm_ns), speedup, image_bytes,
      static_cast<uint64_t>(ws.translations));

  bench::EmitJson("serving_warmstart",
                  {{"doc_size", static_cast<double>(doc_size)},
                   {"queries", static_cast<double>(library.size())},
                   {"cold_register_us", Us(cold_ns)},
                   {"warm_register_us", Us(warm_ns)},
                   {"speedup", speedup},
                   {"image_bytes", static_cast<double>(image_bytes)},
                   {"warm_translations", static_cast<double>(ws.translations)}});
}

}  // namespace
}  // namespace treenum

int main() {
  using namespace treenum;
  const bool smoke = EnvSize("TREENUM_SERVING_SMOKE", 0) != 0;
  const size_t cmds = EnvSize("TREENUM_SERVING_CMDS", smoke ? 1500 : 20000);
  const size_t doc_size =
      EnvSize("TREENUM_SERVING_DOC_SIZE", smoke ? 96 : 256);
  const double load = EnvDouble("TREENUM_SERVING_LOAD", 0.6);
  const size_t readers = smoke ? 1 : 2;
  std::vector<size_t> shard_list = EnvSizeList(
      "TREENUM_SERVING_SHARDS",
      smoke ? std::vector<size_t>{1, 2} : std::vector<size_t>{1, 4, 8});
  std::vector<size_t> docs_list =
      EnvSizeList("TREENUM_SERVING_DOCS", smoke ? std::vector<size_t>{16}
                                                : std::vector<size_t>{16, 256});
  RunWarmStart(/*doc_size=*/32);
  for (size_t docs : docs_list) {
    for (size_t shards : shard_list) {
      RunConfig(shards, docs, doc_size, cmds, load, readers,
                /*structural_frac=*/0.05, /*churn_frac=*/0.01);
    }
  }
  return 0;
}
