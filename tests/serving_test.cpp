// DocumentShardServer correctness: randomized mixed command scripts (leaf
// edits + structural transactions + query churn + document removal) against
// recompute-from-scratch StaticEngine oracles, bit-identical answers across
// shard counts (S=1 vs S=8), concurrent snapshot readers during load and
// during query churn (run under TSan in CI), work-stealing liveness with
// exactly-once delivery, several client threads submitting at once, the
// per-document run budget, and reads at pins of other or removed
// documents.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include "automata/query_library.h"
#include "baseline/static_engine.h"
#include "serving/shard_server.h"
#include "serving/workload.h"

namespace treenum {
namespace {

using serving::CommandScript;
using serving::DocumentShardServer;
using serving::WorkloadOptions;

UnrankedTva PersistentQuery() { return QueryMarkedAncestor(3, 1, 2); }
UnrankedTva ChurnQuery() { return QuerySelectLabel(3, 1); }

/// One served document plus its deterministic script and its query churn:
/// a `churn` share of its commands alternately register and unregister a
/// second query, so at most one churn registration is outstanding.
struct Tenant {
  DocumentShardServer::DocRef doc;
  DocumentShardServer::QueryRef query;
  CommandScript script;
  double churn;
  Rng churn_rng;
  DynamicDocument::QueryHandle churn_handle = 0;
  bool churn_live = false;

  Tenant(DocumentShardServer::DocRef d, DocumentShardServer::QueryRef q,
         CommandScript s, double churn_fraction, uint64_t seed)
      : doc(d), query(q), script(std::move(s)), churn(churn_fraction),
        churn_rng(seed) {}
};

constexpr double kMixedChurn = 0.03;

WorkloadOptions MixedWorkload() {
  WorkloadOptions wo;
  wo.num_labels = 3;
  wo.structural_fraction = 0.08;
  wo.min_size = 8;
  return wo;
}

std::vector<Tenant> MakeTenants(DocumentShardServer& server, size_t docs,
                                size_t doc_size, uint64_t seed,
                                const WorkloadOptions& wo,
                                double churn = kMixedChurn) {
  const UnrankedTva query = PersistentQuery();
  std::vector<Tenant> tenants;
  tenants.reserve(docs);
  for (size_t i = 0; i < docs; ++i) {
    Rng rng(seed + i);
    UnrankedTree tree = RandomTree(doc_size, 3, rng);
    auto doc = server.AddDocument(tree, 3);
    auto q = server.RegisterQuery(doc, query);
    tenants.emplace_back(doc, q,
                         CommandScript(std::move(tree), seed ^ (i * 977), wo),
                         churn, seed + 31 * i);
  }
  return tenants;
}

/// Submits the tenant's next churn step or scripted command.
void SubmitNext(DocumentShardServer& server, Tenant& t,
                const UnrankedTva& churn_query) {
  if (t.churn > 0 && t.churn_rng.Flip(t.churn)) {
    if (t.churn_live) {
      server.UnregisterQuery(t.doc, t.churn_handle);
    } else {
      t.churn_handle = server.RegisterQuery(t.doc, churn_query).handle;
    }
    t.churn_live = !t.churn_live;
    return;
  }
  server.Submit(t.doc, t.script.Next());
}

std::vector<Assignment> Sorted(std::vector<Assignment> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// After Drain(): every served tree equals its script mirror, and the
/// persistent query's answers at a fresh pin match a StaticEngine rebuilt
/// from scratch on that tree.
void ExpectMatchesOracles(const DocumentShardServer& server,
                          const std::vector<Tenant>& tenants) {
  const UnrankedTva query = PersistentQuery();
  for (size_t i = 0; i < tenants.size(); ++i) {
    const Tenant& t = tenants[i];
    const UnrankedTree& tree = server.document(t.doc).tree();
    ASSERT_TRUE(tree == t.script.mirror()) << "doc " << i;
    StaticEngine oracle(tree, query);
    EXPECT_EQ(Sorted(t.query.view.EnumerateAt(server.Pin(t.doc))),
              Sorted(oracle.EnumerateAll()))
        << "doc " << i;
  }
}

// ---- Mixed scripts vs fresh oracles ----

// Randomized mixed scripts across 4 shards; after draining, every served
// document must equal its script mirror node-for-node, and the persistent
// query's answers (read through the caller-thread ReaderView at a pinned
// snapshot) must match a StaticEngine rebuilt from scratch on that tree.
TEST(ShardServer, MixedScriptsMatchFreshOracles) {
  constexpr size_t kDocs = 6, kDocSize = 48, kCommands = 1500;
  DocumentShardServer::Options o;
  o.shards = 4;
  DocumentShardServer server(o);
  std::vector<Tenant> tenants =
      MakeTenants(server, kDocs, kDocSize, 0x5EED, MixedWorkload());
  const UnrankedTva churn_query = ChurnQuery();

  Rng rng(99);
  for (size_t k = 0; k < kCommands; ++k) {
    Tenant& t = tenants[k % tenants.size()];
    SubmitNext(server, t, churn_query);
    if (k % 128 == 127) {
      // Mid-run probe from the submitting thread: pin whatever is current
      // and check the two read paths agree on it.
      Tenant& probe = tenants[rng.Index(tenants.size())];
      SnapshotRef snap = server.Pin(probe.doc);
      const bool has = probe.query.view.HasAnswerAt(snap);
      auto cursor = probe.query.view.MakeCursorAt(snap);
      Assignment a;
      EXPECT_EQ(has, cursor->Next(&a)) << "probe at command " << k;
    }
  }
  server.Drain();
  ExpectMatchesOracles(server, tenants);

  const DocumentShardServer::Stats stats = server.stats();
  // Every scripted command plus the initial registrations flowed through
  // the queues.
  EXPECT_EQ(stats.commands, kCommands + kDocs);
  EXPECT_GT(stats.structural_applied, 0u);
  EXPECT_GT(stats.registers, kDocs);  // initial registrations plus churn
}

// ---- Determinism across shard counts ----

// The same scripted workload submitted in the same per-document order must
// produce bit-identical final trees and answers whether one worker or
// eight drain the queues (work stealing and group-commit boundaries must
// not be observable in the served state).
TEST(ShardServer, AnswersAreIdenticalAcrossShardCounts) {
  constexpr size_t kDocs = 8, kDocSize = 40, kCommands = 1200;
  const UnrankedTva query = PersistentQuery();
  const UnrankedTva churn_query = ChurnQuery();

  auto run = [&](size_t shards) {
    DocumentShardServer::Options o;
    o.shards = shards;
    DocumentShardServer server(o);
    std::vector<Tenant> tenants =
        MakeTenants(server, kDocs, kDocSize, 0xD17E, MixedWorkload());
    for (size_t k = 0; k < kCommands; ++k) {
      SubmitNext(server, tenants[k % tenants.size()], churn_query);
    }
    server.Drain();
    std::vector<std::string> trees;
    std::vector<std::vector<Assignment>> answers;
    for (Tenant& t : tenants) {
      trees.push_back(server.document(t.doc).tree().ToString());
      answers.push_back(Sorted(t.query.view.EnumerateAt(server.Pin(t.doc))));
    }
    return std::make_pair(std::move(trees), std::move(answers));
  };

  const auto one = run(1);
  const auto eight = run(8);
  ASSERT_EQ(one.first.size(), eight.first.size());
  for (size_t i = 0; i < one.first.size(); ++i) {
    EXPECT_EQ(one.first[i], eight.first[i]) << "tree of doc " << i;
    EXPECT_EQ(one.second[i], eight.second[i]) << "answers of doc " << i;
  }
}

// ---- Concurrent snapshot readers during load ----

// Reader threads continuously pin snapshots and enumerate the persistent
// query through their ReaderViews while the shard workers commit edits,
// structural transactions and `churn_fraction` register/unregister churn.
// Readers assert internal consistency (existence check vs cursor) and
// count mismatches; after draining, every document is checked against
// fresh oracles. This is the serving-layer TSan workload.
void RunSnapshotReadersDuringServing(double churn_fraction) {
  constexpr size_t kDocs = 4, kDocSize = 40, kCommands = 1200;
  constexpr size_t kReaders = 3;
  DocumentShardServer::Options o;
  o.shards = 2;
  DocumentShardServer server(o);
  std::vector<Tenant> tenants =
      MakeTenants(server, kDocs, kDocSize, 7, MixedWorkload(), churn_fraction);
  const UnrankedTva churn_query = ChurnQuery();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(1000 + r);
      while (!stop.load(std::memory_order_acquire)) {
        Tenant& t = tenants[rng.Index(tenants.size())];
        SnapshotRef snap = server.Pin(t.doc);
        const bool has = t.query.view.HasAnswerAt(snap);
        auto cursor = t.query.view.MakeCursorAt(snap);
        Assignment a;
        bool got = false;
        for (size_t k = 0; k < 4 && cursor->Next(&a); ++k) got = true;
        if (has != got) mismatches.fetch_add(1, std::memory_order_relaxed);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (size_t k = 0; k < kCommands; ++k) {
    SubmitNext(server, tenants[k % tenants.size()], churn_query);
  }
  server.Drain();
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  ExpectMatchesOracles(server, tenants);
}

TEST(ShardServer, SnapshotReadersConcurrentWithServing) {
  RunSnapshotReadersDuringServing(/*churn_fraction=*/0);
}

// The same readers while the workers register and unregister a second
// query on the documents being read: each churn registration builds a
// pipeline next to the persistent one and each release destroys it.
TEST(ShardServer, SnapshotReadersConcurrentWithQueryChurn) {
  RunSnapshotReadersDuringServing(/*churn_fraction=*/0.2);
}

// ---- Work stealing ----

// All load aimed at documents homed on ONE shard; the other three workers
// have nothing of their own, so draining the backlog at all promptly
// requires them to steal. Keeps feeding the hot shard until a steal is
// observed (bounded), then asserts correctness of the stolen work.
TEST(ShardServer, IdleShardsStealFromLoadedNeighbours) {
  DocumentShardServer::Options o;
  o.shards = 4;
  DocumentShardServer server(o);
  WorkloadOptions wo;  // pure leaf edits: cheapest commands, max pressure
  wo.num_labels = 3;

  // Collect documents that all hash to the same home shard.
  std::vector<Tenant> tenants;
  const UnrankedTva query = PersistentQuery();
  size_t home = SIZE_MAX;
  for (size_t i = 0; tenants.size() < 6 && i < 256; ++i) {
    Rng rng(42 + i);
    UnrankedTree tree = RandomTree(48, 3, rng);
    auto doc = server.AddDocument(tree, 3);
    if (home == SIZE_MAX) home = server.shard_of(doc);
    if (server.shard_of(doc) != home) continue;  // shell doc, never used
    auto q = server.RegisterQuery(doc, query);
    tenants.emplace_back(doc, q, CommandScript(std::move(tree), 42 ^ i, wo),
                         /*churn_fraction=*/0, i);
  }
  ASSERT_GE(tenants.size(), 4u);

  const UnrankedTva churn_query = ChurnQuery();
  uint64_t steals = 0;
  uint64_t submitted = 0;
  for (int wave = 0; wave < 200 && steals == 0; ++wave) {
    for (size_t k = 0; k < 600; ++k) {
      SubmitNext(server, tenants[k % tenants.size()], churn_query);
    }
    submitted += 600;
    server.Drain();
    steals = server.stats().steals;
  }
  EXPECT_GT(steals, 0u) << "no steal in 200 waves of single-shard backlog";
  // Exactly-once delivery while workers steal: every submitted edit plus
  // the initial registrations was consumed, none lost or duplicated.
  EXPECT_EQ(server.stats().commands, submitted + tenants.size());

  // Stolen work must not have corrupted anything.
  for (size_t i = 0; i < tenants.size(); ++i) {
    ASSERT_TRUE(server.document(tenants[i].doc).tree() ==
                tenants[i].script.mirror())
        << "doc " << i;
  }
}

// ---- Concurrent submitters ----

// Four client threads drive their own tenants at once, so every run queue
// takes pushes from several producers while its owner pops and idle
// neighbours steal. Each tenant still has a single writer, so its commands
// must apply in submission order, each exactly once.
TEST(ShardServer, ConcurrentSubmittersMatchMirrors) {
  constexpr size_t kClients = 4, kDocsPerClient = 3, kDocSize = 40;
  constexpr size_t kCommandsPerClient = 600;
  DocumentShardServer::Options o;
  o.shards = 4;
  DocumentShardServer server(o);
  std::vector<Tenant> tenants = MakeTenants(
      server, kClients * kDocsPerClient, kDocSize, 0xC11E, MixedWorkload());
  const UnrankedTva churn_query = ChurnQuery();

  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t k = 0; k < kCommandsPerClient; ++k) {
        SubmitNext(server, tenants[c * kDocsPerClient + k % kDocsPerClient],
                   churn_query);
      }
    });
  }
  for (auto& th : clients) th.join();
  server.Drain();
  ExpectMatchesOracles(server, tenants);
  EXPECT_EQ(server.stats().commands,
            kClients * kCommandsPerClient + tenants.size());
}

// ---- Fairness ----

// One worker. While it builds a registration on a large `hot` document, the
// test queues two run budgets (Options::max_commands_per_run) of edits
// behind that registration and one edit on `cold`. After its first slice
// `hot` must be rescheduled behind `cold`, so `cold` commits while hot's
// second slice is still queued. `hot` has 65,536 nodes so that the build
// outlasts the queueing by a wide margin, however fast a build gets: at
// 4,096 nodes a faster circuit build made the precondition fail under
// parallel test load.
TEST(ShardServer, BackloggedDocumentYieldsAfterItsSlice) {
  constexpr size_t kBacklog =
      2 * DocumentShardServer::Options::max_commands_per_run;
  DocumentShardServer::Options o;
  o.shards = 1;
  DocumentShardServer server(o);
  WorkloadOptions wo;  // pure leaf edits
  wo.num_labels = 3;
  Rng rng(21);
  UnrankedTree tree = RandomTree(65536, 3, rng);
  const auto hot = server.AddDocument(tree, 3);
  CommandScript script(std::move(tree), 21, wo);
  UnrankedTree cold_tree = RandomTree(32, 3, rng);
  const auto cold = server.AddDocument(cold_tree, 3);
  CommandScript cold_script(std::move(cold_tree), 22, wo);
  std::vector<Edit> backlog;
  for (size_t k = 0; k < kBacklog; ++k) backlog.push_back(script.NextEdit());

  std::thread registrar(
      [&] { server.RegisterQuery(hot, PersistentQuery()); });
  while (server.stats().doc_runs == 0) std::this_thread::yield();
  // The worker is inside hot's run: these edits join hot's command queue
  // without rescheduling it, and cold goes onto the run queue.
  for (const Edit& e : backlog) server.SubmitEdit(hot, e);
  const uint64_t cold_epoch = server.Pin(cold).epoch();
  server.SubmitEdit(cold, cold_script.NextEdit());
  // No registration applied yet: the worker was busy the whole time, so it
  // found all of hot's edits queued when it reached them.
  const bool queued_while_busy = server.stats().registers == 0;
  while (server.Pin(cold).epoch() == cold_epoch) std::this_thread::yield();
  const uint64_t applied_at_cold = server.stats().edits_applied;
  registrar.join();
  ASSERT_TRUE(queued_while_busy)
      << "the registration finished before the backlog was queued";
  EXPECT_LT(applied_at_cold, kBacklog) << "cold waited for hot's whole backlog";

  server.Drain();
  EXPECT_EQ(server.stats().edits_applied, kBacklog + 1);
  ASSERT_TRUE(server.document(hot).tree() == script.mirror());
}

// ---- Rejections ----

// Every bad command one tenant can send is rejected on its own document:
// the server keeps running, Stats::rejected counts the command, and the
// other tenant's next edit commits and matches a fresh StaticEngine.
TEST(ShardServer, BadCommandsAreRejectedPerTenant) {
  DocumentShardServer::Options o;
  o.shards = 2;
  DocumentShardServer server(o);
  std::vector<Tenant> tenants =
      MakeTenants(server, 2, 24, 0xBAD, MixedWorkload(), /*churn=*/0);
  Tenant& bad = tenants[0];
  Tenant& good = tenants[1];
  const UnrankedTree& tree = bad.script.mirror();
  NodeId inner = kNoNode;
  for (NodeId n : tree.PreorderNodes()) {
    if (n != tree.root() && !tree.IsLeaf(n)) inner = n;
  }
  ASSERT_NE(inner, kNoNode);
  const NodeId below = tree.children(inner).front();
  const UnrankedTva churn = ChurnQuery();

  const std::vector<std::pair<const char*, std::function<void()>>> probes = {
      {"inner-node DeleteLeaf",
       [&] { server.SubmitEdit(bad.doc, Edit::DeleteLeaf(inner)); }},
      {"move into the moved subtree",
       [&] {
         server.SubmitStructural(
             bad.doc,
             serving::StructuralOp::Move(inner, below,
                                         AttachWhere::kFirstChild));
       }},
      {"unknown node",
       [&] { server.SubmitEdit(bad.doc, Edit::Relabel(12345, 1)); }},
      {"wrong-alphabet query",
       [&] {
         const DocumentShardServer::QueryRef ref =
             server.RegisterQuery(bad.doc, QuerySelectLabel(4, 1));
         EXPECT_EQ(ref.handle, DynamicDocument::kNoHandle);
         EXPECT_FALSE(ref.view);
         // Its empty view reads as a query with no answers.
         const SnapshotRef snap = server.Pin(bad.doc);
         EXPECT_FALSE(ref.view.HasAnswerAt(snap));
         EXPECT_TRUE(ref.view.EnumerateAt(snap).empty());
         EXPECT_EQ(ref.view.MakeCursorAt(snap), nullptr);
       }},
      {"double unregister",
       [&] {
         const auto h = server.RegisterQuery(bad.doc, churn).handle;
         server.UnregisterQuery(bad.doc, h);
         server.UnregisterQuery(bad.doc, h);
       }},
      {"unknown handle", [&] { server.UnregisterQuery(bad.doc, 12345); }},
      {"word command on a tree document",
       [&] { server.Submit(bad.doc, Command::Erase(0)); }},
  };
  for (const auto& [name, probe] : probes) {
    SCOPED_TRACE(name);
    const uint64_t rejected = server.stats().rejected;
    probe();
    server.Submit(good.doc, good.script.Next());
    server.Drain();
    EXPECT_EQ(server.stats().rejected, rejected + 1);
    ExpectMatchesOracles(server, tenants);
  }

  // Inside a group commit: bad commands interleaved with scripted ones are
  // each rejected alone, and every scripted one still commits.
  for (int k = 0; k < 30; ++k) {
    server.Submit(bad.doc, bad.script.Next());
    server.SubmitEdit(bad.doc, Edit::Relabel(12345, 1));
  }
  server.Drain();
  EXPECT_EQ(server.stats().rejected, probes.size() + 30);
  ExpectMatchesOracles(server, tenants);
}

// ---- Document lifecycle ----

TEST(ShardServer, RemoveDocumentCompletesPendingWork) {
  DocumentShardServer::Options o;
  o.shards = 2;
  DocumentShardServer server(o);
  WorkloadOptions wo;
  wo.num_labels = 3;
  std::vector<Tenant> tenants =
      MakeTenants(server, 4, 32, 11, wo, /*churn=*/0);
  const UnrankedTva churn_query = ChurnQuery();

  for (size_t k = 0; k < 400; ++k) {
    SubmitNext(server, tenants[k % tenants.size()], churn_query);
  }
  // Remove two documents with work still queued: removal is FIFO behind
  // their pending edits, so it must apply them first, then destroy.
  server.RemoveDocument(tenants[1].doc);
  server.RemoveDocument(tenants[3].doc);
  for (size_t k = 0; k < 200; ++k) {
    Tenant& t = tenants[(k % 2) * 2];  // only docs 0 and 2 remain
    SubmitNext(server, t, churn_query);
  }
  server.Drain();

  EXPECT_EQ(server.stats().removes, 2u);
  for (size_t i : {size_t{0}, size_t{2}}) {
    ASSERT_TRUE(server.document(tenants[i].doc).tree() ==
                tenants[i].script.mirror())
        << "doc " << i;
  }
}

// A removed document is closed, not a crash: a command, a registration, an
// unregistration and a second removal sent after it are each rejected and
// counted, so is whatever a thread submits while the removal runs, and
// the other tenant carries on.
TEST(ShardServer, RequestsForARemovedDocumentAreRejected) {
  DocumentShardServer::Options o;
  o.shards = 2;
  DocumentShardServer server(o);
  std::vector<Tenant> tenants =
      MakeTenants(server, 2, 24, 0xD0C, MixedWorkload(), /*churn=*/0);
  Tenant& a = tenants[0];
  Tenant& b = tenants[1];
  const NodeId root = a.script.mirror().root();

  // Relabels submitted before the removal apply; the rest are rejected.
  std::atomic<bool> removed{false};
  std::atomic<uint64_t> submitted{0};
  std::thread submitter([&] {
    while (!removed.load(std::memory_order_acquire)) {
      server.SubmitEdit(a.doc, Edit::Relabel(root, 1));
      submitted.fetch_add(1, std::memory_order_relaxed);
    }
  });
  while (submitted.load(std::memory_order_relaxed) < 64) {
    std::this_thread::yield();
  }
  server.RemoveDocument(a.doc);
  removed.store(true, std::memory_order_release);
  submitter.join();
  server.Drain();
  const DocumentShardServer::Stats raced = server.stats();
  EXPECT_EQ(raced.removes, 1u);
  EXPECT_EQ(raced.edits_applied + raced.rejected, submitted.load());

  server.Submit(a.doc, Command::Relabel(root, 2));
  const DocumentShardServer::QueryRef ref =
      server.RegisterQuery(a.doc, ChurnQuery());
  EXPECT_EQ(ref.handle, DynamicDocument::kNoHandle);
  EXPECT_FALSE(ref.view);
  server.UnregisterQuery(a.doc, b.query.handle);
  server.RemoveDocument(a.doc);  // returns at once
  EXPECT_EQ(server.stats().rejected, raced.rejected + 4);
  EXPECT_EQ(server.stats().removes, 1u);

  // Tenant B's next command commits and answers like a fresh oracle.
  server.Submit(b.doc, b.script.Next());
  server.Drain();
  EXPECT_EQ(server.stats().commits, raced.commits + 1);
  const UnrankedTree& tree = server.document(b.doc).tree();
  ASSERT_TRUE(tree == b.script.mirror());
  StaticEngine oracle(tree, PersistentQuery());
  EXPECT_EQ(Sorted(b.query.view.EnumerateAt(server.Pin(b.doc))),
            Sorted(oracle.EnumerateAll()));
}

// Reads that name the wrong document answer nothing: a tenant's view read
// at another tenant's pin (whose root id lies past every id of the first
// document), and any read at a Pin taken after RemoveDocument, which is
// empty instead of a pin of the destroyed document.
TEST(ShardServer, PinsOfOtherOrRemovedDocumentsAnswerNothing) {
  DocumentShardServer::Options o;
  o.shards = 2;
  DocumentShardServer server(o);
  Rng rng(0x919);
  const UnrankedTree small = RandomTree(24, 3, rng);
  const UnrankedTree large = RandomTree(300, 3, rng);
  const DocumentShardServer::DocRef a = server.AddDocument(small, 3);
  const DocumentShardServer::DocRef b = server.AddDocument(large, 3);
  const DocumentShardServer::QueryRef qa =
      server.RegisterQuery(a, PersistentQuery());
  const DocumentShardServer::QueryRef qb =
      server.RegisterQuery(b, PersistentQuery());
  const std::vector<Assignment> answers_a =
      Sorted(StaticEngine(small, PersistentQuery()).EnumerateAll());
  ASSERT_FALSE(answers_a.empty());
  EXPECT_EQ(Sorted(qa.view.EnumerateAt(server.Pin(a))), answers_a);

  {
    const SnapshotRef pin_b = server.Pin(b);
    ASSERT_TRUE(qb.view.HasAnswerAt(pin_b));
    ASSERT_GE(pin_b.root(), server.document(a).term().id_bound());
    EXPECT_FALSE(qa.view.HasAnswerAt(pin_b));
    EXPECT_TRUE(qa.view.EnumerateAt(pin_b).empty());
    EXPECT_EQ(qa.view.MakeCursorAt(pin_b), nullptr);
  }

  server.RemoveDocument(a);
  const SnapshotRef removed = server.Pin(a);
  EXPECT_FALSE(removed);
  EXPECT_FALSE(qb.view.HasAnswerAt(removed));
  EXPECT_TRUE(qb.view.EnumerateAt(removed).empty());
  EXPECT_EQ(qb.view.MakeCursorAt(removed), nullptr);
  // The other tenant still answers like a fresh oracle.
  EXPECT_EQ(Sorted(qb.view.EnumerateAt(server.Pin(b))),
            Sorted(StaticEngine(large, PersistentQuery()).EnumerateAll()));
}

}  // namespace
}  // namespace treenum
