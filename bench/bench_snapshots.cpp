// Experiment E9 — copy-on-write snapshots: concurrent reader enumeration
// while the writer edits.
//
// Three questions, three benchmark families (JSON key BENCH_snapshots.json
// via $TREENUM_BENCH_JSON; schema in BENCHMARKS.md):
//
//  * Reader scaling — aggregate EnumerateAt throughput at 1/2/4/8 reader
//    threads under a free-running batched writer, against the serialized
//    baseline (one thread alternating the same writer batches and
//    enumerations, so a reader and the writer never overlap).
//  * Writer overhead — batched-relabel latency with 0 and 4 concurrent
//    readers. The readers:0 series is workload-identical to
//    BM_Update_BatchedRelabels (bench_updates), so the cross-PR JSON
//    trajectory exposes what path-copying costs the writer.
//  * Mechanism cost — pin/unpin churn on the snapshot handoff, and the
//    full edit→publish→retire→drain cycle on a small tree.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/document.h"

namespace treenum {
namespace {

using bench::kSeed;

constexpr size_t kBatch = 16;          // writer edits per batch
constexpr size_t kEnumsPerReader = 32; // enumerations per reader per iteration

// Serialized enumerations/sec, stashed by the baseline bench (registered
// first) so the scaling benches can report speedup directly.
double g_serialized_eps = 0.0;

// One thread alternates writer batches and enumerations: the throughput a
// reader saw when enumeration and edits excluded each other. Manual time
// so the benchmark clock and the stashed enums/sec agree.
void SerializedBaseline(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  UnrankedTree tree = bench::MakeTree(n);
  DynamicDocument doc(tree, 3);
  DynamicDocument::QueryHandle h = doc.Register(bench::StandardQuery());
  serving::CommandScript script(tree, kSeed, serving::WorkloadOptions{3});

  size_t enums = 0;
  size_t answers = 0;
  double seconds = 0.0;
  std::vector<Edit> batch;
  for (auto _ : state) {
    auto t0 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < kEnumsPerReader; ++i) {
      batch.clear();
      for (size_t j = 0; j < kBatch; ++j) batch.push_back(script.NextRelabel());
      bench::ApplyBatch(doc, batch);
      answers += doc.EnumerateAt(doc.CurrentSnapshot(), h).size();
      ++enums;
    }
    std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
    seconds += dt.count();
    state.SetIterationTime(dt.count());
  }
  state.SetItemsProcessed(static_cast<int64_t>(enums));
  double eps = seconds > 0 ? static_cast<double>(enums) / seconds : 0.0;
  g_serialized_eps = eps;
  state.counters["enums_per_sec"] = eps;
  state.counters["answers_per_enum"] =
      static_cast<double>(answers) / static_cast<double>(enums);
  bench::EmitJson("snapshot_serialized_baseline",
                  {{"n", static_cast<double>(n)},
                   {"enums_per_sec", eps},
                   {"iterations", static_cast<double>(state.iterations())}});
}

// R reader threads enumerate pinned snapshots while the writer free-runs
// batched relabels on the bench thread's clock. Reported time covers the
// reader phase only (manual time); the writer runs for exactly that span.
void ReaderThroughput(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  int readers = static_cast<int>(state.range(1));
  UnrankedTree tree = bench::MakeTree(n);
  DynamicDocument doc(tree, 3);
  DynamicDocument::QueryHandle h = doc.Register(bench::StandardQuery());
  serving::CommandScript script(tree, kSeed, serving::WorkloadOptions{3});

  size_t enums = 0;
  double seconds = 0.0;
  std::atomic<size_t> answers{0};
  for (auto _ : state) {
    std::atomic<bool> stop{false};
    std::thread writer([&] {
      std::vector<Edit> batch;
      while (!stop.load(std::memory_order_acquire)) {
        batch.clear();
        for (size_t j = 0; j < kBatch; ++j) {
          batch.push_back(script.NextRelabel());
        }
        bench::ApplyBatch(doc, batch);
      }
    });
    auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> pool;
    for (int r = 0; r < readers; ++r) {
      pool.emplace_back([&] {
        size_t local = 0;
        for (size_t i = 0; i < kEnumsPerReader; ++i) {
          SnapshotRef snap = doc.CurrentSnapshot();
          local += doc.EnumerateAt(snap, h).size();
        }
        answers.fetch_add(local, std::memory_order_relaxed);
      });
    }
    for (std::thread& t : pool) t.join();
    std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
    stop.store(true, std::memory_order_release);
    writer.join();
    seconds += dt.count();
    state.SetIterationTime(dt.count());
    enums += static_cast<size_t>(readers) * kEnumsPerReader;
  }
  state.SetItemsProcessed(static_cast<int64_t>(enums));
  double eps = seconds > 0 ? static_cast<double>(enums) / seconds : 0.0;
  state.counters["enums_per_sec"] = eps;
  state.counters["readers"] = static_cast<double>(readers);
  double speedup = g_serialized_eps > 0 ? eps / g_serialized_eps : 0.0;
  state.counters["speedup_vs_serialized"] = speedup;
  bench::EmitJson("snapshot_reader_throughput",
                  {{"n", static_cast<double>(n)},
                   {"readers", static_cast<double>(readers)},
                   {"enums_per_sec", eps},
                   {"speedup_vs_serialized", speedup},
                   {"snapshots_published",
                    static_cast<double>(doc.snapshots_published())},
                   {"iterations", static_cast<double>(state.iterations())}});
}

void BM_Snapshot_ReaderThroughput(benchmark::State& state) {
  ReaderThroughput(state);
}

// Writer-side cost of path-copying: batched relabels (same workload as
// BM_Update_BatchedRelabels) with 0 and 4 concurrent readers.
void WriterUnderReaders(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  size_t k = static_cast<size_t>(state.range(1));
  int readers = static_cast<int>(state.range(2));
  UnrankedTree tree = bench::MakeTree(n);
  DynamicDocument doc(tree, 3);
  DynamicDocument::QueryHandle h = doc.Register(bench::StandardQuery());
  serving::CommandScript script(tree, kSeed, serving::WorkloadOptions{3});

  // Untimed warmup, as in bench_updates: size the arena spans.
  {
    std::vector<Edit> warm;
    for (size_t i = 0; i < k; ++i) warm.push_back(script.NextRelabel());
    bench::ApplyBatch(doc, warm);
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> pool;
  for (int r = 0; r < readers; ++r) {
    pool.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        SnapshotRef snap = doc.CurrentSnapshot();
        benchmark::DoNotOptimize(doc.EnumerateAt(snap, h).size());
      }
    });
  }
  uint64_t copies0 = doc.term().path_copies();
  std::vector<Edit> batch;
  for (auto _ : state) {
    batch.clear();
    for (size_t i = 0; i < k; ++i) batch.push_back(script.NextRelabel());
    bench::ApplyBatch(doc, batch);
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : pool) t.join();

  size_t edits = state.iterations() * k;
  double copies_per_edit =
      static_cast<double>(doc.term().path_copies() - copies0) /
      static_cast<double>(edits);
  state.counters["path_copies_per_edit"] = copies_per_edit;
  state.counters["readers"] = static_cast<double>(readers);
  state.SetItemsProcessed(static_cast<int64_t>(edits));
  bench::EmitJson("snapshot_writer_batched_relabels",
                  {{"n", static_cast<double>(n)},
                   {"k", static_cast<double>(k)},
                   {"readers", static_cast<double>(readers)},
                   {"path_copies_per_edit", copies_per_edit},
                   {"iterations", static_cast<double>(state.iterations())}});
}

void BM_Snapshot_WriterBatchedRelabels(benchmark::State& state) {
  WriterUnderReaders(state);
}

// Pin/unpin churn: the mutex + refcount handoff a reader pays per
// EnumerateAt, isolated from the enumeration itself.
void BM_Snapshot_PinUnpin(benchmark::State& state) {
  UnrankedTree tree = bench::MakeTree(1024);
  DynamicDocument doc(tree, 3);
  doc.Register(bench::StandardQuery());
  for (auto _ : state) {
    SnapshotRef snap = doc.CurrentSnapshot();
    benchmark::DoNotOptimize(snap.root());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  bench::EmitJson("snapshot_pin_unpin",
                  {{"iterations", static_cast<double>(state.iterations())}});
}

// Full publish/retire/drain cycle: one relabel per iteration on a small
// tree, so the snapshot machinery (spine copy, publish, retire the
// predecessor, drain, recycle) is a visible fraction of the edit.
void BM_Snapshot_PublishRetireCycle(benchmark::State& state) {
  UnrankedTree tree = bench::MakeTree(1024);
  DynamicDocument doc(tree, 3);
  doc.Register(bench::StandardQuery());
  serving::CommandScript script(tree, kSeed, serving::WorkloadOptions{3});
  for (auto _ : state) {
    doc.ApplyEdit(script.NextRelabel());
  }
  uint64_t published = doc.snapshots_published();
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["nodes_recycled"] =
      static_cast<double>(doc.term().nodes_recycled());
  bench::EmitJson("snapshot_publish_retire",
                  {{"published", static_cast<double>(published)},
                   {"nodes_recycled",
                    static_cast<double>(doc.term().nodes_recycled())},
                   {"iterations", static_cast<double>(state.iterations())}});
}

void BM_Snapshot_SerializedBaselineBench(benchmark::State& state) {
  SerializedBaseline(state);
}

BENCHMARK(BM_Snapshot_SerializedBaselineBench)
    ->Arg(16384)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Snapshot_ReaderThroughput)
    ->Args({16384, 1})
    ->Args({16384, 2})
    ->Args({16384, 4})
    ->Args({16384, 8})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Snapshot_WriterBatchedRelabels)
    ->Args({131072, 256, 0})
    ->Args({131072, 256, 4})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Snapshot_PinUnpin)->Unit(benchmark::kNanosecond);
BENCHMARK(BM_Snapshot_PublishRetireCycle)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace treenum
