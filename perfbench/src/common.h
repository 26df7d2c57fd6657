// Shared helpers of the perfbench workloads: clocks, latency statistics,
// the metric sink, and answer-set digests.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "trees/assignment.h"

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Linear-interpolated quantile of an unsorted sample vector (reordered).
inline double QuantileOf(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

/// Median of a small vector (copied).
inline double Median(std::vector<double> v) { return QuantileOf(v, 0.5); }

/// Every sample of one latency over a run, also cut into windows of
/// `window` consecutive samples. P50/P99 are the median over windows of
/// each window's own quantile: a stretch where other tenants of a shared
/// host slow the run moves only its own windows, so it shifts the figure
/// only when it lasts most of the run. A slow stretch of the program's own
/// (pool growth, rebuilds) is hidden the same way unless it spans most
/// windows, so the p99 pooled over every sample is kept beside it
/// (PooledP99) and reported ungated. Fewer samples than one window give
/// the pooled quantiles.
class Samples {
 public:
  explicit Samples(size_t window) : window_(window) {}

  void Add(double v) {
    all_.push_back(v);
    sum_ += v;
    if (all_.size() % window_ == 0) {
      std::vector<double> w(all_.end() - static_cast<ptrdiff_t>(window_),
                            all_.end());
      p50_.push_back(QuantileOf(w, 0.50));
      p90_.push_back(QuantileOf(w, 0.90));
      p99_.push_back(QuantileOf(w, 0.99));
    }
  }
  uint64_t count() const { return all_.size(); }
  double Mean() const {
    return all_.empty() ? 0.0 : sum_ / static_cast<double>(all_.size());
  }
  double P50() const { return OverWindows(p50_, 0.50); }
  double P90() const { return OverWindows(p90_, 0.90); }
  double P99() const { return OverWindows(p99_, 0.99); }
  double PooledP99() const {
    std::vector<double> v = all_;
    return QuantileOf(v, 0.99);
  }

 private:
  double OverWindows(const std::vector<double>& per_window, double q) const {
    if (!per_window.empty()) return Median(per_window);
    std::vector<double> v = all_;
    return QuantileOf(v, q);
  }

  size_t window_;
  std::vector<double> all_;
  std::vector<double> p50_, p90_, p99_;  ///< Per full window.
  double sum_ = 0;
};

/// Events per second of the time spent in them, over the whole run.
class Rate {
 public:
  void Add(uint64_t events, uint64_t ns) {
    events_ += events;
    ns_ += ns;
  }
  uint64_t total() const { return events_; }
  double PerSecond() const {
    return ns_ == 0 ? 0.0
                    : static_cast<double>(events_) * 1e9 /
                          static_cast<double>(ns_);
  }

 private:
  uint64_t events_ = 0, ns_ = 0;
};

/// The speed of the vCPU a run is on, measured with a fixed loop that calls
/// no library code: a chain of dependent multiply-adds, timed between
/// windows of the workload. On a shared host that speed drifts by up to a
/// third over minutes, on every vCPU alike, and every timing drifts with it
/// (further: memory and shared caches slow more than the core's clock).
/// A run's gated times are scaled to the reference speed kRefNsPerStep, so
/// runs made minutes apart differ less by the host, while a change to the
/// program moves a scaled time exactly as much as the measured one. The
/// loop touches no memory, so the program's cache footprint cannot slow
/// it, and it runs on the measuring thread between timed operations.
class HostSpeed {
 public:
  /// Loop time per step on a quiet 2 GHz Xeon vCPU.
  static constexpr double kRefNsPerStep = 1.5;

  /// Times the loop once (~1.5 ms).
  void Sample() {
    constexpr int kSteps = 1 << 20;
    uint64_t h = samples_.size() + 1;
    const uint64_t t0 = NowNs();
    for (int i = 0; i < kSteps; ++i) {
      h = h * 6364136223846793005ull + 1442695040888963407ull;
      asm volatile("" : "+r"(h));  // keeps the chain inside the clock reads
    }
    samples_.push_back(static_cast<double>(NowNs() - t0) / kSteps);
  }
  /// Median loop time per step over the run's samples (0 without any).
  double NsPerStep() const { return Median(samples_); }
  /// Multiplies a measured time into a time at the reference speed
  /// (divides a rate). Squared: when the loop slowed by a factor s, both
  /// workloads slowed by about s² (log-log slopes 2.1–3.9 in 5-run sets).
  double Factor() const {
    if (samples_.empty()) return 1.0;
    const double r = kRefNsPerStep / NsPerStep();
    return r * r;
  }

 private:
  std::vector<double> samples_;
};

/// What reads observe: pin → first answer ("restart"), the gap between
/// consecutive answers ("delay"), and answers per second of reading.
struct ReadStats {
  Samples restart_us{2000};
  Samples delay_ns{20000};
  Rate answers;  ///< Answers over pin-to-last-answer time.
  uint64_t reads = 0;
};

/// Ordered (name, value, unit) list printed as the run's metrics object.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    for (auto& m : items_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    items_.push_back({name, value, unit});
  }
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  const std::vector<Item>& items() const { return items_; }

 private:
  std::vector<Item> items_;
};

/// What one invocation measures: workload, seed, timed seconds, mode.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;      ///< Tiny sizes, for the benchmark's own check.
  std::string spans_path;  ///< Traced run: where the span file goes.
};

/// Outcome of one invocation.
struct RunResult {
  Metrics metrics;           ///< End-to-end (untraced) or per-layer.
  Metrics extra;             ///< Reported on stdout, not gated.
  uint64_t attempted = 0;    ///< Operations attempted (timed + checks).
  uint64_t failed = 0;       ///< Failed checks, unapplied commands, late runs.
  std::vector<std::string> failures;  ///< One line per failed check.

  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
};

/// Peak resident set of the process so far, in MiB.
inline double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Order-independent digest of an answer set (FNV-1a over each sorted
/// assignment, combined by sum), for comparing two programs' answers.
inline uint64_t DigestOne(const treenum::Assignment& a) {
  uint64_t h = 1469598103934665603ull;
  for (const treenum::Singleton& s : a.singletons()) {
    for (uint64_t x : {static_cast<uint64_t>(s.var),
                       static_cast<uint64_t>(s.node)}) {
      h ^= x;
      h *= 1099511628211ull;
    }
  }
  return h;
}

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
