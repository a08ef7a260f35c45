// Metrics registry: the farm's canonical aggregation path for counters,
// gauges and histograms. Instruments are created on first use by name and
// are safe to update concurrently from any thread (the wall-clock runtimes
// update from one thread per rank plus reader/timer threads).
//
// A registry constructed disabled hands every caller a shared no-op
// instrument: no allocation, no map lookup, and nothing ever appears in its
// snapshot — instrumented code needs no `if (enabled)` guards.
//
// Snapshots are plain data (sorted maps) with a stable JSON rendering, so
// two runs with identical workloads produce byte-identical metrics files —
// the property that makes BENCH_*.json trajectories machine-comparable.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace now {

class Counter {
 public:
  void inc(std::uint64_t delta = 1) {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double delta) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + delta,
                                     std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram: `bounds` are inclusive upper bounds in ascending
/// order; one explicit overflow bucket is appended. The layout is frozen at
/// creation so bucket indices stay comparable across runs and PRs.
///
/// Out-of-range samples are not silently clamped into the last bounded
/// bucket: they land in the overflow bucket and are separately counted by
/// overflow(), which snapshots surface as a `<name>.overflow` counter. A NaN
/// sample counts as overflow and is excluded from sum().
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double value);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts; size is bounds().size() + 1 (last = overflow).
  std::vector<std::uint64_t> counts() const;
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Samples above the last bound (or NaN) — the overflow bucket's count.
  std::uint64_t overflow() const {
    return overflow_.load(std::memory_order_relaxed);
  }

  /// Default layouts (exponential): seconds from 1 ms to ~17 min, and bytes
  /// from 64 B to 16 MB.
  static const std::vector<double>& default_seconds_bounds();
  static const std::vector<double>& default_bytes_bounds();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> overflow_{0};
  std::atomic<double> sum_{0.0};
};

struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;  // bounds.size() + 1 entries
  std::uint64_t count = 0;
  std::uint64_t overflow = 0;  // == counts.back()
  double sum = 0.0;
};

/// Point-in-time copy of a registry's instruments. Plain data: safe to keep
/// after the registry is gone (FarmResult::metrics outlives the farm run).
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Value lookups that default to zero for absent names, so callers can
  /// read backend-specific metrics (e.g. sim.*) without checking presence.
  std::uint64_t counter(const std::string& name) const;
  double gauge(const std::string& name) const;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  /// Deterministic JSON object: {"counters":{...},"gauges":{...},
  /// "histograms":{...}} with names sorted and numbers printed with a fixed
  /// format.
  std::string to_json() const;
};

class MetricsRegistry {
 public:
  explicit MetricsRegistry(bool enabled = true) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// `registry` itself, or a process-wide disabled registry when null: code
  /// handed no registry binds its instrument handles there instead of
  /// null-checking every update.
  static MetricsRegistry& of(MetricsRegistry* registry);

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// The bucket layout is fixed by the first call for a name; later calls
  /// return the existing instrument regardless of `bounds`.
  Histogram& histogram(
      const std::string& name,
      const std::vector<double>& bounds = Histogram::default_seconds_bounds());

  MetricsSnapshot snapshot() const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace now
