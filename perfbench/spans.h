// Bench-side spans for the traced replay. The replay wraps one span around
// every call it makes into a layer of the farm; spans live in memory and
// are written out when the run ends, as Chrome-trace JSON and as a
// per-layer table of self time, counts and shares.
//
// Every span carries the task and frame it belongs to, so all spans of one
// region-frame share an identifier. Per region-frame and side (worker or
// master/shard), one root span encloses that side's layer spans; a span's
// self time is its duration minus the part its nested spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace nowbench {

enum class Side : std::uint8_t { kWorker = 0, kMaster = 1 };

struct Span {
  const char* name;   // e.g. "trace.shade"
  const char* layer;  // repo module ("scene", "trace", ...) or "bench"
  Side side;
  std::int32_t task;
  std::int32_t frame;
  std::int64_t start_ns;
  std::int64_t dur_ns;
};

class SpanRecorder {
 public:
  /// A disabled recorder makes every SpanScope a no-op (no clock reads).
  explicit SpanRecorder(bool enabled);

  bool enabled() const { return enabled_; }
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }
  void add(const Span& span) { spans_.push_back(span); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Times one layer call. end() closes the span early and returns its
/// seconds (0 when the recorder is off); the destructor closes it otherwise.
class SpanScope {
 public:
  SpanScope(SpanRecorder* recorder, const char* name, const char* layer,
            Side side, int task, int frame);
  ~SpanScope() { end(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  double end();

 private:
  SpanRecorder* recorder_;
  Span span_;
};

struct SpanTotal {
  const char* layer = "";
  Side side = Side::kWorker;
  std::int64_t count = 0;
  double self_seconds = 0.0;
};

/// Totals per span name, with self time (nested spans subtracted).
std::map<std::string, SpanTotal> span_totals(const std::vector<Span>& spans);

/// Chrome trace-event JSON (chrome://tracing, Perfetto). False on I/O error.
bool write_chrome_trace(const std::vector<Span>& spans,
                        const std::string& path);

/// Plain-text table: one row per span name and one per layer, with count,
/// self seconds and share of all traced self time.
std::string layer_table(const std::map<std::string, SpanTotal>& totals);

}  // namespace nowbench
