#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace nowbench {

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {
  if (enabled_) spans_.reserve(1 << 16);
}

SpanScope::SpanScope(SpanRecorder* recorder, const char* name,
                     const char* layer, Side side, int task, int frame)
    : recorder_(recorder != nullptr && recorder->enabled() ? recorder
                                                           : nullptr),
      span_{name, layer, side, task, frame, 0, 0} {
  if (recorder_ != nullptr) span_.start_ns = recorder_->now_ns();
}

double SpanScope::end() {
  if (recorder_ == nullptr) return 0.0;
  span_.dur_ns = recorder_->now_ns() - span_.start_ns;
  recorder_->add(span_);
  recorder_ = nullptr;
  return static_cast<double>(span_.dur_ns) * 1e-9;
}

std::map<std::string, SpanTotal> span_totals(const std::vector<Span>& spans) {
  // Nesting per side: sort by start (longer first on ties) and keep a stack
  // of open spans; each span's duration is charged against its innermost
  // enclosing span.
  std::vector<std::size_t> order(spans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const Span& x = spans[a];
    const Span& y = spans[b];
    if (x.side != y.side) return x.side < y.side;
    if (x.start_ns != y.start_ns) return x.start_ns < y.start_ns;
    return x.dur_ns > y.dur_ns;
  });
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  std::vector<std::size_t> open;
  for (const std::size_t i : order) {
    const Span& s = spans[i];
    while (!open.empty()) {
      const Span& top = spans[open.back()];
      if (top.side == s.side && s.start_ns < top.start_ns + top.dur_ns) break;
      open.pop_back();
    }
    if (!open.empty()) child_ns[open.back()] += s.dur_ns;
    open.push_back(i);
  }
  std::map<std::string, SpanTotal> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotal& t = totals[spans[i].name];
    t.layer = spans[i].layer;
    t.side = spans[i].side;
    ++t.count;
    t.self_seconds +=
        static_cast<double>(spans[i].dur_ns - child_ns[i]) * 1e-9;
  }
  return totals;
}

bool write_chrome_trace(const std::vector<Span>& spans,
                        const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
         "\"args\":{\"name\":\"worker side\"}},\n"
      << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":2,"
         "\"args\":{\"name\":\"master/shard side\"}}";
  char buf[512];
  for (const Span& s : spans) {
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                  "\"args\":{\"task\":%d,\"frame\":%d,"
                  "\"region_frame\":\"%d:%d\"}}",
                  s.name, s.layer, static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.dur_ns) * 1e-3,
                  s.side == Side::kWorker ? 1 : 2, s.task, s.frame, s.task,
                  s.frame);
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

std::string layer_table(const std::map<std::string, SpanTotal>& totals) {
  double all = 0.0;
  std::map<std::string, SpanTotal> layers;
  for (const auto& [name, t] : totals) {
    all += t.self_seconds;
    SpanTotal& l = layers[t.layer];
    l.layer = t.layer;
    l.count += t.count;
    l.self_seconds += t.self_seconds;
  }
  const auto share = [&](double s) { return all > 0.0 ? 100.0 * s / all : 0.0; };
  std::ostringstream out;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-8s %-24s %-7s %9s %12s %7s\n", "layer",
                "span", "side", "count", "self_s", "share");
  out << buf;
  for (const auto& [name, t] : totals) {
    std::snprintf(buf, sizeof(buf), "%-8s %-24s %-7s %9lld %12.6f %6.2f%%\n",
                  t.layer, name.c_str(),
                  t.side == Side::kWorker ? "worker" : "master",
                  static_cast<long long>(t.count), t.self_seconds,
                  share(t.self_seconds));
    out << buf;
  }
  out << "-- per layer --\n";
  for (const auto& [layer, t] : layers) {
    std::snprintf(buf, sizeof(buf), "%-8s %-24s %-7s %9lld %12.6f %6.2f%%\n",
                  layer.c_str(), "(all spans)", "", static_cast<long long>(t.count),
                  t.self_seconds, share(t.self_seconds));
    out << buf;
  }
  return out.str();
}

}  // namespace nowbench
