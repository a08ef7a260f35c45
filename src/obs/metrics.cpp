#include "src/obs/metrics.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

namespace now {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  assert(std::is_sorted(bounds_.begin(), bounds_.end()));
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::observe(double value) {
  // NaN would violate lower_bound's ordering requirements and poison the
  // sum; route it straight to the overflow bucket, excluded from sum().
  const bool is_nan = value != value;
  const std::size_t idx =
      is_nan ? bounds_.size()
             : static_cast<std::size_t>(
                   std::lower_bound(bounds_.begin(), bounds_.end(), value) -
                   bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  if (idx == bounds_.size()) {
    overflow_.fetch_add(1, std::memory_order_relaxed);
  }
  if (is_nan) return;
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + value,
                                     std::memory_order_relaxed)) {
  }
}

std::vector<std::uint64_t> Histogram::counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

namespace {

std::vector<double> exponential_bounds(double lo, double factor, int n) {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(n));
  double v = lo;
  for (int i = 0; i < n; ++i) {
    out.push_back(v);
    v *= factor;
  }
  return out;
}

}  // namespace

const std::vector<double>& Histogram::default_seconds_bounds() {
  // 1 ms .. ~1048 s in ×2 steps (21 bounds).
  static const std::vector<double> kBounds =
      exponential_bounds(1e-3, 2.0, 21);
  return kBounds;
}

const std::vector<double>& Histogram::default_bytes_bounds() {
  // 64 B .. 16 MB in ×4 steps (10 bounds).
  static const std::vector<double> kBounds = exponential_bounds(64.0, 4.0, 10);
  return kBounds;
}

std::uint64_t MetricsSnapshot::counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

double MetricsSnapshot::gauge(const std::string& name) const {
  const auto it = gauges.find(name);
  return it == gauges.end() ? 0.0 : it->second;
}

namespace {

void append_escaped(std::string* out, const std::string& s) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

// Shortest round-trip double formatting via %.17g would print noise digits;
// %.12g is stable, deterministic, and more precision than any metric needs.
void append_double(std::string* out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  *out += buf;
}

}  // namespace

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    append_escaped(&out, name);
    out += ": " + std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    append_escaped(&out, name);
    out += ": ";
    append_double(&out, value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    append_escaped(&out, name);
    out += ": {\"bounds\": [";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      if (i > 0) out += ", ";
      append_double(&out, h.bounds[i]);
    }
    out += "], \"counts\": [";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (i > 0) out += ", ";
      out += std::to_string(h.counts[i]);
    }
    out += "], \"count\": " + std::to_string(h.count) +
           ", \"overflow\": " + std::to_string(h.overflow) + ", \"sum\": ";
    append_double(&out, h.sum);
    out += "}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

namespace {

// Shared sinks for disabled registries: updates land here and are never
// read. One set per process keeps the disabled path allocation-free.
Counter& noop_counter() {
  static Counter c;
  return c;
}
Gauge& noop_gauge() {
  static Gauge g;
  return g;
}
Histogram& noop_histogram() {
  static Histogram h{{}};  // single overflow bucket
  return h;
}

}  // namespace

MetricsRegistry& MetricsRegistry::of(MetricsRegistry* registry) {
  static MetricsRegistry disabled(false);
  return registry != nullptr ? *registry : disabled;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  if (!enabled_) return noop_counter();
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  if (!enabled_) return noop_gauge();
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::vector<double>& bounds) {
  if (!enabled_) return noop_histogram();
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(bounds);
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.bounds = h->bounds();
    hs.counts = h->counts();
    hs.count = h->count();
    hs.overflow = h->overflow();
    hs.sum = h->sum();
    // Out-of-range samples surface as an explicit counter next to the
    // histogram, so overflow is visible without reading bucket arrays.
    if (hs.overflow > 0) snap.counters[name + ".overflow"] = hs.overflow;
    snap.histograms[name] = std::move(hs);
  }
  return snap;
}

}  // namespace now
