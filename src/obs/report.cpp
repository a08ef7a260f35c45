#include "src/obs/report.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace now {
namespace {

struct Interval {
  double lo;
  double hi;
};

/// Length of union(a) ∩ union(b); both inputs must already be merged
/// (sorted, non-overlapping).
double overlap_length(const std::vector<Interval>& a,
                      const std::vector<Interval>& b) {
  double total = 0.0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const double lo = std::max(a[i].lo, b[j].lo);
    const double hi = std::min(a[i].hi, b[j].hi);
    if (hi > lo) total += hi - lo;
    if (a[i].hi < b[j].hi) {
      ++i;
    } else {
      ++j;
    }
  }
  return total;
}

std::int64_t find_arg(const TraceEvent& ev, const char* key,
                      std::int64_t fallback) {
  for (const TraceEvent::Arg& arg : ev.args) {
    if (std::strcmp(arg.key, key) == 0) return arg.value;
  }
  return fallback;
}

/// Merge in place (sort + coalesce), clamped to [0, elapsed].
std::vector<Interval> merged(std::vector<Interval> intervals, double elapsed) {
  for (Interval& iv : intervals) {
    iv.lo = std::clamp(iv.lo, 0.0, elapsed);
    iv.hi = std::clamp(iv.hi, 0.0, elapsed);
  }
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) { return a.lo < b.lo; });
  std::vector<Interval> out;
  for (const Interval& iv : intervals) {
    if (iv.hi <= iv.lo) continue;
    if (!out.empty() && iv.lo <= out.back().hi) {
      out.back().hi = std::max(out.back().hi, iv.hi);
    } else {
      out.push_back(iv);
    }
  }
  return out;
}

double sum_length(const std::vector<Interval>& intervals) {
  double total = 0.0;
  for (const Interval& iv : intervals) total += iv.hi - iv.lo;
  return total;
}

}  // namespace

UtilizationReport compute_utilization(const std::vector<TraceEvent>& events,
                                      int world_size,
                                      double elapsed_seconds) {
  UtilizationReport report;
  report.elapsed_seconds = elapsed_seconds;
  if (world_size < 1) return report;
  if (elapsed_seconds <= 0.0) {
    // Zero-duration run (quick abort, immediate fault): there is no time to
    // apportion, so report the well-defined empty state — every rank fully
    // idle with fractions that still sum to 1 — instead of dividing by zero.
    for (int rank = 0; rank < world_size; ++rank) {
      RankUtilization u;
      u.rank = rank;
      u.idle_frac = 1.0;
      report.ranks.push_back(u);
    }
    return report;
  }

  std::vector<std::vector<Interval>> busy(world_size);
  std::vector<std::vector<Interval>> comm(world_size);
  std::vector<std::vector<std::pair<double, const TraceEvent*>>> open(
      world_size);
  std::vector<std::int64_t> frames(world_size, 0);

  for (const TraceEvent& ev : events) {
    if (ev.rank < 0 || ev.rank >= world_size) continue;
    const bool is_frame = std::strcmp(ev.cat, "frame") == 0;
    const bool is_net = std::strcmp(ev.cat, "net") == 0;
    switch (ev.phase) {
      case TraceEvent::Phase::kBegin:
        if (is_frame) open[ev.rank].push_back({ev.ts_seconds, &ev});
        break;
      case TraceEvent::Phase::kEnd:
        if (is_frame && !open[ev.rank].empty()) {
          busy[ev.rank].push_back({open[ev.rank].back().first, ev.ts_seconds});
          open[ev.rank].pop_back();
          ++frames[ev.rank];
          report.pixels_recomputed += find_arg(ev, "pixels_recomputed", 0);
          report.pixels_total += find_arg(ev, "pixels_total", 0);
        }
        break;
      case TraceEvent::Phase::kComplete:
        if (is_frame) {
          busy[ev.rank].push_back(
              {ev.ts_seconds, ev.ts_seconds + ev.dur_seconds});
        } else if (is_net) {
          comm[ev.rank].push_back(
              {ev.ts_seconds, ev.ts_seconds + ev.dur_seconds});
        }
        break;
      case TraceEvent::Phase::kInstant:
      case TraceEvent::Phase::kFlowStart:
      case TraceEvent::Phase::kFlowStep:
      case TraceEvent::Phase::kFlowEnd:
        break;
    }
  }

  for (int rank = 0; rank < world_size; ++rank) {
    RankUtilization u;
    u.rank = rank;
    u.frames = frames[rank];
    const std::vector<Interval> busy_merged =
        merged(std::move(busy[rank]), elapsed_seconds);
    const std::vector<Interval> comm_merged =
        merged(std::move(comm[rank]), elapsed_seconds);
    u.busy_seconds = sum_length(busy_merged);
    // Transmit windows that overlap rendering are not idle-network time the
    // worker could have used; count only the exclusive communication share.
    u.comm_seconds =
        sum_length(comm_merged) - overlap_length(comm_merged, busy_merged);
    u.idle_seconds =
        std::max(0.0, elapsed_seconds - u.busy_seconds - u.comm_seconds);
    u.busy_frac = u.busy_seconds / elapsed_seconds;
    u.comm_frac = u.comm_seconds / elapsed_seconds;
    u.idle_frac = u.idle_seconds / elapsed_seconds;
    report.ranks.push_back(u);
  }

  double max_busy = 0.0;
  double sum_busy = 0.0;
  int workers = 0;
  for (const RankUtilization& u : report.ranks) {
    if (u.rank == 0) continue;
    max_busy = std::max(max_busy, u.busy_seconds);
    sum_busy += u.busy_seconds;
    ++workers;
  }
  if (workers > 0 && sum_busy > 0.0) {
    report.load_imbalance = max_busy / (sum_busy / workers);
  }
  if (report.pixels_total > 0) {
    report.coherence_savings =
        1.0 - static_cast<double>(report.pixels_recomputed) /
                  static_cast<double>(report.pixels_total);
  }
  return report;
}

std::string UtilizationReport::to_text() const {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line),
                "%-6s %12s %12s %12s %7s %7s %7s %8s\n", "rank", "busy",
                "comm", "idle", "busy%", "comm%", "idle%", "frames");
  out += line;
  for (const RankUtilization& u : ranks) {
    std::snprintf(line, sizeof(line),
                  "%-6s %11.3fs %11.3fs %11.3fs %6.1f%% %6.1f%% %6.1f%% %8lld\n",
                  u.rank == 0 ? "master" : std::to_string(u.rank).c_str(),
                  u.busy_seconds, u.comm_seconds, u.idle_seconds,
                  100.0 * u.busy_frac, 100.0 * u.comm_frac,
                  100.0 * u.idle_frac, static_cast<long long>(u.frames));
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "elapsed %.3fs   load imbalance %.2f   coherence savings "
                "%.1f%% (%lld of %lld pixels skipped)\n",
                elapsed_seconds, load_imbalance, 100.0 * coherence_savings,
                static_cast<long long>(pixels_total - pixels_recomputed),
                static_cast<long long>(pixels_total));
  out += line;
  return out;
}

}  // namespace now
