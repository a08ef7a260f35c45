// Trace exporter and utilization report, end to end: a sim-backend farm run
// produces a valid Chrome trace (monotone per-rank timestamps, balanced B/E
// spans), two identical runs export byte-identical traces, and the
// utilization report's per-rank fractions add up.
#include "src/obs/event_trace.h"

#include <gtest/gtest.h>

#include "src/obs/report.h"
#include "src/par/render_farm.h"
#include "src/scene/builtin_scenes.h"

namespace now {
namespace {

FarmConfig traced_config() {
  FarmConfig config;
  config.backend = FarmBackend::kSim;
  config.worker_speeds = {1.0, 0.5, 0.5};
  config.partition.scheme = PartitionScheme::kFrameDivision;
  config.partition.block_size = 32;
  config.obs.trace = true;
  return config;
}

TEST(TraceExportTest, SimFarmTraceIsValidChromeJson) {
  const AnimatedScene scene = orbit_scene(4, 8, 64, 48);
  const FarmResult result = render_farm(scene, traced_config());

  ASSERT_FALSE(result.trace_events.empty());
  const std::string json = chrome_trace_json(result.trace_events);
  std::string error;
  EXPECT_TRUE(validate_chrome_trace(json, &error)) << error;

  // The instrumented layers all contributed: frame spans from the workers,
  // net events from the runtime, scheduling instants from the master.
  bool saw_frame = false, saw_net = false, saw_sched = false;
  for (const TraceEvent& ev : result.trace_events) {
    if (std::string(ev.cat) == "frame") saw_frame = true;
    if (std::string(ev.cat) == "net") saw_net = true;
    if (std::string(ev.cat) == "sched") saw_sched = true;
  }
  EXPECT_TRUE(saw_frame);
  EXPECT_TRUE(saw_net);
  EXPECT_TRUE(saw_sched);
}

TEST(TraceExportTest, SimTraceIsByteIdenticalAcrossRuns) {
  const AnimatedScene scene = orbit_scene(4, 6, 48, 36);
  const FarmResult a = render_farm(scene, traced_config());
  const FarmResult b = render_farm(scene, traced_config());
  EXPECT_EQ(chrome_trace_json(a.trace_events),
            chrome_trace_json(b.trace_events));
  EXPECT_EQ(a.metrics.to_json(), b.metrics.to_json());
}

TEST(TraceExportTest, ValidatorRejectsBrokenTraces) {
  std::string error;
  EXPECT_FALSE(validate_chrome_trace("not json", &error));
  EXPECT_FALSE(validate_chrome_trace("{}", &error));  // no traceEvents

  // Unbalanced B without E.
  EventTracer tracer(true);
  tracer.begin(1, "frame", "frame.render", 1.0);
  EXPECT_FALSE(
      validate_chrome_trace(chrome_trace_json(tracer.sorted_events()), &error));
  EXPECT_FALSE(error.empty());

  // Balanced span + instant + complete validates.
  tracer.end(1, "frame", "frame.render", 2.0);
  tracer.instant(0, "net", "net.recv", 2.5);
  tracer.complete(0, "net", "net.send", 0.5, 0.25);
  EXPECT_TRUE(
      validate_chrome_trace(chrome_trace_json(tracer.sorted_events()), &error))
      << error;
}

TEST(TraceExportTest, UtilizationFractionsSumToOne) {
  const AnimatedScene scene = orbit_scene(4, 8, 64, 48);
  const FarmResult result = render_farm(scene, traced_config());

  const UtilizationReport& u = result.utilization;
  ASSERT_FALSE(u.empty());
  ASSERT_EQ(u.ranks.size(), 4u);  // master + 3 workers
  EXPECT_GT(u.elapsed_seconds, 0.0);
  int rendering_ranks = 0;
  for (const RankUtilization& r : u.ranks) {
    EXPECT_NEAR(r.busy_frac + r.comm_frac + r.idle_frac, 1.0, 0.01)
        << "rank " << r.rank;
    EXPECT_GE(r.busy_frac, 0.0);
    EXPECT_GE(r.comm_frac, 0.0);
    EXPECT_GE(r.idle_frac, 0.0);
    if (r.rank > 0 && r.frames > 0) ++rendering_ranks;
  }
  EXPECT_GT(rendering_ranks, 0);
  EXPECT_GE(u.load_imbalance, 1.0);
  // Frame coherence recomputes only changed pixels after frame 0.
  EXPECT_GT(u.coherence_savings, 0.0);
  EXPECT_FALSE(u.to_text().empty());
}

TEST(TraceExportTest, ThreadsBackendPopulatesUnifiedMetrics) {
  const AnimatedScene scene = orbit_scene(4, 4, 48, 36);
  FarmConfig config;
  config.backend = FarmBackend::kThreads;
  config.workers = 2;
  config.obs.trace = true;
  const FarmResult result = render_farm(scene, config);

  // The unified snapshot is the one reporting path for every backend.
  EXPECT_GT(result.metrics.counter("master.frame_results"), 0u);
  EXPECT_GT(result.metrics.counter("worker.frames_rendered"), 0u);
  EXPECT_GT(result.metrics.counter("net.messages"), 0u);
  EXPECT_GT(result.metrics.counter("net.bytes"), 0u);
  const auto it = result.metrics.histograms.find("worker.frame_seconds");
  ASSERT_NE(it, result.metrics.histograms.end());
  EXPECT_GT(it->second.count, 0u);

  // Wall-clock traces validate too (sorted per rank before export).
  ASSERT_FALSE(result.trace_events.empty());
  std::string error;
  EXPECT_TRUE(
      validate_chrome_trace(chrome_trace_json(result.trace_events), &error))
      << error;
}

}  // namespace
}  // namespace now
