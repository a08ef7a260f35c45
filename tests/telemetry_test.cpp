// Live telemetry plane: cross-rank flow tracing, the time-series sampler,
// the straggler detector, the /metrics + /status endpoint and the flight
// recorder — plus the guarantee that none of it perturbs a simulated run.
#include "src/par/render_farm.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <fstream>
#include <sstream>
#include <string>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "src/obs/event_trace.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/report.h"
#include "src/obs/status_server.h"
#include "src/obs/straggler.h"
#include "src/obs/timeseries.h"
#include "src/par/serial.h"
#include "src/scene/builtin_scenes.h"

namespace now {
namespace {

std::vector<Framebuffer> reference_frames(const AnimatedScene& scene,
                                          const TraceOptions& trace) {
  std::vector<Framebuffer> out;
  for (int f = 0; f < scene.frame_count(); ++f) {
    out.push_back(
        render_world(scene.world_at(f), scene.width(), scene.height(), trace));
  }
  return out;
}

void expect_frames_equal(const std::vector<Framebuffer>& got,
                         const std::vector<Framebuffer>& want,
                         const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t f = 0; f < got.size(); ++f) {
    ASSERT_EQ(got[f], want[f]) << label << " frame " << f;
  }
}

/// Blocking HTTP/1.0 GET against 127.0.0.1:`port`. Returns the raw response
/// (status line + headers + body); `*ok` reports whether the connect and
/// round-trip succeeded at the socket level.
std::string http_get(int port, const std::string& path, bool* ok) {
  *ok = false;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return "";
  }
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  std::size_t off = 0;
  while (off < req.size()) {
    const ssize_t n = ::send(fd, req.data() + off, req.size() - off, 0);
    if (n <= 0) {
      ::close(fd);
      return "";
    }
    off += static_cast<std::size_t>(n);
  }
  std::string resp;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    resp.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  *ok = !resp.empty();
  return resp;
}

std::string http_body(const std::string& response) {
  const std::size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

// -- Histogram overflow & snapshot determinism ------------------------------

TEST(HistogramOverflow, OutOfRangeAndNaNLandInTheOverflowBucket) {
  Histogram h({1.0, 2.0});
  h.observe(0.5);                                        // bucket 0
  h.observe(1.5);                                        // bucket 1
  h.observe(5.0);                                        // overflow
  h.observe(std::numeric_limits<double>::quiet_NaN());   // overflow, no sum
  h.observe(std::numeric_limits<double>::infinity());    // overflow

  const std::vector<std::uint64_t> counts = h.counts();
  ASSERT_EQ(counts.size(), 3u);  // bounds + explicit overflow bucket
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 3u);
  EXPECT_EQ(h.overflow(), 3u);
  EXPECT_EQ(h.count(), 5u);
  // NaN is excluded from the sum; the finite overflow samples are not.
  EXPECT_TRUE(std::isinf(h.sum()) || h.sum() == 7.0);
}

TEST(HistogramOverflow, SnapshotSurfacesAnOverflowCounter) {
  MetricsRegistry reg;
  reg.histogram("frame.seconds", {1.0}).observe(3.0);
  reg.histogram("frame.seconds").observe(0.5);

  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.count("frame.seconds.overflow"), 1u);
  EXPECT_EQ(snap.counters.at("frame.seconds.overflow"), 1u);
  const HistogramSnapshot& hs = snap.histograms.at("frame.seconds");
  EXPECT_EQ(hs.overflow, 1u);
  EXPECT_EQ(hs.counts.back(), hs.overflow);

  // No overflow -> no phantom counter.
  MetricsRegistry clean;
  clean.histogram("ok.seconds", {10.0}).observe(1.0);
  EXPECT_EQ(clean.snapshot().counters.count("ok.seconds.overflow"), 0u);
}

TEST(MetricsJson, KeysAreSortedAndOutputIsDeterministic) {
  MetricsRegistry reg;
  reg.counter("zeta.count").inc(2);
  reg.counter("alpha.count").inc(1);
  reg.gauge("mid.depth").set(3.5);
  reg.histogram("lat.seconds", {1.0}).observe(9.0);

  const std::string json = reg.snapshot().to_json();
  std::string err;
  EXPECT_TRUE(json_syntax_ok(json, &err)) << err;
  // std::map ordering: alpha before lat.seconds.overflow before zeta.
  const std::size_t a = json.find("\"alpha.count\"");
  const std::size_t o = json.find("\"lat.seconds.overflow\"");
  const std::size_t z = json.find("\"zeta.count\"");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(o, std::string::npos);
  ASSERT_NE(z, std::string::npos);
  EXPECT_LT(a, o);
  EXPECT_LT(o, z);
  EXPECT_EQ(json, reg.snapshot().to_json());
}

// -- Utilization edge cases -------------------------------------------------

TEST(Utilization, ZeroDurationZeroFrameRunIsWellDefined) {
  const UtilizationReport empty = compute_utilization({}, 3, 0.0);
  ASSERT_EQ(empty.ranks.size(), 3u);
  for (const RankUtilization& r : empty.ranks) {
    EXPECT_TRUE(std::isfinite(r.busy_frac));
    EXPECT_TRUE(std::isfinite(r.comm_frac));
    EXPECT_TRUE(std::isfinite(r.idle_frac));
    EXPECT_EQ(r.busy_frac, 0.0);
    EXPECT_EQ(r.frames, 0);
  }
  EXPECT_TRUE(std::isfinite(empty.load_imbalance));
  EXPECT_TRUE(std::isfinite(empty.coherence_savings));
  // The text rendering must not trip on the degenerate report either.
  EXPECT_FALSE(empty.to_text().empty());
}

// -- Straggler detector -----------------------------------------------------

TEST(Straggler, FlagsASlowWorkerOnceAndClearsWhenItRecovers) {
  StragglerConfig cfg;
  cfg.alpha = 0.5;
  cfg.min_samples = 2;
  cfg.threshold = 1.5;
  cfg.clear_ratio = 1.2;
  StragglerDetector d(cfg);

  EXPECT_EQ(d.expected_seconds(7), 1.0);  // no data: sane positive default

  int transitions = 0;
  for (int i = 0; i < 3; ++i) {
    if (d.observe(1, 1.0)) ++transitions;
    if (d.observe(2, 1.0)) ++transitions;
    if (d.observe(3, 5.0)) ++transitions;
  }
  EXPECT_EQ(transitions, 1);
  EXPECT_EQ(d.flag_transitions(), 1);
  EXPECT_FALSE(d.is_straggler(1));
  EXPECT_FALSE(d.is_straggler(2));
  EXPECT_TRUE(d.is_straggler(3));
  EXPECT_EQ(d.stragglers(), std::vector<int>{3});
  EXPECT_GT(d.expected_seconds(3), d.expected_seconds(1));
  EXPECT_GT(d.fleet_mean_seconds(), 0.0);

  // The worker speeds back up: the flag clears, but the transition counter
  // (which feeds sched.stragglers) only ever counts flag events.
  for (int i = 0; i < 10; ++i) {
    d.observe(1, 1.0);
    d.observe(2, 1.0);
    d.observe(3, 1.0);
  }
  EXPECT_FALSE(d.is_straggler(3));
  EXPECT_EQ(d.flag_transitions(), 1);
}

TEST(Straggler, UniformFleetFlagsNobody) {
  StragglerConfig cfg;
  cfg.min_samples = 2;
  StragglerDetector d(cfg);
  for (int i = 0; i < 20; ++i) {
    for (int w = 1; w <= 3; ++w) {
      EXPECT_FALSE(d.observe(w, 1.0 + 0.01 * (i % 3)));
    }
  }
  EXPECT_TRUE(d.stragglers().empty());
  EXPECT_EQ(d.flag_transitions(), 0);
}

// -- Time-series sampler ----------------------------------------------------

TEST(TimeSeries, RingStaysBoundedAndRateIsComputedOverTheWindow) {
  TimeSeriesSampler s(4);
  EXPECT_EQ(s.capacity_per_series(), 4u);

  MetricsRegistry reg;
  Counter& c = reg.counter("sched.frames_committed");
  reg.gauge("sched.queue_depth").set(2.0);
  for (int t = 0; t < 10; ++t) {
    c.inc(2);
    s.sample(static_cast<double>(t), reg.snapshot());
  }
  EXPECT_EQ(s.ticks(), 10);

  const std::vector<TimePoint> pts = s.series("sched.frames_committed");
  ASSERT_EQ(pts.size(), 4u);  // oldest evicted, newest retained
  EXPECT_EQ(pts.front().t, 6.0);
  EXPECT_EQ(pts.back().t, 9.0);
  EXPECT_EQ(pts.front().value, 14.0);
  EXPECT_EQ(pts.back().value, 20.0);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_LT(pts[i - 1].t, pts[i].t);  // oldest first
  }
  EXPECT_NEAR(s.rate_per_second("sched.frames_committed"), 2.0, 1e-9);
  EXPECT_EQ(s.rate_per_second("unknown.series"), 0.0);

  const std::vector<std::string> names = s.series_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "sched.frames_committed");
  EXPECT_EQ(names[1], "sched.queue_depth");
}

// -- Prometheus exposition & the status server ------------------------------

TEST(Prometheus, TextExpositionHasTheExpectedShape) {
  MetricsRegistry reg;
  reg.counter("sched.frames_committed").inc(7);
  reg.gauge("sched.queue_depth").set(1.5);
  Histogram& h = reg.histogram("frame.seconds", {0.1, 1.0});
  h.observe(0.05);
  h.observe(0.5);
  h.observe(99.0);  // overflow

  const std::string text = prometheus_text(reg.snapshot());
  EXPECT_NE(text.find("# TYPE sched_frames_committed counter"),
            std::string::npos);
  EXPECT_NE(text.find("sched_frames_committed 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE sched_queue_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("sched_queue_depth 1.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE frame_seconds histogram"), std::string::npos);
  EXPECT_NE(text.find("frame_seconds_bucket{le=\"0.1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("frame_seconds_bucket{le=\"1\"} 2"), std::string::npos);
  // The +Inf bucket is cumulative over everything, overflow included.
  EXPECT_NE(text.find("frame_seconds_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("frame_seconds_sum"), std::string::npos);
  EXPECT_NE(text.find("frame_seconds_count 3"), std::string::npos);
  // The overflow companion counter survives the name mapping.
  EXPECT_NE(text.find("frame_seconds_overflow 1"), std::string::npos);
}

TEST(StatusServer, ServesMetricsAndStatusOverARealSocket) {
  MetricsRegistry reg;
  reg.counter("demo.requests").inc(3);
  StatusBoard board;
  board.publish("{\"alive\": true}\n");

  StatusServer server(
      0, [&reg] { return prometheus_text(reg.snapshot()); },
      [&board] { return board.latest(); });
  ASSERT_TRUE(server.ok());
  ASSERT_GT(server.port(), 0);

  bool ok = false;
  const std::string metrics = http_get(server.port(), "/metrics", &ok);
  ASSERT_TRUE(ok);
  EXPECT_NE(metrics.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("version=0.0.4"), std::string::npos);
  EXPECT_NE(http_body(metrics).find("demo_requests 3"), std::string::npos);

  const std::string status = http_get(server.port(), "/status", &ok);
  ASSERT_TRUE(ok);
  EXPECT_NE(status.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(status.find("application/json"), std::string::npos);
  EXPECT_NE(http_body(status).find("\"alive\""), std::string::npos);

  const std::string missing = http_get(server.port(), "/nope", &ok);
  ASSERT_TRUE(ok);
  EXPECT_NE(missing.find("404"), std::string::npos);

  EXPECT_GE(server.requests_served(), 3);
  server.stop();
  EXPECT_FALSE(server.ok());
}

TEST(StatusServer, StopWakesTheAcceptLoopAtOnce) {
  // stop() shuts the listener down, so a blocked accept() returns at once
  // instead of on a polling tick.
  double stopping = 0.0;
  for (int i = 0; i < 5; ++i) {
    StatusServer server(
        0, [] { return std::string(); }, [] { return std::string(); });
    ASSERT_TRUE(server.ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const auto start = std::chrono::steady_clock::now();
    server.stop();
    stopping += std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  }
  EXPECT_LT(stopping, 0.1);
}

TEST(StatusServer, ParsesARequestSplitAcrossTcpSegments) {
  StatusBoard board;
  board.publish("{\"alive\": true}\n");
  StatusServer server(
      0, [] { return std::string("metrics\n"); },
      [&board] { return board.latest(); });
  ASSERT_TRUE(server.ok());

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  // Dribble the request in three segments with pauses: the server must keep
  // reading until the \r\n\r\n header terminator before answering.
  const char* parts[] = {"GET /sta", "tus HTTP/1.0\r\nHost: x\r", "\n\r\n"};
  for (const char* part : parts) {
    ASSERT_GT(::send(fd, part, std::strlen(part), 0), 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  std::string resp;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    resp.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(resp.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(http_body(resp).find("\"alive\""), std::string::npos);
  server.stop();
}

// -- Flight recorder --------------------------------------------------------

TEST(FlightRecorderTest, RingEvictsOldestAndFlushWritesAValidTrace) {
  FlightRecorder fr(3);
  EventTracer tracer(false);  // export tracing off: the ring alone records
  tracer.set_flight_recorder(&fr);
  ASSERT_TRUE(tracer.enabled());

  for (int i = 0; i < 5; ++i) {
    tracer.instant(1, "frame", "frame.render", static_cast<double>(i),
                   {{"frame", i}});
  }
  tracer.instant(2, "sched", "task.assign", 0.5);

  EXPECT_TRUE(tracer.sorted_events().empty());  // export buffer untouched
  EXPECT_EQ(fr.events_recorded(), 6);
  EXPECT_EQ(fr.events_evicted(), 2);
  const std::vector<TraceEvent> rank1 = fr.rank_events(1);
  ASSERT_EQ(rank1.size(), 3u);  // capacity: the oldest two are gone
  EXPECT_EQ(rank1.front().ts_seconds, 2.0);
  EXPECT_EQ(rank1.back().ts_seconds, 4.0);
  EXPECT_EQ(fr.ranks(), (std::vector<int>{1, 2}));

  const std::string dir = ::testing::TempDir();
  const std::string path = FlightRecorder::crash_trace_path(dir, 1);
  std::remove(path.c_str());
  ASSERT_TRUE(fr.flush_rank(1, dir));

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::ostringstream content;
  content << in.rdbuf();
  std::string err;
  EXPECT_TRUE(validate_chrome_trace(content.str(), &err)) << err;
  EXPECT_NE(content.str().find("frame.render"), std::string::npos);

  // A rank with no retained events flushes nothing.
  EXPECT_FALSE(fr.flush_rank(9, dir));
}

TEST(FlightRecorderTest, FaultInjectedDeathWritesTheCrashTrace) {
  const AnimatedScene scene = orbit_scene(3, 12, 48, 36);
  FarmConfig config;
  config.backend = FarmBackend::kSim;
  config.worker_speeds = {1.0, 1.0, 1.0};
  config.partition.scheme = PartitionScheme::kSequenceDivision;
  config.partition.adaptive = true;
  config.partition.min_split_frames = 2;
  config.fault.enabled = true;
  config.fault.lease_base_seconds = 8.0;
  config.fault.lease_per_frame_seconds = 4.0;
  config.fault.ping_grace_seconds = 3.0;
  config.fault_plan.events.push_back(FaultPlan::crash_after_frames(1, 2));
  config.obs.flight_recorder = true;
  config.obs.flight_dir = ::testing::TempDir();
  config.obs.flight_capacity = 256;

  const std::string path =
      FlightRecorder::crash_trace_path(config.obs.flight_dir, 1);
  std::remove(path.c_str());

  const FarmResult result = render_farm(scene, config);
  EXPECT_EQ(result.metrics.counter("fault.crashes"), 1u);
  EXPECT_EQ(result.master.frames_completed, scene.frame_count());

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing crash trace " << path;
  std::ostringstream content;
  content << in.rdbuf();
  // The slice is one rank's partial view (its flow chains start on the
  // scheduler's rank), so it is checked as loadable JSON, not against the
  // merged-trace flow rules.
  std::string err;
  EXPECT_TRUE(json_syntax_ok(content.str(), &err)) << err;
  EXPECT_NE(content.str().find("\"traceEvents\""), std::string::npos);
  // The dead rank's file records its own cause of death.
  EXPECT_NE(content.str().find("fault.crash"), std::string::npos);
}

// -- Cross-rank flow chains -------------------------------------------------

TEST(FlowTrace, ValidatorRejectsAStepWithoutAStart) {
  EventTracer t(true);
  t.flow_step(1, 42, 0.5, {{"step", 1}});
  std::string err;
  EXPECT_FALSE(validate_chrome_trace(chrome_trace_json(t.sorted_events()),
                                     &err));
  EXPECT_FALSE(err.empty());

  EventTracer good(true);
  good.flow_start(0, 42, 0.0);
  good.flow_step(1, 42, 0.5);
  good.flow_end(0, 42, 1.0);
  good.flow_start(0, 43, 0.1);  // cancelled assignment: start only
  EXPECT_TRUE(validate_chrome_trace(chrome_trace_json(good.sorted_events()),
                                    &err))
      << err;
  const FlowChainStats stats = flow_chain_stats(good.sorted_events());
  EXPECT_EQ(stats.total, 2);
  EXPECT_EQ(stats.connected, 1);
}

FarmConfig traced_sim_config() {
  FarmConfig config;
  config.backend = FarmBackend::kSim;
  config.worker_speeds = {1.0, 1.0, 1.0};
  config.partition.scheme = PartitionScheme::kFrameDivision;
  config.partition.block_size = 16;
  config.obs.trace = true;
  return config;
}

void expect_all_committed_frames_connected(const FarmResult& result,
                                           const std::string& label) {
  // One connected chain per committed region-frame: under frame division a
  // frame is several block regions, each its own chain, so the committed
  // count is the sched.frames_committed counter, not whole frames.
  EXPECT_EQ(result.flow_chains.connected,
            static_cast<std::int64_t>(
                result.metrics.counter("sched.frames_committed")))
      << label;
  EXPECT_GE(result.flow_chains.connected,
            static_cast<std::int64_t>(result.master.frames_completed))
      << label;
  EXPECT_GE(result.flow_chains.total, result.flow_chains.connected) << label;
  std::string err;
  EXPECT_TRUE(validate_chrome_trace(chrome_trace_json(result.trace_events),
                                    &err))
      << label << ": " << err;
}

TEST(FlowTrace, EveryCommittedFrameFormsAConnectedCrossRankChain) {
  const AnimatedScene scene = orbit_scene(3, 8, 48, 36);
  const FarmConfig config = traced_sim_config();
  const FarmResult result = render_farm(scene, config);
  ASSERT_EQ(result.master.frames_completed, scene.frame_count());
  expect_all_committed_frames_connected(result, "plain");
}

TEST(FlowTrace, ChainsRouteThroughFramebufferShards) {
  const AnimatedScene scene = orbit_scene(3, 8, 48, 36);
  FarmConfig config = traced_sim_config();
  config.shards = 2;
  const FarmResult result = render_farm(scene, config);
  ASSERT_EQ(result.master.frames_completed, scene.frame_count());
  expect_all_committed_frames_connected(result, "sharded");
  // The committing hop really is a shard rank, not the scheduler.
  bool shard_step = false;
  const int first_shard_rank = 4;  // 3 workers -> shards at ranks 4, 5
  for (const TraceEvent& ev : result.trace_events) {
    if (ev.phase == TraceEvent::Phase::kFlowStep &&
        ev.rank >= first_shard_rank) {
      shard_step = true;
      break;
    }
  }
  EXPECT_TRUE(shard_step);
}

TEST(FlowTrace, ChainsSurviveCrashAndReassignment) {
  const AnimatedScene scene = orbit_scene(3, 12, 48, 36);
  FarmConfig config = traced_sim_config();
  config.partition.scheme = PartitionScheme::kSequenceDivision;
  config.partition.adaptive = true;
  config.partition.min_split_frames = 2;
  config.fault.enabled = true;
  config.fault.lease_base_seconds = 8.0;
  config.fault.lease_per_frame_seconds = 4.0;
  config.fault.ping_grace_seconds = 3.0;
  config.fault_plan.events.push_back(FaultPlan::crash_after_frames(1, 2));

  const FarmResult result = render_farm(scene, config);
  ASSERT_EQ(result.master.frames_completed, scene.frame_count());
  ASSERT_GE(result.faults.tasks_reassigned, 1);
  expect_all_committed_frames_connected(result, "reassignment");
}

TEST(FlowTrace, ChainsSurviveSpeculation) {
  const AnimatedScene scene = orbit_scene(3, 12, 48, 36);
  FarmConfig config = traced_sim_config();
  config.worker_speeds = {1.0, 1.0, 0.2};
  config.partition.scheme = PartitionScheme::kSequenceDivision;
  config.partition.adaptive = false;
  config.speculation = true;

  const FarmResult result = render_farm(scene, config);
  ASSERT_EQ(result.master.frames_completed, scene.frame_count());
  ASSERT_GE(result.faults.speculations_launched, 1);
  expect_all_committed_frames_connected(result, "speculation");
}

TEST(FlowTrace, ChainsSurviveRejoin) {
  const AnimatedScene scene = orbit_scene(3, 12, 48, 36);
  FarmConfig config = traced_sim_config();
  config.partition.scheme = PartitionScheme::kSequenceDivision;
  config.partition.adaptive = false;
  config.fault_plan.events.push_back(FaultPlan::crash_at(1, 2.0));
  config.fault_plan.events.push_back(FaultPlan::rejoin_at(1, 50.0));

  const FarmResult result = render_farm(scene, config);
  ASSERT_EQ(result.master.frames_completed, scene.frame_count());
  expect_all_committed_frames_connected(result, "rejoin");
}

// -- Scheduler-side telemetry under sim -------------------------------------

TEST(Telemetry, SimSamplingIsByteTransparent) {
  const AnimatedScene scene = orbit_scene(3, 12, 48, 36);
  FarmConfig plain;
  plain.backend = FarmBackend::kSim;
  plain.worker_speeds = {1.0, 0.5, 0.5};
  plain.partition.scheme = PartitionScheme::kFrameDivision;
  plain.partition.block_size = 16;

  FarmConfig sampled = plain;
  sampled.obs.sample_interval_seconds = 0.5;
  sampled.obs.flight_recorder = true;
  sampled.obs.flight_dir = "";  // ring only, no implicit flush

  const FarmResult a = render_farm(scene, plain);
  const FarmResult b = render_farm(scene, sampled);

  // The sampler really ran...
  EXPECT_EQ(a.master.telemetry_samples, 0);
  EXPECT_GT(b.master.telemetry_samples, 0);
  // ...and perturbed nothing: virtual time, traffic, pixels and the metrics
  // file are all byte-identical.
  EXPECT_EQ(a.elapsed_seconds, b.elapsed_seconds);
  EXPECT_EQ(a.runtime.messages, b.runtime.messages);
  EXPECT_EQ(a.runtime.bytes, b.runtime.bytes);
  EXPECT_EQ(a.metrics.to_json(), b.metrics.to_json());
  expect_frames_equal(a.frames, b.frames, "sampling-transparency");
}

TEST(Telemetry, SimStragglerIsFlaggedDeterministically) {
  const AnimatedScene scene = orbit_scene(3, 18, 48, 36);
  FarmConfig config;
  config.backend = FarmBackend::kSim;
  config.worker_speeds = {1.0, 1.0, 0.2};
  config.partition.scheme = PartitionScheme::kFrameDivision;
  // 48x36 with 12px blocks: every region is a uniform 144 pixels, so the
  // only per-worker cost difference is machine speed.
  config.partition.block_size = 12;
  config.coherence.enabled = false;
  config.obs.straggler.min_samples = 2;
  config.obs.straggler.threshold = 1.4;

  const FarmResult a = render_farm(scene, config);
  EXPECT_GE(a.master.straggler_flags, 1);
  EXPECT_EQ(a.metrics.counter("sched.stragglers"),
            static_cast<std::uint64_t>(a.master.straggler_flags));
  EXPECT_EQ(a.master.frames_completed, scene.frame_count());

  const FarmResult b = render_farm(scene, config);
  EXPECT_EQ(a.master.straggler_flags, b.master.straggler_flags);
  EXPECT_EQ(a.metrics.to_json(), b.metrics.to_json());
}

// -- The live plane against a real TCP farm ---------------------------------

/// A port the kernel just handed out and released: bind port 0, read the
/// bound port back, close. Parallel test runs each get their own.
int free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof(addr);
  const bool ok =
      ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) ==
          0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0;
  ::close(fd);
  return ok ? ntohs(addr.sin_port) : -1;
}

/// Renders on a TCP farm with `shards` framebuffer shards while polling
/// /metrics and /status mid-run, and checks both bodies, the final report
/// and the frames. `series` are counters the mid-run /metrics must already
/// carry: the ledger registers them when the actors are built, before the
/// first frame.
void expect_live_plane(int shards, const std::vector<std::string>& series) {
  const AnimatedScene scene = orbit_scene(4, 24, 96, 72);
  FarmConfig config;
  config.backend = FarmBackend::kTcp;
  config.workers = 2;
  config.shards = shards;
  config.partition.scheme = PartitionScheme::kFrameDivision;
  config.partition.block_size = 16;
  // The test polls while the farm renders, and the bound port is only
  // reported after the run: ask the kernel for a free one up front.
  const int port = free_port();
  ASSERT_GT(port, 0);
  config.obs.status_port = port;
  config.obs.sample_interval_seconds = 0.02;

  FarmResult result;
  std::thread farm([&] { result = render_farm(scene, config); });

  std::string metrics_body;
  std::string status_body;
  for (int attempt = 0; attempt < 2000; ++attempt) {
    bool ok = false;
    if (metrics_body.empty()) {
      const std::string resp = http_get(port, "/metrics", &ok);
      if (ok && resp.find("200 OK") != std::string::npos) {
        metrics_body = http_body(resp);
      }
    }
    if (status_body.empty()) {
      const std::string resp = http_get(port, "/status", &ok);
      // Wait for the first published sample, not the "{}" placeholder.
      if (ok && resp.find("200 OK") != std::string::npos &&
          resp.find("\"workers\"") != std::string::npos) {
        status_body = http_body(resp);
      }
    }
    if (!metrics_body.empty() && !status_body.empty()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  farm.join();

  ASSERT_EQ(result.status_port, port);
  ASSERT_FALSE(metrics_body.empty()) << "never reached /metrics mid-run";
  ASSERT_FALSE(status_body.empty()) << "never reached /status mid-run";
  EXPECT_GE(result.status_requests, 2);
  EXPECT_GT(result.master.telemetry_samples, 0);

  // Golden shape: the series the dashboard and CI smoke rely on.
  EXPECT_NE(metrics_body.find("# TYPE sched_frames_committed counter"),
            std::string::npos);
  EXPECT_NE(metrics_body.find("# TYPE sched_queue_depth gauge"),
            std::string::npos);
  for (const std::string& name : series) {
    EXPECT_NE(metrics_body.find("# TYPE " + name + " counter"),
              std::string::npos)
        << name;
  }

  std::string err;
  EXPECT_TRUE(json_syntax_ok(status_body, &err)) << err;
  for (const char* key :
       {"\"now\"", "\"workers\"", "\"frames_completed\"", "\"pending_tasks\"",
        "\"throughput_fps\"", "\"stragglers\"", "\"telemetry_samples\""}) {
    EXPECT_NE(status_body.find(key), std::string::npos) << key;
  }

  // The farm itself must be unharmed by the live plane.
  ASSERT_EQ(result.master.frames_completed, scene.frame_count());
  const auto ref = reference_frames(scene, config.coherence.trace);
  expect_frames_equal(result.frames, ref, "tcp-live-plane");
}

TEST(Telemetry, StatusEndpointAnswersMidRenderOnATcpFarm) {
  expect_live_plane(1, {"master_frames_completed", "recovery_deaths_detected",
                        "ckpt_journal_records"});
}

TEST(Telemetry, StatusEndpointAnswersMidRenderOnAShardedTcpFarm) {
  expect_live_plane(2, {"master_frames_completed", "recovery_deaths_detected",
                        "ckpt_journal_records", "shard_0_frame_results"});
}

}  // namespace
}  // namespace now
