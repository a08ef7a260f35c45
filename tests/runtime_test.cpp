// Runtime backends: the same ping-pong and fan-in actors must behave
// identically on ThreadRuntime, TcpRuntime and SimRuntime; SimRuntime
// additionally produces exact virtual timings. The RuntimeConformance suite
// runs scripted actors on both wall-clock backends and pins what they must
// agree on: delivery order per sender, routing to and from declared
// endpoints, fault-plan drops, duplicates, reorders, delay windows, and
// crash + rejoin.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <ostream>

#include "src/net/tcp_runtime.h"
#include "src/net/thread_runtime.h"
#include "src/sim/sim_runtime.h"

namespace now {
namespace {

constexpr int kPing = 1;
constexpr int kPong = 2;

/// Rank 0: sends N pings to each peer, stops after all pongs return.
class PingMaster final : public Actor {
 public:
  explicit PingMaster(int rounds) : rounds_(rounds) {}

  void on_start(Context& ctx) override {
    for (int w = 1; w < ctx.world_size(); ++w) {
      ctx.send(w, kPing, "ping-0");
    }
  }

  void on_message(Context& ctx, const Message& msg) override {
    ASSERT_EQ(msg.tag, kPong);
    ++pongs_;
    const int total_expected = rounds_ * (ctx.world_size() - 1);
    if (round_of(msg.payload) + 1 < rounds_) {
      ctx.send(msg.source, kPing,
               "ping-" + std::to_string(round_of(msg.payload) + 1));
    }
    if (pongs_ == total_expected) ctx.stop();
  }

  int pongs() const { return pongs_; }

 private:
  static int round_of(const std::string& payload) {
    return std::stoi(payload.substr(payload.find('-') + 1));
  }
  int rounds_;
  int pongs_ = 0;
};

class PongWorker final : public Actor {
 public:
  void on_start(Context&) override {}
  void on_message(Context& ctx, const Message& msg) override {
    ASSERT_EQ(msg.tag, kPing);
    ++pings_;
    ctx.send(0, kPong, "pong" + msg.payload.substr(4));
  }
  int pings() const { return pings_; }

 private:
  int pings_ = 0;
};

template <typename RuntimeT>
void run_ping_pong(RuntimeT& runtime, int workers, int rounds) {
  PingMaster master(rounds);
  std::vector<PongWorker> pongs(static_cast<std::size_t>(workers));
  std::vector<Actor*> actors{&master};
  for (auto& p : pongs) actors.push_back(&p);
  const RuntimeStats stats = runtime.run(actors);
  EXPECT_EQ(master.pongs(), workers * rounds);
  for (const auto& p : pongs) EXPECT_EQ(p.pings(), rounds);
  // Each ping and each pong crosses ranks.
  EXPECT_EQ(stats.messages, 2 * workers * rounds);
}

TEST(SimRuntime, PingPong) {
  SimConfig config;
  config.speeds = {1.0, 1.0, 1.0, 1.0};
  SimRuntime runtime(config);
  run_ping_pong(runtime, 3, 5);
}

TEST(ThreadRuntime, ManyWorkers) {
  ThreadRuntime runtime;
  run_ping_pong(runtime, 16, 3);
}

TEST(TcpRuntime, LargePayloadSurvivesFraming) {
  class BigMaster final : public Actor {
   public:
    std::string expected;
    bool matched = false;
    void on_start(Context& ctx) override {
      expected.assign(1 << 20, 'x');
      for (std::size_t i = 0; i < expected.size(); i += 37) {
        expected[i] = static_cast<char>('a' + (i % 26));
      }
      ctx.send(1, kPing, expected);
    }
    void on_message(Context& ctx, const Message& msg) override {
      matched = (msg.payload == expected);
      ctx.stop();
    }
  };
  class Echo final : public Actor {
   public:
    void on_start(Context&) override {}
    void on_message(Context& ctx, const Message& msg) override {
      ctx.send(0, kPong, msg.payload);
    }
  };
  BigMaster master;
  Echo echo;
  TcpRuntime runtime;
  runtime.run({&master, &echo});
  EXPECT_TRUE(master.matched);
}

// -- Wall-clock conformance: threads and TCP -------------------------------

constexpr int kData = 3;
constexpr int kDone = 4;
constexpr int kHello = 5;
constexpr int kRejoin = 6;

enum class Backend { kThreads, kTcp };

std::ostream& operator<<(std::ostream& os, Backend backend) {
  return os << (backend == Backend::kThreads ? "threads" : "tcp");
}

std::unique_ptr<Runtime> make_runtime(Backend backend, FaultPlan plan = {},
                                      std::vector<int> endpoints = {}) {
  if (backend == Backend::kThreads) {
    return std::make_unique<ThreadRuntime>(std::move(plan));
  }
  TcpOptions options;
  options.extra_endpoints = std::move(endpoints);
  return std::make_unique<TcpRuntime>(std::move(plan), options);
}

class RuntimeConformance : public ::testing::TestWithParam<Backend> {};

TEST_P(RuntimeConformance, PingPong) {
  run_ping_pong(*make_runtime(GetParam()), 3, 5);
}

/// Rank 0: records every kData payload per source in arrival order and
/// stops once every other rank has sent kDone.
class Recorder final : public Actor {
 public:
  std::map<int, std::vector<std::string>> seq;
  void on_start(Context&) override {}
  void on_message(Context& ctx, const Message& msg) override {
    if (msg.tag == kData) {
      seq[msg.source].push_back(msg.payload);
    } else if (msg.tag == kDone && ++done_ == ctx.world_size() - 1) {
      ctx.stop();
    }
  }

 private:
  int done_ = 0;
};

/// Sends kData "d0".."d<count-1>" to rank 0 at start, then kDone.
class Burst final : public Actor {
 public:
  explicit Burst(int count) : count_(count) {}
  void on_start(Context& ctx) override {
    for (int i = 0; i < count_; ++i) {
      ctx.send(0, kData, std::string("d").append(std::to_string(i)));
    }
    ctx.send(0, kDone, "");
  }
  void on_message(Context&, const Message&) override {}

 private:
  int count_;
};

std::vector<std::string> numbered(std::initializer_list<int> ids) {
  std::vector<std::string> out;
  for (const int i : ids) {
    out.push_back(std::string("d").append(std::to_string(i)));
  }
  return out;
}

TEST_P(RuntimeConformance, FanInKeepsEachSendersOrder) {
  Recorder master;
  std::vector<Burst> senders(4, Burst(50));
  std::vector<Actor*> actors{&master};
  for (auto& s : senders) actors.push_back(&s);
  const RuntimeStats stats = make_runtime(GetParam())->run(actors);
  std::vector<std::string> want;
  std::int64_t data_bytes = 0;
  for (int i = 0; i < 50; ++i) {
    want.push_back(std::string("d").append(std::to_string(i)));
    data_bytes += static_cast<std::int64_t>(want.back().size());
  }
  for (int w = 1; w <= 4; ++w) EXPECT_EQ(master.seq[w], want) << "rank " << w;
  EXPECT_EQ(stats.messages, 4 * 51);
  EXPECT_EQ(stats.bytes, 4 * data_bytes);
}

TEST_P(RuntimeConformance, DialerReachesAnEndpointAndTheEndpointReachesRankZero) {
  // Ranks 1 and 2 dial endpoint 3; rank 0 reaches it too. The endpoint
  // answers rank 0 once it has heard from all three.
  class Master final : public Actor {
   public:
    std::string summary;
    void on_start(Context& ctx) override { ctx.send(3, kData, "m"); }
    void on_message(Context& ctx, const Message& msg) override {
      EXPECT_EQ(msg.source, 3);
      summary = msg.payload;
      ctx.stop();
    }
  };
  class Dialer final : public Actor {
   public:
    void on_start(Context& ctx) override {
      ctx.send(3, kData, "w" + std::to_string(ctx.rank()));
    }
    void on_message(Context&, const Message&) override {}
  };
  class Endpoint final : public Actor {
   public:
    void on_start(Context&) override {}
    void on_message(Context& ctx, const Message& msg) override {
      heard_[msg.source] = msg.payload;
      if (heard_.size() < 3) return;
      std::string summary;
      for (const auto& [src, payload] : heard_) summary += payload;
      ctx.send(0, kDone, summary);
    }

   private:
    std::map<int, std::string> heard_;
  };
  Master master;
  Dialer a, b;
  Endpoint endpoint;
  const RuntimeStats stats =
      make_runtime(GetParam(), {}, {3})->run({&master, &a, &b, &endpoint});
  EXPECT_EQ(master.summary, "mw1w2");
  EXPECT_EQ(stats.messages, 4);
  EXPECT_EQ(stats.bytes, 1 + 2 + 2 + 5);
}

/// Rank 1's fault hits its third kData message; rank 2 is the control.
/// Returns the runtime's stats; `master` holds the arrival sequences.
RuntimeStats run_faulted_burst(Backend backend, const FaultEvent& fault,
                               Recorder* master) {
  FaultPlan plan;
  plan.events.push_back(fault);
  Burst a(6), b(6);
  return make_runtime(backend, plan)->run({master, &a, &b});
}

TEST_P(RuntimeConformance, DropsTheNthMatchingMessage) {
  Recorder master;
  const RuntimeStats stats = run_faulted_burst(
      GetParam(), FaultPlan::drop_nth(1, 3, kData), &master);
  EXPECT_EQ(master.seq[1], numbered({0, 1, 3, 4, 5}));
  EXPECT_EQ(master.seq[2], numbered({0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(stats.messages, 13);
  EXPECT_EQ(stats.bytes, 22);
}

TEST_P(RuntimeConformance, DuplicatesTheNthMatchingMessage) {
  Recorder master;
  const RuntimeStats stats = run_faulted_burst(
      GetParam(), FaultPlan::duplicate_nth(1, 3, kData), &master);
  EXPECT_EQ(master.seq[1], numbered({0, 1, 2, 2, 3, 4, 5}));
  EXPECT_EQ(master.seq[2], numbered({0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(stats.messages, 15);
  EXPECT_EQ(stats.bytes, 26);
}

TEST_P(RuntimeConformance, ReordersTheNthMatchingMessage) {
  Recorder master;
  const RuntimeStats stats = run_faulted_burst(
      GetParam(), FaultPlan::reorder_nth(1, 3, kData), &master);
  EXPECT_EQ(master.seq[1], numbered({0, 1, 3, 2, 4, 5}));
  EXPECT_EQ(master.seq[2], numbered({0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(stats.messages, 14);
  EXPECT_EQ(stats.bytes, 24);
}

TEST_P(RuntimeConformance, DelayWindowHoldsDeliveriesIntoTheRank) {
  // Every delivery into rank 1 inside the window arrives 0.3 s late;
  // rank 2's ping is not delayed, so its pong comes back first.
  class Master final : public Actor {
   public:
    double sent_at = 0.0;
    std::vector<int> pong_order;
    void on_start(Context& ctx) override {
      sent_at = ctx.now();
      ctx.send(1, kPing, "");
      ctx.send(2, kPing, "");
    }
    void on_message(Context& ctx, const Message& msg) override {
      pong_order.push_back(msg.source);
      if (pong_order.size() == 2) ctx.stop();
    }
  };
  class Stamp final : public Actor {
   public:
    double received_at = -1.0;
    void on_start(Context&) override {}
    void on_message(Context& ctx, const Message&) override {
      received_at = ctx.now();
      ctx.send(0, kPong, "");
    }
  };
  FaultPlan plan;
  plan.events.push_back(FaultPlan::delay_window(1, 0.0, 30.0, 0.3));
  Master master;
  Stamp delayed, prompt;
  make_runtime(GetParam(), plan)->run({&master, &delayed, &prompt});
  EXPECT_GE(delayed.received_at - master.sent_at, 0.3 - 1e-3);
  EXPECT_EQ(master.pong_order, (std::vector<int>{2, 1}));
}

TEST_P(RuntimeConformance, CrashedRankGoesInertThenRejoins) {
  // Rank 1 dies right after its second kData: the rest of its burst and
  // rank 0's ping into the dead rank vanish. 0.2 s later it is restarted,
  // re-announces itself, and answers a fresh ping.
  class Master final : public Actor {
   public:
    std::vector<std::string> log;
    void on_start(Context&) override {}
    void on_message(Context& ctx, const Message& msg) override {
      log.push_back(std::to_string(msg.tag) + ":" + msg.payload);
      if (msg.tag == kData && msg.payload == "2") ctx.send(1, kPing, "early");
      if (msg.tag == kHello) ctx.send(1, kPing, "late");
      if (msg.tag == kPong) ctx.stop();
    }
  };
  class Phoenix final : public Actor {
   public:
    std::vector<std::string> log;
    void on_start(Context& ctx) override {
      for (int i = 1; i <= 5; ++i) ctx.send(0, kData, std::to_string(i));
    }
    void on_message(Context& ctx, const Message& msg) override {
      log.push_back(std::to_string(msg.tag) + ":" + msg.payload);
      if (msg.tag == kRejoin) ctx.send(0, kHello, "");
      if (msg.tag == kPing) ctx.send(0, kPong, msg.payload);
    }
  };
  FaultPlan plan;
  plan.progress_tag = kData;
  plan.rejoin_tag = kRejoin;
  plan.events.push_back(FaultPlan::crash_after_frames(1, 2));
  plan.events.push_back(FaultPlan::rejoin_after_crash(1, 0.2));
  Master master;
  Phoenix worker;
  make_runtime(GetParam(), plan)->run({&master, &worker});
  const auto tagged = [](int tag, const std::string& payload) {
    return std::to_string(tag) + ":" + payload;
  };
  EXPECT_EQ(master.log,
            (std::vector<std::string>{tagged(kData, "1"), tagged(kData, "2"),
                                      tagged(kHello, ""),
                                      tagged(kPong, "late")}));
  EXPECT_EQ(worker.log, (std::vector<std::string>{tagged(kRejoin, ""),
                                                  tagged(kPing, "late")}));
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndTcp, RuntimeConformance,
    ::testing::Values(Backend::kThreads, Backend::kTcp),
    ::testing::PrintToStringParamName());

TEST(TcpRuntime, ShutdownDoesNotWaitOutTheReceiveTimeout) {
  // Stopping wakes every blocked accept and read at once, so a long
  // receive timeout costs nothing at the end of a run.
  TcpOptions options;
  options.receive_timeout_seconds = 5.0;
  TcpRuntime runtime(options);
  const auto start = std::chrono::steady_clock::now();
  run_ping_pong(runtime, 1, 1);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_LT(seconds, 2.0);
}

// -- SimRuntime virtual-time semantics --------------------------------------

class ChargingWorker final : public Actor {
 public:
  explicit ChargingWorker(double cost) : cost_(cost) {}
  void on_start(Context&) override {}
  void on_message(Context& ctx, const Message&) override {
    ctx.charge(cost_);
    finish_time_ = ctx.now();
    ctx.send(0, kPong, "");
  }
  double finish_time() const { return finish_time_; }

 private:
  double cost_;
  double finish_time_ = 0.0;
};

class OneShotMaster final : public Actor {
 public:
  void on_start(Context& ctx) override {
    for (int w = 1; w < ctx.world_size(); ++w) ctx.send(w, kPing, "");
  }
  void on_message(Context& ctx, const Message&) override {
    if (++replies_ == ctx.world_size() - 1) ctx.stop();
  }

 private:
  int replies_ = 0;
};

TEST(SimRuntime, SpeedFactorsScaleCharges) {
  OneShotMaster master;
  ChargingWorker fast(10.0);
  ChargingWorker slow(10.0);
  SimConfig config;
  config.speeds = {1.0, 2.0, 0.5};  // worker1 2x fast, worker2 2x slow
  config.ethernet.latency_seconds = 0.0;
  config.ethernet.per_message_overhead_bytes = 0;
  SimRuntime runtime(config);
  const SimRuntimeStats stats = runtime.run_sim({&master, &fast, &slow});
  EXPECT_NEAR(fast.finish_time(), 5.0, 1e-9);
  EXPECT_NEAR(slow.finish_time(), 20.0, 1e-9);
  EXPECT_NEAR(stats.rank_busy_seconds[1], 5.0, 1e-9);
  EXPECT_NEAR(stats.rank_busy_seconds[2], 20.0, 1e-9);
  EXPECT_GE(stats.elapsed_seconds, 20.0);
}

TEST(SimRuntime, RejectsBadConfig) {
  OneShotMaster master;
  ChargingWorker w(1.0);
  {
    SimConfig config;
    config.speeds = {1.0};  // wrong count
    SimRuntime runtime(config);
    std::vector<Actor*> actors{&master, &w};
    EXPECT_THROW(runtime.run(actors), std::invalid_argument);
  }
  {
    SimConfig config;
    config.speeds = {1.0, 0.0};  // zero speed
    SimRuntime runtime(config);
    std::vector<Actor*> actors{&master, &w};
    EXPECT_THROW(runtime.run(actors), std::invalid_argument);
  }
}

TEST(SimRuntime, MessagesArriveInTimestampOrder) {
  // Worker 1 charges heavily before sending; worker 2 sends immediately.
  // The master must see worker 2's message first (lower virtual time).
  class Collector final : public Actor {
   public:
    std::vector<int> order;
    void on_start(Context& ctx) override {
      ctx.send(1, kPing, "");
      ctx.send(2, kPing, "");
    }
    void on_message(Context& ctx, const Message& msg) override {
      order.push_back(msg.source);
      if (order.size() == 2) ctx.stop();
    }
  };
  Collector master;
  ChargingWorker heavy(100.0);
  ChargingWorker light(1.0);
  SimConfig config;
  config.speeds = {1.0, 1.0, 1.0};
  SimRuntime runtime(config);
  runtime.run({&master, &heavy, &light});
  ASSERT_EQ(master.order.size(), 2u);
  EXPECT_EQ(master.order[0], 2);
  EXPECT_EQ(master.order[1], 1);
}

TEST(SimRuntime, EthernetDelaysDeliveries) {
  class TimedMaster final : public Actor {
   public:
    double receive_time = -1.0;
    void on_start(Context& ctx) override { ctx.send(1, kPing, ""); }
    void on_message(Context& ctx, const Message&) override {
      receive_time = ctx.now();
      ctx.stop();
    }
  };
  class InstantEcho final : public Actor {
   public:
    void on_start(Context&) override {}
    void on_message(Context& ctx, const Message&) override {
      ctx.send(0, kPong, std::string(1000, 'x'));
    }
  };
  TimedMaster master;
  InstantEcho echo;
  SimConfig config;
  config.speeds = {1.0, 1.0};
  config.ethernet.bandwidth_bytes_per_sec = 1000.0;
  config.ethernet.latency_seconds = 0.25;
  config.ethernet.per_message_overhead_bytes = 0;
  SimRuntime runtime(config);
  runtime.run({&master, &echo});
  // ping: 0 bytes -> 0.25s. pong: 1000 B / 1000 Bps + 0.25 = 1.25s later.
  EXPECT_NEAR(master.receive_time, 0.25 + 1.25, 1e-9);
}

TEST(SimRuntime, DeterministicAcrossRuns) {
  for (int i = 0; i < 2; ++i) {
    OneShotMaster master;
    ChargingWorker a(3.0), b(7.0);
    SimConfig config;
    config.speeds = {1.0, 1.0, 1.0};
    SimRuntime runtime(config);
    const SimRuntimeStats stats = runtime.run_sim({&master, &a, &b});
    static double first_elapsed = 0.0;
    if (i == 0) {
      first_elapsed = stats.elapsed_seconds;
    } else {
      EXPECT_EQ(stats.elapsed_seconds, first_elapsed);
    }
  }
}

}  // namespace
}  // namespace now
