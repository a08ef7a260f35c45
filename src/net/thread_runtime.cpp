#include "src/net/thread_runtime.h"

#include <algorithm>
#include <map>
#include <utility>

namespace now {

void Mailbox::push(Message msg) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(msg));
  }
  cv_.notify_one();
}

bool Mailbox::pop(Message* msg) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return !queue_.empty() || shutdown_; });
  if (queue_.empty()) return false;
  *msg = std::move(queue_.front());
  queue_.pop_front();
  return true;
}

void Mailbox::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
}

TimerQueue::TimerQueue(Deliver deliver)
    : deliver_(std::move(deliver)), thread_([this] { run(); }) {}

TimerQueue::~TimerQueue() { shutdown(); }

void TimerQueue::schedule(double delay_seconds, int dest, Message msg) {
  const auto due = std::chrono::steady_clock::now() +
                   std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                       std::chrono::duration<double>(delay_seconds));
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return;
    pending_.push(Entry{due, next_seq_++, dest, std::move(msg)});
  }
  cv_.notify_one();
}

void TimerQueue::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void TimerQueue::run() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!shutdown_) {
    if (pending_.empty()) {
      cv_.wait(lock, [&] { return shutdown_ || !pending_.empty(); });
      continue;
    }
    const auto due = pending_.top().due;
    if (std::chrono::steady_clock::now() < due) {
      cv_.wait_until(lock, due);
      continue;
    }
    Entry entry = pending_.top();
    pending_.pop();
    lock.unlock();
    deliver_(entry.dest, std::move(entry.msg));
    lock.lock();
  }
}

bool Transport::rejoin(int rank) {
  clock_->revive(rank);
  return true;
}

class WallClock::RankContext final : public Context {
 public:
  RankContext(WallClock& clock, int rank) : clock_(clock), rank_(rank) {}

  int rank() const override { return rank_; }
  int world_size() const override { return clock_.size(); }
  double now() const override { return clock_.now(); }
  void charge(double) override {}  // real time already elapsed

  /// True once this rank has crashed; observing the crash makes it real.
  bool dead() {
    if (!clock_.crashed(rank_)) return false;
    clock_.transport_.sever(rank_);
    return true;
  }

  void send(int dest, int tag, std::string payload) override {
    if (dead()) return;
    if (dest == rank_) {  // continuation: no network, no delay window
      clock_.mailboxes_[rank_].push(Message{rank_, tag, std::move(payload)});
      return;
    }
    const double t = now();
    int copies = 1;
    if (clock_.injector_ != nullptr) {
      const FaultInjector::SendFaults f =
          clock_.injector_->on_send(rank_, dest, tag, t);
      if (f.drop) {
        copies = 0;
      } else if (f.hold) {
        held_[dest] = Message{rank_, tag, std::move(payload)};
        copies = 0;
      } else if (f.duplicate) {
        copies = 2;
      }
    }
    if (copies > 0) {
      transmit(dest, copies, Message{rank_, tag, std::move(payload)}, t);
    }
    // An after_frames crash fires on the send that delivered the N-th frame
    // result: that message went out, and now the rank dies.
    dead();
  }

  void send_after(double delay_seconds, int tag, std::string payload) override {
    clock_.timers_.schedule(delay_seconds, rank_,
                            Message{rank_, tag, std::move(payload)});
  }

  void stop() override {
    clock_.stop_flag_.store(true, std::memory_order_release);
    for (auto& mb : clock_.mailboxes_) mb.shutdown();
  }

 private:
  /// Sends `copies` of `msg`, the last one moved, then the edge's parked
  /// reorder victim right behind them.
  void transmit(int dest, int copies, Message msg, double t) {
    const int tag = msg.tag;
    const auto size = static_cast<std::int64_t>(msg.payload.size());
    auto parked = held_.extract(dest);
    clock_.messages_.fetch_add(copies + (parked ? 1 : 0),
                               std::memory_order_relaxed);
    clock_.bytes_.fetch_add(
        copies * size +
            (parked ? static_cast<std::int64_t>(parked.mapped().payload.size())
                    : 0),
        std::memory_order_relaxed);
    Transport& transport = clock_.transport_;
    for (int c = 1; c < copies; ++c) transport.transmit(dest, msg);
    transport.transmit(dest, std::move(msg));
    if (parked) transport.transmit(dest, std::move(parked.mapped()));
    if (EventTracer* tracer = clock_.tracer_) {
      std::vector<TraceEvent::Arg> args = {
          {"dest", dest}, {"tag", tag}, {"bytes", size}};
      if (transport.wired()) {
        tracer->complete(rank_, "net", "net.send", t, now() - t,
                         std::move(args));
      } else {
        tracer->instant(rank_, "net", "net.send", t, std::move(args));
      }
    }
  }

  WallClock& clock_;
  int rank_;
  /// kReorderMessage parking: at most one held message per destination.
  std::map<int, Message> held_;
};

WallClock::WallClock(int world_size, const FaultPlan& plan, RuntimeObs obs,
                     Transport& transport)
    : plan_(plan),
      transport_(transport),
      tracer_(obs.tracer != nullptr && obs.tracer->enabled() ? obs.tracer
                                                              : nullptr),
      epoch_(std::chrono::steady_clock::now()),
      mailboxes_(static_cast<std::size_t>(world_size)),
      injector_(plan.empty() ? nullptr
                             : std::make_unique<FaultInjector>(
                                   plan, world_size, tracer_)),
      timers_([this](int dest, Message msg) { fire(dest, std::move(msg)); }) {}

double WallClock::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

bool WallClock::crashed(int rank) {
  return injector_ != nullptr && injector_->crashed(rank, now());
}

void WallClock::revive(int rank) { injector_->revive(rank, now()); }

void WallClock::deliver(int dest, Message msg) {
  const double delay =
      injector_ != nullptr ? injector_->delivery_delay(dest, now()) : 0.0;
  if (delay > 0.0) {
    timers_.schedule(delay, dest, std::move(msg));
  } else {
    mailboxes_[dest].push(std::move(msg));
  }
}

void WallClock::arm_rejoins() {
  if (injector_ == nullptr || plan_.rejoin_tag < 0) return;
  for (const FaultEvent& e : plan_.events) {
    if (e.kind != FaultKind::kRejoin || e.at_time < 0.0) continue;
    timers_.schedule(std::max(0.0, e.at_time - now()), e.rank,
                     Message{e.rank, plan_.rejoin_tag, {}});
  }
  injector_->set_rejoin_hook([this](int rank, double at) {
    timers_.schedule(std::max(0.0, at - now()), rank,
                     Message{rank, plan_.rejoin_tag, {}});
  });
}

void WallClock::fire(int dest, Message msg) {
  if (dest < 0 || dest >= size()) return;
  if (injector_ != nullptr) {
    if (plan_.rejoin_tag >= 0 && msg.tag == plan_.rejoin_tag &&
        msg.source == dest) {
      // The restart signal must reach the dead rank: revive and reconnect
      // it first, so its re-announcement has a live link to ride.
      if (!transport_.rejoin(dest)) return;
    } else if (injector_->crashed(dest, now())) {
      return;
    }
  }
  mailboxes_[dest].push(std::move(msg));
}

RuntimeStats WallClock::run(const std::vector<Actor*>& actors,
                            const FaultPlan& plan, RuntimeObs obs,
                            Transport& transport) {
  const int n = static_cast<int>(actors.size());
  WallClock clock(n, plan, obs, transport);
  try {
    transport.open(clock);
  } catch (...) {
    clock.timers_.shutdown();
    transport.close();
    throw;
  }
  clock.arm_rejoins();

  std::vector<std::thread> threads;
  threads.reserve(n);
  for (int rank = 0; rank < n; ++rank) {
    threads.emplace_back([&clock, &actors, rank] {
      RankContext ctx(clock, rank);
      Actor& actor = *actors[rank];
      actor.on_start(ctx);
      Message msg;
      while (clock.mailboxes_[rank].pop(&msg)) {
        if (ctx.dead()) continue;
        if (clock.tracer_ != nullptr && msg.source != rank) {
          clock.tracer_->instant(
              rank, "net", "net.recv", ctx.now(),
              {{"src", msg.source},
               {"tag", msg.tag},
               {"bytes", static_cast<std::int64_t>(msg.payload.size())}});
        }
        actor.on_message(ctx, msg);
      }
      actor.on_shutdown(ctx);
    });
  }
  for (auto& t : threads) t.join();
  clock.timers_.shutdown();
  transport.close();

  RuntimeStats stats;
  stats.elapsed_seconds = clock.now();
  stats.messages = clock.messages_.load();
  stats.bytes = clock.bytes_.load();
  if (clock.injector_ != nullptr) clock.injector_->export_metrics(obs.metrics);
  return stats;
}

namespace {

/// In-process transport: a cross-rank message goes straight into the
/// destination mailbox.
class MailboxTransport final : public Transport {
 public:
  void transmit(int dest, Message msg) override {
    clock_->deliver(dest, std::move(msg));
  }
};

}  // namespace

RuntimeStats ThreadRuntime::run(const std::vector<Actor*>& actors) {
  MailboxTransport transport;
  return WallClock::run(actors, plan_, obs_, transport);
}

}  // namespace now
