// ThreadRuntime and TcpRuntime are one wall-clock core with two transports.
//
// The core (WallClock) runs every actor on its own std::thread with a
// blocking mailbox, and one Context implementation serves both backends. It
// applies the FaultPlan on the send path: a crashed rank is fail-stop inert
// (its sends, self-continuations included, and its deliveries are
// swallowed), and the n-th matching message can be dropped, duplicated, or
// held and released behind the rank's next send on the same edge. It also
// counts cross-rank messages and bytes and records net.send / net.recv
// events. A Transport carries each cross-rank message: ThreadRuntime's
// pushes it straight into the destination mailbox, TcpRuntime's writes it
// to a socket whose reader pushes it on the far side. Either way it enters
// the mailbox through the same delay-spike window. One TimerQueue backs
// Context::send_after, delayed deliveries and fault-plan rejoins.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>

#include "src/fault/fault_injector.h"
#include "src/net/runtime.h"

namespace now {

/// Thread-safe blocking FIFO used as a per-rank mailbox.
class Mailbox {
 public:
  void push(Message msg);
  /// Blocks until a message or shutdown. Returns false on shutdown with an
  /// empty queue (pending messages are always drained first).
  bool pop(Message* msg);
  void shutdown();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Message> queue_;
  bool shutdown_ = false;
};

/// One background thread delivering messages at wall-clock deadlines.
/// Backs send_after and delay-spike injection for the wall-clock runtimes.
class TimerQueue {
 public:
  using Deliver = std::function<void(int dest, Message msg)>;

  explicit TimerQueue(Deliver deliver);
  ~TimerQueue();

  void schedule(double delay_seconds, int dest, Message msg);
  /// Stop the thread; entries not yet due are discarded.
  void shutdown();

 private:
  struct Entry {
    std::chrono::steady_clock::time_point due;
    std::int64_t seq;  // FIFO tie-break
    int dest;
    Message msg;
  };
  struct EntryLater {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.due != b.due) return a.due > b.due;
      return a.seq > b.seq;
    }
  };

  void run();

  Deliver deliver_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::priority_queue<Entry, std::vector<Entry>, EntryLater> pending_;
  std::int64_t next_seq_ = 0;
  bool shutdown_ = false;
  std::thread thread_;
};

class WallClock;

/// Carries cross-rank messages for the wall-clock core.
class Transport {
 public:
  virtual ~Transport() = default;
  /// Connects everything before any actor starts.
  virtual void open(WallClock& clock) { clock_ = &clock; }
  /// Carries `msg` from msg.source to `dest`; called on the sender's actor
  /// thread only.
  virtual void transmit(int dest, Message msg) = 0;
  /// A crash of `rank` was observed: make it real (sever its connections).
  virtual void sever(int rank) { (void)rank; }
  /// A rejoin of `rank` fired: revive it and reconnect it. False when the
  /// rank could not be reconnected and stays dead.
  virtual bool rejoin(int rank);
  /// Every actor has returned and no timer fires any more: release
  /// everything. Also called when open() throws.
  virtual void close() {}
  /// True when transmit crosses a wire: net.send is then a span timing the
  /// write rather than an instant.
  virtual bool wired() const { return false; }

 protected:
  WallClock* clock_ = nullptr;
};

/// One wall-clock run: mailboxes, fault injector, timers and counters.
class WallClock {
 public:
  /// Drives `actors` (rank = index) over `transport` until an actor calls
  /// stop() and the mailboxes drain.
  static RuntimeStats run(const std::vector<Actor*>& actors,
                          const FaultPlan& plan, RuntimeObs obs,
                          Transport& transport);

  int size() const { return static_cast<int>(mailboxes_.size()); }
  /// Wall seconds since the run started.
  double now() const;
  bool stopping() const { return stop_flag_.load(std::memory_order_acquire); }
  /// True once `rank` has crashed (never without a fault plan).
  bool crashed(int rank);
  void revive(int rank);
  /// Hands `msg` to `dest`'s mailbox, through the delay-spike window.
  void deliver(int dest, Message msg);

 private:
  class RankContext;

  WallClock(int world_size, const FaultPlan& plan, RuntimeObs obs,
            Transport& transport);
  /// Schedules the plan's rejoins on the timer, absolute ones now and
  /// relative ones the moment their crash fires.
  void arm_rejoins();
  /// Timer delivery: a rejoin signal revives its rank first; anything else
  /// into a crashed rank dies.
  void fire(int dest, Message msg);

  const FaultPlan& plan_;
  Transport& transport_;
  EventTracer* tracer_;  // null when absent or disabled
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Mailbox> mailboxes_;
  std::unique_ptr<FaultInjector> injector_;  // null without a fault plan
  std::atomic<bool> stop_flag_{false};
  std::atomic<std::int64_t> messages_{0};
  std::atomic<std::int64_t> bytes_{0};
  TimerQueue timers_;  // last: its thread calls fire()
};

class ThreadRuntime final : public Runtime {
 public:
  ThreadRuntime() = default;
  explicit ThreadRuntime(FaultPlan plan, RuntimeObs obs = {})
      : plan_(std::move(plan)), obs_(obs) {}

  RuntimeStats run(const std::vector<Actor*>& actors) override;

 private:
  FaultPlan plan_;
  RuntimeObs obs_;
};

}  // namespace now
