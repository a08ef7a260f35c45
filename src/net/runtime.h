// Actor/Runtime abstraction: the same master/worker rendering code runs on
// three interchangeable backends —
//   ThreadRuntime  real std::thread workers, in-process queues (wall clock)
//   TcpRuntime     real std::thread workers, loopback TCP sockets (wall clock)
//   SimRuntime     sequential discrete-event simulation (virtual clock with
//                  per-machine speed factors and a shared-Ethernet model)
// The two wall-clock backends are one core (thread_runtime.h: actor
// threads, mailboxes, one Context, timers) over two transports: in-process
// mailboxes, or a socket mesh in which rank 0 is endpoint 0.
//
// Actors are event-driven: they receive messages one at a time and may send
// messages, charge compute cost, and request shutdown. Long computations
// must be split into per-frame steps (send yourself a continuation message)
// so control messages — e.g. the master shrinking an adaptively re-split
// task — interleave between frames, exactly as a PVM worker polling between
// frames would behave.
#pragma once

#include <string>
#include <vector>

#include "src/net/message.h"
#include "src/obs/event_trace.h"
#include "src/obs/metrics.h"

namespace now {

/// Optional observability sinks a runtime records into: cross-rank message
/// send/recv events (with byte counts) go to `tracer`, and end-of-run
/// runtime statistics (net.*, rank.*, fault.*) go to `metrics`. Null
/// pointers disable the corresponding instrumentation entirely.
struct RuntimeObs {
  EventTracer* tracer = nullptr;
  MetricsRegistry* metrics = nullptr;
};

class Context {
 public:
  virtual ~Context() = default;

  virtual int rank() const = 0;
  virtual int world_size() const = 0;

  /// Enqueue a message. Self-sends are allowed (continuation pattern) and do
  /// not traverse the network model.
  virtual void send(int dest, int tag, std::string payload) = 0;

  /// Account `seconds` of compute on the *reference* machine; the simulated
  /// runtime scales it by this rank's speed factor and advances the virtual
  /// clock. Wall-clock runtimes ignore it (real time already passed).
  virtual void charge(double seconds) = 0;

  /// Current time in seconds: virtual on SimRuntime, wall-clock elsewhere.
  virtual double now() const = 0;

  /// Deliver a self-message after `delay_seconds` (virtual or wall time).
  /// This is the timer primitive behind the master's failure-detection
  /// leases. All three runtimes implement real deferred delivery; the
  /// default (for test doubles that never arm timers) delivers immediately.
  virtual void send_after(double delay_seconds, int tag, std::string payload) {
    (void)delay_seconds;
    send(rank(), tag, std::move(payload));
  }

  /// Request global shutdown once all queued messages drain.
  virtual void stop() = 0;
};

class Actor {
 public:
  virtual ~Actor() = default;
  virtual void on_start(Context& ctx) = 0;
  virtual void on_message(Context& ctx, const Message& msg) = 0;
  /// Called exactly once per actor after its message loop ends and before
  /// its Context dies — the only safe place to join helper threads that
  /// still hold the Context, or to release memory the actor no longer needs
  /// (the master frees its scheduling bookkeeping here). Note the loop
  /// can end without any preceding callback on this actor, so cleanup must
  /// not live in a message handler. Default: nothing.
  virtual void on_shutdown(Context& ctx) { (void)ctx; }
};

struct RuntimeStats {
  double elapsed_seconds = 0.0;   // virtual or wall
  std::int64_t messages = 0;      // cross-rank messages delivered
  std::int64_t bytes = 0;         // cross-rank payload bytes
};

class Runtime {
 public:
  virtual ~Runtime() = default;

  /// Drive `actors` (rank = index) until an actor calls stop() and all
  /// in-flight messages drain.
  virtual RuntimeStats run(const std::vector<Actor*>& actors) = 0;
};

}  // namespace now
