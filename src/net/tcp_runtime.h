// TcpRuntime: the wall-clock core of thread_runtime.h (one actor thread
// and mailbox per rank, one Context, one TimerQueue) over a socket
// transport. Actors still run on threads of this process, but every
// cross-rank message is serialized, framed, written to a loopback TCP
// socket and read back on the far side, exercising the full wire path a
// multi-host PVM/MPI deployment would use.
//
// Topology: one mesh of endpoints. Rank 0 is endpoint 0, and the ranks in
// TcpOptions::extra_endpoints (framebuffer shards) are the others; each
// endpoint has a listener. Every other non-zero rank dials every endpoint,
// and an endpoint rank dials rank 0 only. With no extra endpoints this is
// the paper's star ("the only interprocessor communication occurs between
// the master and each of the slaves"); shards let pixel traffic bypass the
// master. Two ranks talk only over a connection one of them dialed.
//
// Robustness: every data socket carries a receive timeout (SO_RCVTIMEO), so
// a reader pump wakes periodically to notice a triggered crash; connect()
// retries with exponential backoff and deterministic per-rank jitter
// (net.connect_retries counts the retries); and every frame carries a
// CRC-32 over its payload and must name the connection's handshaken peer as
// its source — a corrupt frame is counted (net.corrupt_frames) and treated
// as a dropped message, never delivered. A FaultPlan makes crashes real at
// the socket level: when a rank's crash triggers, both ends of every
// connection it dialed are shut down — its peers stop hearing from it
// exactly as if the process died. The listeners stay open for the whole
// run, so a kRejoin event re-dials exactly those connections: the rank
// re-handshakes and re-announces itself (elastic membership). Stopping
// shuts the listeners and sockets down, which wakes every blocked accept
// and read at once.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "src/fault/fault_injector.h"
#include "src/net/runtime.h"

namespace now {

struct TcpOptions {
  /// SO_RCVTIMEO on every data socket; bounds how long a reader pump can
  /// sleep before noticing a triggered crash.
  double receive_timeout_seconds = 0.25;
  /// Bounded connect-retry loop (ECONNREFUSED/EINTR) before giving up.
  int connect_attempts = 20;
  /// Exponential backoff between connect attempts: the delay before retry
  /// k is min(base · 2^k, max), scaled by a deterministic jitter in
  /// [0.5, 1) derived from (rank, attempt) — concurrent retries from
  /// different ranks desynchronize without any shared RNG, and the same
  /// rank backs off identically on every run.
  double connect_backoff_base_seconds = 0.01;
  double connect_backoff_max_seconds = 0.5;
  /// Ranks that get their own listening socket in addition to rank 0's
  /// (framebuffer shards). Every other non-zero rank dials every endpoint at
  /// startup; the endpoint ranks dial rank 0 only. Empty = classic star.
  std::vector<int> extra_endpoints;
};

/// The backoff schedule itself, exposed pure for tests: delay in seconds
/// before attempt `attempt` (0-based) of `rank`'s connect loop.
double connect_backoff_seconds(const TcpOptions& options, int rank,
                               int attempt);

class TcpRuntime final : public Runtime {
 public:
  TcpRuntime() = default;
  explicit TcpRuntime(TcpOptions options) : options_(options) {}
  explicit TcpRuntime(FaultPlan plan, TcpOptions options = {},
                      RuntimeObs obs = {})
      : options_(options), plan_(std::move(plan)), obs_(obs) {}

  RuntimeStats run(const std::vector<Actor*>& actors) override;

 private:
  TcpOptions options_;
  FaultPlan plan_;
  RuntimeObs obs_;
};

// -- frame helpers, shared with the tests -----------------------------------
// On-wire frame: [i32 source][i32 tag][u32 len][u32 crc32(payload)][bytes].

enum class TcpReadStatus {
  kOk,       // a frame arrived and its payload CRC checked out
  kCorrupt,  // a well-framed message whose payload failed its CRC; the
             // stream stays aligned — callers count it and read on
  kClosed,   // EOF, hard error, or keep_going said stop
};

/// Serialize `msg` into its on-wire frame (header + payload). Exposed so
/// tests can craft deliberately corrupted frames.
std::string tcp_encode_frame(const Message& msg);

bool tcp_write_message(int fd, const Message& msg);

/// Read one frame. On a receive timeout consults `keep_going` and aborts
/// (kClosed) once it says stop; null = wait forever.
TcpReadStatus tcp_read_frame(int fd, Message* msg,
                             const std::function<bool()>& keep_going);

/// As tcp_read_frame, and a frame whose header names a source other than
/// the connection's handshaken `peer` is kCorrupt too (the CRC covers only
/// the payload). This is the reader pumps' frame step.
TcpReadStatus tcp_read_peer_frame(int fd, int peer, Message* msg,
                                  const std::function<bool()>& keep_going);

/// As tcp_read_frame, but corrupt frames are silently skipped (dropped):
/// returns true on the next intact message, false when the stream ends.
bool tcp_read_message(int fd, Message* msg);
bool tcp_read_message(int fd, Message* msg,
                      const std::function<bool()>& keep_going);

}  // namespace now
