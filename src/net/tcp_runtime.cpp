#include "src/net/tcp_runtime.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cassert>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "src/net/crc32.h"
#include "src/net/thread_runtime.h"

namespace now {
namespace {

// Frames larger than this cannot be legitimate (the largest real payload is
// one dense frame of pixels); a bigger length means the stream desynced.
constexpr std::uint32_t kMaxFrameLength = 1u << 30;

// MSG_NOSIGNAL: a peer whose socket was severed (crash injection, real
// death) must surface as a failed write, not a SIGPIPE killing the process.
bool write_all(int fd, const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::send(fd, p, size, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

// Reads exactly `size` bytes. A receive timeout (SO_RCVTIMEO) consults
// `keep_going` and keeps waiting while it allows — partial frames survive
// timeouts because the buffer position is preserved across retries. EOF or
// a hard error returns false immediately: a vanished peer is an error, not
// a hang.
bool read_all(int fd, void* data, std::size_t size,
              const std::function<bool()>& keep_going) {
  char* p = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = ::read(fd, p, size);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      if (keep_going && !keep_going()) return false;
      continue;
    }
    if (n <= 0) return false;
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

struct FrameHeader {
  std::int32_t source;
  std::int32_t tag;
  std::uint32_t length;
  std::uint32_t crc;  // crc32 of the payload bytes
};

void set_receive_timeout(int fd, double seconds) {
  if (seconds <= 0.0) return;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>((seconds - static_cast<double>(tv.tv_sec)) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

int make_listener(std::uint16_t* port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    ::close(fd);
    throw std::runtime_error("bind/listen failed");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  *port = ntohs(addr.sin_port);
  return fd;
}

int connect_loopback(std::uint16_t port, const TcpOptions& options, int rank,
                     Counter* retries) {
  int last_errno = 0;
  for (int attempt = 0; attempt < std::max(1, options.connect_attempts);
       ++attempt) {
    if (attempt > 0) {
      if (retries != nullptr) retries->inc();
      std::this_thread::sleep_for(std::chrono::duration<double>(
          connect_backoff_seconds(options, rank, attempt - 1)));
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return fd;
    }
    last_errno = errno;
    ::close(fd);
  }
  throw std::runtime_error(std::string("connect failed after retries: ") +
                           std::strerror(last_errno));
}

/// The TCP transport: one mesh of loopback connections. Endpoint 0 is rank
/// 0; endpoints 1.. are TcpOptions::extra_endpoints. Every other non-zero
/// rank dials every endpoint, and an endpoint rank dials endpoint 0 only. A
/// message travels over the connection between its two ranks, whichever
/// side dialed, and each end of every connection has a reader pump.
class SocketTransport final : public Transport {
 public:
  SocketTransport(const TcpOptions& options, int world_size,
                  MetricsRegistry* metrics)
      : options_(options),
        n_(world_size),
        endpoints_(1 + static_cast<int>(options.extra_endpoints.size())),
        slot_(static_cast<std::size_t>(world_size), -1),
        listeners_(static_cast<std::size_t>(endpoints_), -1),
        ports_(static_cast<std::size_t>(endpoints_), 0),
        links_(static_cast<std::size_t>(world_size) *
               static_cast<std::size_t>(endpoints_)),
        membership_(static_cast<std::size_t>(world_size)),
        severed_(static_cast<std::size_t>(world_size), 0) {
    slot_[0] = 0;
    for (int e = 1; e < endpoints_; ++e) {
      const int rank = endpoint_rank(e);
      if (rank < 1 || rank >= n_ || slot_[rank] >= 0) {
        throw std::invalid_argument(
            "TcpOptions::extra_endpoints must name distinct non-zero ranks");
      }
      slot_[rank] = e;
    }
    if (metrics != nullptr) {
      corrupt_frames_ = &metrics->counter("net.corrupt_frames");
      connect_retries_ = &metrics->counter("net.connect_retries");
    }
  }

  void open(WallClock& clock) override {
    Transport::open(clock);
    for (int e = 0; e < endpoints_; ++e) {
      listeners_[e] = make_listener(&ports_[e]);
      acceptors_.emplace_back([this, e] { accept_loop(e); });
    }
    int dialed = 0;
    for (int rank = 1; rank < n_; ++rank) {
      dial(rank);
      for (int e = 0; e < endpoints_; ++e) dialed += dials(rank, e) ? 1 : 0;
    }
    // The first send over any link must not race its handshake: wait until
    // every listener has installed its end.
    std::unique_lock<std::mutex> lock(mu_);
    accepted_cv_.wait(lock, [&] { return accepted_ >= dialed; });
  }

  void transmit(int dest, Message msg) override {
    const int src = msg.source;
    std::atomic<int>* end = nullptr;
    if (slot_[dest] >= 0 && dials(src, slot_[dest])) {
      end = &link(src, slot_[dest]).dialed;
    } else if (slot_[src] >= 0 && dials(dest, slot_[src])) {
      end = &link(dest, slot_[src]).accepted;
    }
    assert(end != nullptr &&
           "mesh: ranks talk only to endpoints they dialed, or back");
    if (end == nullptr) return;
    // Each end is written only by its own rank's actor thread. A failed
    // write (severed peer) is deliberately ignored: the lease protocol owns
    // recovery.
    tcp_write_message(end->load(std::memory_order_acquire), msg);
  }

  /// Crash realization: shut down both ends of every connection the rank
  /// dialed, as if its process died.
  void sever(int rank) override {
    std::lock_guard<std::mutex> lock(membership_[rank]);
    // A stale observation (the crash was seen just before a rejoin revived
    // the rank) must not sever the fresh connections.
    if (severed_[rank] || !clock_->crashed(rank)) return;
    severed_[rank] = 1;
    for (int e = 0; e < endpoints_; ++e) {
      if (!dials(rank, e)) continue;
      ::shutdown(link(rank, e).dialed.load(), SHUT_RDWR);
      ::shutdown(link(rank, e).accepted.load(), SHUT_RDWR);
    }
  }

  /// The rank dials fresh connections (its old ones were severed at crash
  /// time) and re-handshakes; the accept loops install the far ends.
  bool rejoin(int rank) override {
    std::lock_guard<std::mutex> lock(membership_[rank]);
    clock_->revive(rank);
    try {
      dial(rank);
    } catch (const std::runtime_error&) {
      return false;
    }
    severed_[rank] = 0;
    return true;
  }

  void close() override {
    // Shutting a listener down wakes its blocked accept() at once.
    for (const int fd : listeners_) ::shutdown(fd, SHUT_RDWR);
    for (auto& t : acceptors_) t.join();
    // No spawner is left (timers and acceptors have stopped): wake every
    // reader pump, join them all, then close every socket, including those
    // a rejoin replaced.
    for (Link& l : links_) {
      ::shutdown(l.dialed.load(), SHUT_RDWR);
      ::shutdown(l.accepted.load(), SHUT_RDWR);
    }
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& t : readers_) t.join();
    for (const int fd : listeners_) close_fd(fd);
    for (Link& l : links_) {
      close_fd(l.dialed.load());
      close_fd(l.accepted.load());
    }
    for (const int fd : retired_) close_fd(fd);
  }

  bool wired() const override { return true; }

 private:
  /// Both ends of the connection one rank dialed to one endpoint. Atomic
  /// because a rejoin replaces them mid-run.
  struct Link {
    std::atomic<int> dialed{-1};
    std::atomic<int> accepted{-1};
  };

  static void close_fd(int fd) {
    if (fd >= 0) ::close(fd);
  }

  int endpoint_rank(int e) const {
    return e == 0 ? 0 : options_.extra_endpoints[static_cast<std::size_t>(e - 1)];
  }
  /// True when `rank` dials endpoint `e`.
  bool dials(int rank, int e) const {
    return rank != 0 && rank != endpoint_rank(e) && (e == 0 || slot_[rank] < 0);
  }
  Link& link(int rank, int e) {
    return links_[static_cast<std::size_t>(rank) *
                      static_cast<std::size_t>(endpoints_) +
                  static_cast<std::size_t>(e)];
  }

  /// Start-up and rejoin: connect `rank` to every endpoint it dials,
  /// announce the rank, install the socket and start its reader. Throws
  /// std::runtime_error when an endpoint cannot be reached.
  void dial(int rank) {
    const std::int32_t r = rank;
    for (int e = 0; e < endpoints_; ++e) {
      if (!dials(rank, e)) continue;
      const int fd =
          connect_loopback(ports_[e], options_, rank, connect_retries_);
      if (!write_all(fd, &r, sizeof(r))) {
        ::close(fd);
        throw std::runtime_error("handshake write failed");
      }
      set_receive_timeout(fd, options_.receive_timeout_seconds);
      retire(link(rank, e).dialed.exchange(fd));
      pump(fd, rank, endpoint_rank(e), rank);
    }
  }

  /// Initial connections and rejoins both land here until close().
  void accept_loop(int e) {
    for (;;) {
      const int fd = ::accept(listeners_[e], nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        return;  // close() shut the listener down
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      std::int32_t rank = -1;
      if (!read_all(fd, &rank, sizeof(rank), nullptr) || rank < 0 ||
          rank >= n_ || !dials(rank, e)) {
        ::close(fd);
        continue;
      }
      set_receive_timeout(fd, options_.receive_timeout_seconds);
      retire(link(rank, e).accepted.exchange(fd));
      pump(fd, endpoint_rank(e), rank, rank);
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++accepted_;
      }
      accepted_cv_.notify_all();
    }
  }

  /// Reads frames from `peer` off `fd` into `owner`'s mailbox until the
  /// socket dies. `dialer` is the rank whose crash kills the connection.
  void pump(int fd, int owner, int peer, int dialer) {
    std::lock_guard<std::mutex> lock(mu_);
    readers_.emplace_back([this, fd, owner, peer, dialer] {
      // Consulted on every receive timeout.
      const std::function<bool()> keep_going = [&] {
        if (clock_->crashed(dialer)) {
          sever(dialer);
          return false;
        }
        return !clock_->stopping();
      };
      Message msg;
      for (;;) {
        const TcpReadStatus status =
            tcp_read_peer_frame(fd, peer, &msg, keep_going);
        if (status == TcpReadStatus::kClosed) return;
        if (status == TcpReadStatus::kCorrupt) {
          if (corrupt_frames_ != nullptr) corrupt_frames_->inc();
          continue;  // a damaged frame is a dropped message
        }
        if (owner == dialer && clock_->crashed(owner)) {
          sever(owner);
          return;
        }
        clock_->deliver(owner, std::move(msg));
      }
    });
  }

  /// A socket a rejoin replaced: its reader may still hold it until it
  /// notices the close, so it is closed at the end of the run.
  void retire(int fd) {
    if (fd < 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    retired_.push_back(fd);
  }

  const TcpOptions options_;
  const int n_;
  const int endpoints_;
  std::vector<int> slot_;  // rank -> endpoint index, or -1
  Counter* corrupt_frames_ = nullptr;
  Counter* connect_retries_ = nullptr;
  std::vector<int> listeners_;  // per endpoint
  std::vector<std::uint16_t> ports_;
  std::vector<Link> links_;  // [rank * endpoints_ + endpoint]
  std::vector<std::mutex> membership_;  // per rank: sever vs rejoin
  std::vector<char> severed_;           // per rank, under membership_
  std::vector<std::thread> acceptors_;
  std::mutex mu_;  // readers_, retired_, accepted_
  std::condition_variable accepted_cv_;
  std::vector<std::thread> readers_;
  std::vector<int> retired_;
  int accepted_ = 0;
};

}  // namespace

double connect_backoff_seconds(const TcpOptions& options, int rank,
                               int attempt) {
  double delay = options.connect_backoff_base_seconds *
                 std::ldexp(1.0, std::min(attempt, 30));
  delay = std::min(delay, options.connect_backoff_max_seconds);
  // splitmix64-style hash of (rank, attempt) → jitter factor in [0.5, 1):
  // deterministic (same schedule every run) but decorrelated across ranks.
  std::uint64_t x = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                         rank))
                     << 32) ^
                    static_cast<std::uint32_t>(attempt) ^
                    0x9E3779B97F4A7C15ull;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  const double unit =
      static_cast<double>(x >> 11) / 9007199254740992.0;  // [0, 1)
  return delay * (0.5 + 0.5 * unit);
}

std::string tcp_encode_frame(const Message& msg) {
  FrameHeader header{msg.source, msg.tag,
                     static_cast<std::uint32_t>(msg.payload.size()),
                     crc32(msg.payload.data(), msg.payload.size())};
  std::string out(reinterpret_cast<const char*>(&header), sizeof(header));
  out += msg.payload;
  return out;
}

bool tcp_write_message(int fd, const Message& msg) {
  const std::string frame = tcp_encode_frame(msg);
  return write_all(fd, frame.data(), frame.size());
}

TcpReadStatus tcp_read_frame(int fd, Message* msg,
                             const std::function<bool()>& keep_going) {
  FrameHeader header;
  if (!read_all(fd, &header, sizeof(header), keep_going)) {
    return TcpReadStatus::kClosed;
  }
  if (header.length > kMaxFrameLength) return TcpReadStatus::kClosed;
  msg->source = header.source;
  msg->tag = header.tag;
  msg->payload.resize(header.length);
  if (header.length != 0 &&
      !read_all(fd, msg->payload.data(), header.length, keep_going)) {
    return TcpReadStatus::kClosed;
  }
  if (crc32(msg->payload.data(), msg->payload.size()) != header.crc) {
    // The frame structure was intact (we consumed exactly `length` bytes,
    // the stream stays aligned) but the payload was damaged in flight:
    // surface it as corruption so the caller can count and drop it.
    return TcpReadStatus::kCorrupt;
  }
  return TcpReadStatus::kOk;
}

bool tcp_read_message(int fd, Message* msg,
                      const std::function<bool()>& keep_going) {
  for (;;) {
    switch (tcp_read_frame(fd, msg, keep_going)) {
      case TcpReadStatus::kOk: return true;
      case TcpReadStatus::kClosed: return false;
      case TcpReadStatus::kCorrupt: continue;  // dropped message
    }
  }
}

bool tcp_read_message(int fd, Message* msg) {
  return tcp_read_message(fd, msg, nullptr);
}

TcpReadStatus tcp_read_peer_frame(int fd, int peer, Message* msg,
                                  const std::function<bool()>& keep_going) {
  const TcpReadStatus status = tcp_read_frame(fd, msg, keep_going);
  // The CRC covers only the payload: a damaged header could name another
  // rank, so a frame must come from the connection's handshaken peer.
  if (status == TcpReadStatus::kOk && msg->source != peer) {
    return TcpReadStatus::kCorrupt;
  }
  return status;
}

RuntimeStats TcpRuntime::run(const std::vector<Actor*>& actors) {
  assert(!actors.empty());
  SocketTransport transport(options_, static_cast<int>(actors.size()),
                            obs_.metrics);
  return WallClock::run(actors, plan_, obs_, transport);
}

}  // namespace now
