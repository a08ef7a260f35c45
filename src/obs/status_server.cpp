#include "src/obs/status_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <thread>

namespace now {

// ---------------------------------------------------------------------------
// Prometheus text exposition.

namespace {

/// Prometheus metric names are [a-zA-Z_:][a-zA-Z0-9_:]*; our dotted names
/// map by replacing every other character with '_'.
std::string prom_name(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    c == '_' || c == ':' || (i > 0 && c >= '0' && c <= '9');
    out.push_back(ok ? c : '_');
  }
  return out;
}

void append_prom_double(std::string* out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  *out += buf;
}

}  // namespace

std::string prometheus_text(const MetricsSnapshot& snap) {
  std::string out;
  for (const auto& [name, value] : snap.counters) {
    const std::string n = prom_name(name);
    out += "# TYPE " + n + " counter\n";
    out += n + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string n = prom_name(name);
    out += "# TYPE " + n + " gauge\n";
    out += n + " ";
    append_prom_double(&out, value);
    out += "\n";
  }
  for (const auto& [name, h] : snap.histograms) {
    const std::string n = prom_name(name);
    out += "# TYPE " + n + " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      cumulative += i < h.counts.size() ? h.counts[i] : 0;
      out += n + "_bucket{le=\"";
      append_prom_double(&out, h.bounds[i]);
      out += "\"} " + std::to_string(cumulative) + "\n";
    }
    out += n + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) + "\n";
    out += n + "_sum ";
    append_prom_double(&out, h.sum);
    out += "\n";
    out += n + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// StatusBoard.

void StatusBoard::publish(std::string json) {
  std::lock_guard<std::mutex> lock(mu_);
  json_ = std::move(json);
}

std::string StatusBoard::latest() const {
  std::lock_guard<std::mutex> lock(mu_);
  return json_;
}

// ---------------------------------------------------------------------------
// StatusServer.

struct StatusServer::Impl {
  Provider metrics_text;
  Provider status_json;
  int listener = -1;
  int port = 0;
  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> requests{0};
  std::thread thread;
};

namespace {

void set_rcv_timeout(int fd, double seconds) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>(
      (seconds - static_cast<double>(tv.tv_sec)) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

void send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, 0);
    if (n <= 0) return;
    off += static_cast<std::size_t>(n);
  }
}

void serve_one(int fd, StatusServer::Impl* impl) {
  set_rcv_timeout(fd, 2.0);
  // Read until the blank line ending the header block: a request arrives in
  // as many TCP segments as it likes, and answering before the client has
  // finished sending risks a reset that kills the response in flight. The
  // 2s receive timeout and the 8 KiB cap bound a slow or hostile peer.
  std::string req;
  char buf[1024];
  while (req.find("\r\n\r\n") == std::string::npos && req.size() < 8192) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    req.append(buf, static_cast<std::size_t>(n));
  }
  std::string path;
  if (req.rfind("GET ", 0) == 0) {
    const std::size_t sp = req.find(' ', 4);
    if (sp != std::string::npos) path = req.substr(4, sp - 4);
  }
  std::string body;
  std::string content_type = "text/plain; charset=utf-8";
  std::string status = "200 OK";
  if (path == "/metrics") {
    body = impl->metrics_text ? impl->metrics_text() : "";
    content_type = "text/plain; version=0.0.4; charset=utf-8";
  } else if (path == "/status") {
    body = impl->status_json ? impl->status_json() : "{}\n";
    content_type = "application/json";
  } else {
    status = "404 Not Found";
    body = "not found: try /metrics or /status\n";
  }
  std::string resp = "HTTP/1.0 " + status +
                     "\r\nContent-Type: " + content_type +
                     "\r\nContent-Length: " + std::to_string(body.size()) +
                     "\r\nConnection: close\r\n\r\n" + body;
  send_all(fd, resp);
  impl->requests.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

StatusServer::StatusServer(int port, Provider metrics_text,
                           Provider status_json)
    : impl_(std::make_unique<Impl>()) {
  impl_->metrics_text = std::move(metrics_text);
  impl_->status_json = std::move(status_json);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0) {
    ::close(fd);
    return;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    ::close(fd);
    return;
  }
  impl_->listener = fd;
  impl_->port = ntohs(bound.sin_port);
  // The accept loop blocks until stop() shuts the listener down, which
  // wakes accept() at once.
  Impl* impl = impl_.get();
  impl_->thread = std::thread([impl] {
    for (;;) {
      const int client = ::accept(impl->listener, nullptr, nullptr);
      if (client < 0) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        break;
      }
      serve_one(client, impl);
      ::close(client);
    }
  });
}

StatusServer::~StatusServer() { stop(); }

bool StatusServer::ok() const { return impl_->listener >= 0; }

int StatusServer::port() const { return impl_->port; }

std::int64_t StatusServer::requests_served() const {
  return impl_->requests.load(std::memory_order_relaxed);
}

void StatusServer::stop() {
  if (impl_->stop.exchange(true)) {
    if (impl_->thread.joinable()) impl_->thread.join();
    return;
  }
  if (impl_->listener >= 0) ::shutdown(impl_->listener, SHUT_RDWR);
  if (impl_->thread.joinable()) impl_->thread.join();
  if (impl_->listener >= 0) {
    ::close(impl_->listener);
    impl_->listener = -1;
  }
}

}  // namespace now
