// TCP wire robustness, tested without a farm: CRC-framed messages over a
// socketpair (intact, corrupted, truncated, forged-source streams) and the
// deterministic connect-backoff schedule.
#include "src/net/tcp_runtime.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <string>

namespace now {
namespace {

class SocketPair {
 public:
  SocketPair() {
    int sv[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    a_ = sv[0];
    b_ = sv[1];
  }
  ~SocketPair() {
    if (a_ >= 0) ::close(a_);
    if (b_ >= 0) ::close(b_);
  }
  int a() const { return a_; }
  int b() const { return b_; }
  void close_a() {
    ::close(a_);
    a_ = -1;
  }

 private:
  int a_ = -1;
  int b_ = -1;
};

void write_raw(int fd, const std::string& bytes) {
  ASSERT_EQ(::write(fd, bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
}

TEST(ConnectBackoff, GrowsExponentiallyAndStaysUnderTheCap) {
  const TcpOptions options;  // base 0.01s, max 0.5s
  for (int rank = 1; rank <= 4; ++rank) {
    for (int attempt = 0; attempt < 12; ++attempt) {
      const double cap =
          std::min(options.connect_backoff_base_seconds * std::pow(2.0, attempt),
                   options.connect_backoff_max_seconds);
      const double delay = connect_backoff_seconds(options, rank, attempt);
      EXPECT_GE(delay, 0.5 * cap - 1e-12)
          << "rank " << rank << " attempt " << attempt;
      EXPECT_LT(delay, cap) << "rank " << rank << " attempt " << attempt;
    }
  }
}

TEST(ConnectBackoff, IsDeterministicPerRankAndDesynchronizedAcrossRanks) {
  const TcpOptions options;
  // Same (rank, attempt) -> same delay on every call and every run.
  EXPECT_EQ(connect_backoff_seconds(options, 2, 5),
            connect_backoff_seconds(options, 2, 5));
  // Different ranks jitter apart at the same attempt (the point of the
  // per-rank jitter: no thundering herd on a shared master).
  bool any_differ = false;
  for (int attempt = 0; attempt < 8 && !any_differ; ++attempt) {
    any_differ = connect_backoff_seconds(options, 1, attempt) !=
                 connect_backoff_seconds(options, 2, attempt);
  }
  EXPECT_TRUE(any_differ);
}

TEST(TcpFrame, RoundTripsOverASocket) {
  SocketPair sp;
  const Message sent{3, 7, std::string("payload with \0 embedded", 23)};
  ASSERT_TRUE(tcp_write_message(sp.a(), sent));
  Message got;
  ASSERT_EQ(tcp_read_frame(sp.b(), &got, nullptr), TcpReadStatus::kOk);
  EXPECT_EQ(got.source, sent.source);
  EXPECT_EQ(got.tag, sent.tag);
  EXPECT_EQ(got.payload, sent.payload);

  // Empty payloads frame fine too.
  ASSERT_TRUE(tcp_write_message(sp.a(), Message{1, 9, ""}));
  ASSERT_EQ(tcp_read_frame(sp.b(), &got, nullptr), TcpReadStatus::kOk);
  EXPECT_EQ(got.source, 1);
  EXPECT_EQ(got.tag, 9);
  EXPECT_TRUE(got.payload.empty());
}

TEST(TcpFrame, CorruptPayloadIsDetectedAndTheStreamStaysAligned) {
  SocketPair sp;
  std::string frame = tcp_encode_frame(Message{1, 5, "hello, farm"});
  frame.back() ^= 0x40;  // flip a payload bit after the CRC was computed
  write_raw(sp.a(), frame);
  const Message good{2, 6, "still fine"};
  ASSERT_TRUE(tcp_write_message(sp.a(), good));

  // The corrupt frame is reported, not delivered — and the next frame on
  // the same stream parses cleanly (framing never loses sync).
  Message got;
  ASSERT_EQ(tcp_read_frame(sp.b(), &got, nullptr), TcpReadStatus::kCorrupt);
  ASSERT_EQ(tcp_read_frame(sp.b(), &got, nullptr), TcpReadStatus::kOk);
  EXPECT_EQ(got.source, good.source);
  EXPECT_EQ(got.tag, good.tag);
  EXPECT_EQ(got.payload, good.payload);
}

TEST(TcpFrame, CorruptCrcFieldIsDetected) {
  SocketPair sp;
  std::string frame = tcp_encode_frame(Message{1, 5, "checksummed"});
  // Byte 12 is the first CRC byte ([i32 source][i32 tag][u32 len][u32 crc]).
  frame[12] ^= 0x01;
  write_raw(sp.a(), frame);
  Message got;
  EXPECT_EQ(tcp_read_frame(sp.b(), &got, nullptr), TcpReadStatus::kCorrupt);
}

TEST(TcpFrame, ReadMessageSkipsCorruptFramesSilently) {
  SocketPair sp;
  std::string bad = tcp_encode_frame(Message{1, 5, "garbled"});
  bad.back() ^= 0xFF;
  write_raw(sp.a(), bad);
  const Message good{4, 8, "delivered"};
  ASSERT_TRUE(tcp_write_message(sp.a(), good));

  Message got;
  ASSERT_TRUE(tcp_read_message(sp.b(), &got));
  EXPECT_EQ(got.tag, good.tag);
  EXPECT_EQ(got.payload, good.payload);
}

TEST(TcpFrame, FrameFromAnotherSourceThanThePeerIsCorrupt) {
  SocketPair sp;
  // A header damaged in flight can name another rank — here rank 0 — while
  // the payload CRC still checks out. The reader knows the connection's
  // handshaken peer (rank 2) and refuses the frame; the stream stays aligned.
  write_raw(sp.a(), tcp_encode_frame(Message{0, 5, "forged"}));
  const Message good{2, 6, "genuine"};
  ASSERT_TRUE(tcp_write_message(sp.a(), good));

  Message got;
  EXPECT_EQ(tcp_read_peer_frame(sp.b(), 2, &got, nullptr),
            TcpReadStatus::kCorrupt);
  ASSERT_EQ(tcp_read_peer_frame(sp.b(), 2, &got, nullptr),
            TcpReadStatus::kOk);
  EXPECT_EQ(got.source, good.source);
  EXPECT_EQ(got.tag, good.tag);
  EXPECT_EQ(got.payload, good.payload);
}

TEST(TcpFrame, EofMidFrameIsClosedNotCorrupt) {
  SocketPair sp;
  const std::string frame = tcp_encode_frame(Message{1, 5, "cut short"});
  write_raw(sp.a(), frame.substr(0, frame.size() / 2));
  sp.close_a();
  Message got;
  EXPECT_EQ(tcp_read_frame(sp.b(), &got, nullptr), TcpReadStatus::kClosed);
}

TEST(TcpFrame, CleanEofIsClosed) {
  SocketPair sp;
  sp.close_a();
  Message got;
  EXPECT_EQ(tcp_read_frame(sp.b(), &got, nullptr), TcpReadStatus::kClosed);
  EXPECT_FALSE(tcp_read_message(sp.b(), &got));
}

TEST(TcpFrame, AbsurdLengthFieldIsTreatedAsClosed) {
  SocketPair sp;
  // Hand-craft a header claiming a ~2 GB payload; the reader must refuse to
  // allocate it and treat the stream as dead rather than OOM.
  WireWriter w;
  w.i32(1);
  w.i32(5);
  w.u32(0x7FFFFFFFu);
  w.u32(0);
  write_raw(sp.a(), w.take());
  Message got;
  EXPECT_EQ(tcp_read_frame(sp.b(), &got, nullptr), TcpReadStatus::kClosed);
}

}  // namespace
}  // namespace now
