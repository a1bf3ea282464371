// src/net/: framing adversity (partial reads, short writes, hostile length
// prefixes), deadlines, and the listener/connection wrappers.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "net/io.h"
#include "net/socket.h"
#include "util/check.h"

namespace subfed::net {
namespace {

/// A connected localhost socket pair: client dialed, server accepted.
struct SocketPair {
  TcpListener listener{parse_host_port("127.0.0.1:0")};
  TcpConn client;
  TcpConn server;

  SocketPair() {
    client = TcpConn::connect({"127.0.0.1", listener.port()}, Deadline::after_ms(5000));
    server = listener.accept(Deadline::after_ms(5000));
  }
};

/// The wire image of one frame, built independently of send_frame so the
/// tests can corrupt any byte of it.
std::vector<std::uint8_t> wire_bytes(FrameKind kind, std::uint64_t tag,
                                     const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> bytes;
  const std::uint32_t magic = 0x53464E54;  // "SFNT"
  for (int i = 0; i < 4; ++i) bytes.push_back(static_cast<std::uint8_t>(magic >> (8 * i)));
  bytes.push_back(static_cast<std::uint8_t>(kind));
  for (int i = 0; i < 8; ++i) bytes.push_back(static_cast<std::uint8_t>(tag >> (8 * i)));
  const std::uint32_t size = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) bytes.push_back(static_cast<std::uint8_t>(size >> (8 * i)));
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  return bytes;
}

void write_raw(int fd, const std::vector<std::uint8_t>& bytes) {
  ASSERT_TRUE(write_exact(fd, bytes.data(), bytes.size()));
}

// ---------------------------------------------------------------------------
// Addresses and deadlines

TEST(HostPort, ParsesAndRejects) {
  const HostPort a = parse_host_port("127.0.0.1:9000");
  EXPECT_EQ(a.host, "127.0.0.1");
  EXPECT_EQ(a.port, 9000);
  EXPECT_EQ(parse_host_port("0.0.0.0:0").port, 0);

  EXPECT_THROW(parse_host_port("nohost"), CheckError);
  EXPECT_THROW(parse_host_port(":9000"), CheckError);
  EXPECT_THROW(parse_host_port("host:"), CheckError);
  EXPECT_THROW(parse_host_port("host:99999"), CheckError);
  EXPECT_THROW(parse_host_port("host:12a"), CheckError);
}

TEST(DeadlineTest, ZeroAndDefaultMeanUnlimited) {
  EXPECT_TRUE(Deadline{}.unlimited());
  EXPECT_TRUE(Deadline::after_ms(0).unlimited());
  EXPECT_FALSE(Deadline{}.expired());
  EXPECT_EQ(Deadline{}.remaining_ms(), -1);
}

TEST(DeadlineTest, ArmsAndExpires) {
  const Deadline d = Deadline::after_ms(40);
  EXPECT_FALSE(d.unlimited());
  EXPECT_FALSE(d.expired());
  EXPECT_GE(d.remaining_ms(), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.remaining_ms(), 0);
}

// ---------------------------------------------------------------------------
// Listener / connection

TEST(Listener, ResolvesEphemeralPortInEndpoint) {
  TcpListener listener(parse_host_port("127.0.0.1:0"));
  EXPECT_NE(listener.port(), 0);
  EXPECT_EQ(listener.endpoint(), "127.0.0.1:" + std::to_string(listener.port()));
}

TEST(Listener, AcceptTimesOutWhenNobodyConnects) {
  TcpListener listener(parse_host_port("127.0.0.1:0"));
  EXPECT_FALSE(listener.accept(Deadline::after_ms(50)).valid());
}

TEST(Connect, RefusedPortReturnsInvalidWithinDeadline) {
  // Bind-then-close: the port was just free, so the connect is refused (or at
  // worst times out at the deadline) rather than reaching some other service.
  std::uint16_t dead_port = 0;
  {
    TcpListener probe(parse_host_port("127.0.0.1:0"));
    dead_port = probe.port();
  }
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(TcpConn::connect({"127.0.0.1", dead_port}, Deadline::after_ms(2000)).valid());
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(10));
}

// ---------------------------------------------------------------------------
// Framing

TEST(Framing, RoundTripsEveryKindWithTagAndPayload) {
  SocketPair pair;
  ASSERT_TRUE(pair.client.valid());
  ASSERT_TRUE(pair.server.valid());
  for (const FrameKind kind :
       {FrameKind::kHello, FrameKind::kSetup, FrameKind::kExchange, FrameKind::kReply,
        FrameKind::kRunSpec, FrameKind::kRunResult, FrameKind::kError,
        FrameKind::kShutdown}) {
    const std::uint64_t tag = 0xDEADBEEFCAFE0000ULL + static_cast<std::uint64_t>(kind);
    const std::vector<std::uint8_t> payload = {1, 2, 3, static_cast<std::uint8_t>(kind)};
    ASSERT_TRUE(send_frame(pair.client, kind, tag, payload));
    NetFrame got;
    ASSERT_TRUE(recv_frame(pair.server, &got));
    EXPECT_EQ(got.kind, kind);
    EXPECT_EQ(got.tag, tag);
    EXPECT_EQ(got.payload, payload);
  }
}

TEST(Framing, ReassemblesDribbledDelivery) {
  // A peer (or the network) may deliver a frame one byte at a time; every
  // partial read must resume where it left off.
  SocketPair pair;
  std::vector<std::uint8_t> payload(257);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 7);
  }
  const std::vector<std::uint8_t> bytes = wire_bytes(FrameKind::kReply, 42, payload);
  std::thread dribbler([&] {
    for (std::size_t i = 0; i < bytes.size(); i += 3) {
      const std::size_t n = std::min<std::size_t>(3, bytes.size() - i);
      ASSERT_TRUE(write_exact(pair.client.fd(), bytes.data() + i, n));
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  NetFrame got;
  EXPECT_TRUE(recv_frame(pair.server, &got, Deadline::after_ms(30000)));
  EXPECT_EQ(got.kind, FrameKind::kReply);
  EXPECT_EQ(got.tag, 42u);
  EXPECT_EQ(got.payload, payload);
  dribbler.join();
}

TEST(Framing, SurvivesShortWritesOnLargePayloads) {
  // 4 MB dwarfs the socket buffers, so write_exact must loop through partial
  // writes while the reader drains concurrently.
  SocketPair pair;
  std::vector<std::uint8_t> payload(4u << 20);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i ^ (i >> 8));
  }
  std::thread writer([&] {
    ASSERT_TRUE(send_frame(pair.client, FrameKind::kExchange, 7, payload,
                           Deadline::after_ms(30000)));
  });
  NetFrame got;
  ASSERT_TRUE(recv_frame(pair.server, &got, Deadline::after_ms(30000)));
  writer.join();
  EXPECT_EQ(got.tag, 7u);
  EXPECT_EQ(got.payload, payload);
}

TEST(Framing, OversizedLengthPrefixFailsBeforeAllocation) {
  SocketPair pair;
  // Header claims a 1 GiB + 1 payload; only the 17 prefix bytes ever arrive.
  // recv_frame must fail on the prefix alone — if it tried to allocate or
  // read the claimed payload it would hang until the deadline instead.
  std::vector<std::uint8_t> bytes = wire_bytes(FrameKind::kReply, 1, {});
  const std::uint32_t huge = (1u << 30) + 1;
  for (int i = 0; i < 4; ++i) {
    bytes[13 + i] = static_cast<std::uint8_t>(huge >> (8 * i));
  }
  write_raw(pair.client.fd(), bytes);
  NetFrame got;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(recv_frame(pair.server, &got, Deadline::after_ms(30000)));
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
}

TEST(Framing, CallerCapRejectsFramesItNeverWanted) {
  SocketPair pair;
  const std::vector<std::uint8_t> payload(100, 0xAB);
  ASSERT_TRUE(send_frame(pair.client, FrameKind::kReply, 1, payload));
  NetFrame got;
  EXPECT_FALSE(recv_frame(pair.server, &got, {}, /*max_payload=*/16));
}

TEST(Framing, TruncatedPayloadFails) {
  SocketPair pair;
  std::vector<std::uint8_t> bytes = wire_bytes(FrameKind::kReply, 9,
                                               std::vector<std::uint8_t>(100, 1));
  bytes.resize(bytes.size() - 60);  // peer dies 60 bytes short
  write_raw(pair.client.fd(), bytes);
  pair.client.close();
  NetFrame got;
  EXPECT_FALSE(recv_frame(pair.server, &got));
}

TEST(Framing, ClaimedLengthIsNotAllocatedBeforeItArrives) {
  // A prefix claiming 2^30 - 1 bytes (under kMaxFrameBytes), then 64 bytes,
  // then EOF: the read fails, and the buffer tracks the 64 bytes that came,
  // not the gigabyte that was claimed.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::uint32_t claimed = (1u << 30) - 1;
  std::vector<std::uint8_t> bytes(4 + 64, 0x5A);
  for (int i = 0; i < 4; ++i) bytes[i] = static_cast<std::uint8_t>(claimed >> (8 * i));
  write_raw(fds[1], bytes);
  ::close(fds[1]);
  std::vector<std::uint8_t> payload;
  EXPECT_FALSE(read_frame(fds[0], &payload, Deadline::after_ms(30000)));
  EXPECT_LT(payload.capacity(), std::size_t{2} << 20);
  ::close(fds[0]);
}

TEST(Framing, BadMagicAndBadKindFail) {
  {
    SocketPair pair;
    std::vector<std::uint8_t> bytes = wire_bytes(FrameKind::kReply, 1, {1, 2});
    bytes[0] ^= 0xFF;
    write_raw(pair.client.fd(), bytes);
    NetFrame got;
    EXPECT_FALSE(recv_frame(pair.server, &got));
  }
  {
    SocketPair pair;
    std::vector<std::uint8_t> bytes = wire_bytes(FrameKind::kReply, 1, {1, 2});
    bytes[4] = 200;  // no such FrameKind
    write_raw(pair.client.fd(), bytes);
    NetFrame got;
    EXPECT_FALSE(recv_frame(pair.server, &got));
  }
}

TEST(Framing, SilentPeerHonorsDeadline) {
  SocketPair pair;
  NetFrame got;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(recv_frame(pair.server, &got, Deadline::after_ms(100)));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, std::chrono::milliseconds(90));
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

TEST(Framing, DeadPeerFailsSendEventually) {
  SocketPair pair;
  pair.server.close();
  // The first send may land in the kernel buffer; keep pushing until the RST
  // surfaces. Bounded by count, not time.
  const std::vector<std::uint8_t> payload(1u << 16, 3);
  bool failed = false;
  for (int i = 0; i < 64 && !failed; ++i) {
    failed = !send_frame(pair.client, FrameKind::kExchange, 1, payload,
                         Deadline::after_ms(2000));
  }
  EXPECT_TRUE(failed);
}

// ---------------------------------------------------------------------------
// Readiness

TEST(WaitReadable, ReportsOnlyTheReadyFd) {
  SocketPair quiet;
  SocketPair chatty;
  ASSERT_TRUE(send_frame(chatty.client, FrameKind::kHello, 0, {}));
  const int fds[] = {quiet.server.fd(), chatty.server.fd()};
  const std::vector<std::size_t> ready = wait_readable(fds, /*timeout_ms=*/5000);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0], 1u);
}

TEST(WaitReadable, TimesOutEmpty) {
  SocketPair quiet;
  const int fds[] = {quiet.server.fd()};
  EXPECT_TRUE(wait_readable(fds, /*timeout_ms=*/30).empty());
}

TEST(WaitReadable, HangupCountsAsReadable) {
  SocketPair pair;
  pair.client.close();
  const int fds[] = {pair.server.fd()};
  const std::vector<std::size_t> ready = wait_readable(fds, /*timeout_ms=*/5000);
  ASSERT_EQ(ready.size(), 1u);  // read now and observe the EOF
  NetFrame got;
  EXPECT_FALSE(recv_frame(pair.server, &got));
}

}  // namespace
}  // namespace subfed::net
