// TCP socket + RPC framing layer (net/socket.h, net/frame.h): endpoint
// parsing, loopback frame round-trips, and the transport error taxonomy —
// truncation, corruption, and clean EOF must each surface distinctly
// (docs/DISTRIBUTED.md) instead of hanging or crashing.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/wire.h"
#include "net/frame.h"
#include "net/socket.h"

namespace mlsim::net {
namespace {

/// A connected loopback pair: first = client side, second = accepted side.
std::pair<TcpConn, TcpConn> loopback_pair() {
  TcpListener listener = TcpListener::bind(0);
  TcpConn client = TcpConn::connect("127.0.0.1", listener.port());
  auto server = listener.accept(2000);
  EXPECT_TRUE(server.has_value());
  return {std::move(client), std::move(*server)};
}

// ---- endpoint parsing -------------------------------------------------------

TEST(HostPortParse, AcceptsValidEndpoints) {
  const auto a = parse_host_port("127.0.0.1:8080");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->host, "127.0.0.1");
  EXPECT_EQ(a->port, 8080);

  const auto b = parse_host_port("localhost:1");
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->host, "localhost");
  EXPECT_EQ(b->port, 1);

  const auto c = parse_host_port("some.host.name:65535");
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->port, 65535);
}

TEST(HostPortParse, RejectsMalformedEndpoints) {
  for (const char* bad :
       {"", ":", "host:", ":123", "host", "host:0", "host:65536",
        "host:999999999999", "host:12x", "host:-1", "host: 80", "host:+80",
        "host:8 0"}) {
    EXPECT_FALSE(parse_host_port(bad).has_value()) << "accepted '" << bad << "'";
  }
}

// ---- sockets ---------------------------------------------------------------

TEST(Socket, ConnectToClosedPortIsIoError) {
  std::uint16_t dead_port;
  {
    const TcpListener l = TcpListener::bind(0);
    dead_port = l.port();
  }  // closed: nothing listens there now
  EXPECT_THROW(TcpConn::connect("127.0.0.1", dead_port), IoError);
}

TEST(Socket, ReadableTimesOutWhenIdle) {
  auto [client, server] = loopback_pair();
  EXPECT_FALSE(server.readable(50));
  client.send_all("x", 1);
  EXPECT_TRUE(server.readable(2000));
}

TEST(Socket, PartialEofIsIoErrorCleanEofIsFalse) {
  {
    auto [client, server] = loopback_pair();
    client.send_all("abc", 3);
    client.close();
    char buf[8];
    EXPECT_THROW(server.recv_all(buf, sizeof buf, /*eof_ok=*/true), IoError);
  }
  {
    auto [client, server] = loopback_pair();
    client.close();
    char buf[8];
    EXPECT_FALSE(server.recv_all(buf, sizeof buf, /*eof_ok=*/true));
    EXPECT_THROW(server.recv_all(buf, sizeof buf, /*eof_ok=*/false), IoError);
  }
}

// ---- framing ---------------------------------------------------------------

TEST(Frame, LoopbackRoundTrip) {
  auto [client, server] = loopback_pair();
  send_frame(client, "hello cluster");
  std::string payload;
  ASSERT_TRUE(recv_frame(server, payload));
  EXPECT_EQ(payload, "hello cluster");

  // Several frames queued back to back stay delimited.
  send_frame(client, "one");
  send_frame(client, "");
  send_frame(client, "three");
  ASSERT_TRUE(recv_frame(server, payload));
  EXPECT_EQ(payload, "one");
  ASSERT_TRUE(recv_frame(server, payload));
  EXPECT_EQ(payload, "");
  ASSERT_TRUE(recv_frame(server, payload));
  EXPECT_EQ(payload, "three");
}

TEST(Frame, LargePayloadRoundTrip) {
  auto [client, server] = loopback_pair();
  std::string big(4u << 20, '\0');
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>((i * 2654435761u) >> 24);
  }
  // 4 MiB exceeds the socket buffers, so send and receive concurrently.
  std::thread sender([&] { send_frame(client, big); });
  std::string payload;
  ASSERT_TRUE(recv_frame(server, payload));
  sender.join();
  EXPECT_EQ(payload, big);
}

TEST(Frame, CleanEofReturnsFalse) {
  auto [client, server] = loopback_pair();
  client.close();
  std::string payload;
  EXPECT_FALSE(recv_frame(server, payload));
}

TEST(Frame, TruncatedHeaderIsIoError) {
  auto [client, server] = loopback_pair();
  const std::string frame = wire::seal(kFrameMagic, "payload");
  client.send_all(frame.data(), wire::kEnvelopeBytes / 2);
  client.close();
  std::string payload;
  EXPECT_THROW(recv_frame(server, payload), IoError);
}

TEST(Frame, TruncatedPayloadIsIoErrorNotAHang) {
  auto [client, server] = loopback_pair();
  const std::string frame = wire::seal(kFrameMagic, "payload");
  client.send_all(frame.data(), frame.size() - 3);
  client.close();
  std::string payload;
  EXPECT_THROW(recv_frame(server, payload), IoError);
}

TEST(Frame, CorruptPayloadIsIoError) {
  auto [client, server] = loopback_pair();
  std::string frame = wire::seal(kFrameMagic, "payload");
  frame[wire::kEnvelopeBytes + 1] ^= 0x20;  // flip a payload bit
  client.send_all(frame.data(), frame.size());
  std::string payload;
  EXPECT_THROW(recv_frame(server, payload), IoError);
}

TEST(Frame, BadMagicIsIoError) {
  auto [client, server] = loopback_pair();
  std::string frame = wire::seal(kFrameMagic ^ 0xff, "payload");
  client.send_all(frame.data(), frame.size());
  std::string payload;
  EXPECT_THROW(recv_frame(server, payload), IoError);
}

TEST(Frame, OlderEnvelopeVersionIsIoError) {
  auto [client, server] = loopback_pair();
  std::string frame = wire::seal(kFrameMagic, "payload");
  const std::uint32_t v1 = 1;
  frame.replace(4, 4, reinterpret_cast<const char*>(&v1), 4);
  client.send_all(frame.data(), frame.size());
  std::string payload;
  EXPECT_THROW(recv_frame(server, payload), IoError);
}

TEST(Frame, HeaderSealedOnceServesManyPeers) {
  auto [c1, s1] = loopback_pair();
  auto [c2, s2] = loopback_pair();
  const std::string body(100000, 'w');
  const std::string header = frame_header(body);
  EXPECT_EQ(header + body, wire::seal(kFrameMagic, body));
  // One sender thread per peer: a frame this size outgrows a socket buffer.
  std::thread a([&] { send_frame(c1, header, body); });
  std::thread b([&] { send_frame(c2, header, body); });
  std::string got1, got2;
  ASSERT_TRUE(recv_frame(s1, got1));
  ASSERT_TRUE(recv_frame(s2, got2));
  a.join();
  b.join();
  EXPECT_EQ(got1, body);
  EXPECT_EQ(got2, body);
}

TEST(Frame, AbsurdSizeFieldIsIoErrorNotAnAllocation) {
  auto [client, server] = loopback_pair();
  std::string frame = wire::seal(kFrameMagic, "payload");
  // The size field is the last 8 envelope bytes; claim ~2^62 bytes.
  frame[wire::kEnvelopeBytes - 1] = '\x40';
  client.send_all(frame.data(), frame.size());
  std::string payload;
  EXPECT_THROW(recv_frame(server, payload), IoError);
}

TEST(Frame, PollReadableMultiplexes) {
  auto [c1, s1] = loopback_pair();
  auto [c2, s2] = loopback_pair();
  send_frame(c2, "only the second");
  const auto ready = poll_readable({s1.fd(), s2.fd()}, 2000);
  ASSERT_EQ(ready.size(), 2u);
  EXPECT_FALSE(ready[0]);
  EXPECT_TRUE(ready[1]);
}

}  // namespace
}  // namespace mlsim::net
