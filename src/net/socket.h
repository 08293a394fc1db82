// Minimal blocking TCP sockets for the distributed cluster
// (docs/DISTRIBUTED.md). POSIX sockets + poll(2) only — no external
// dependencies; everything is synchronous and the coordinator multiplexes
// connections with poll_readable() rather than threads.
//
// Error taxonomy (docs/RESILIENCE.md): every transport failure — refused
// connection, peer reset, EOF mid-message — is a typed IoError naming the
// peer. Content-level corruption is diagnosed one layer up (net/frame.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mlsim::net {

/// A "host:port" pair. parse_host_port() is the one strict parser used by
/// every CLI surface that accepts an endpoint.
struct HostPort {
  std::string host;
  std::uint16_t port = 0;
};

/// Strict endpoint parse: non-empty host, decimal port in [1, 65535], no
/// sign/whitespace/garbage. Returns nullopt on any violation.
std::optional<HostPort> parse_host_port(const std::string& s);

/// One connected TCP stream. Move-only; the destructor closes the fd.
class TcpConn {
 public:
  TcpConn() = default;
  explicit TcpConn(int fd, std::string peer);
  ~TcpConn();
  TcpConn(TcpConn&& other) noexcept;
  TcpConn& operator=(TcpConn&& other) noexcept;
  TcpConn(const TcpConn&) = delete;
  TcpConn& operator=(const TcpConn&) = delete;

  /// Connect to host:port. Throws IoError on resolution/connection failure.
  static TcpConn connect(const std::string& host, std::uint16_t port);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  /// "host:port" of the peer, for error messages and logs.
  const std::string& peer() const { return peer_; }

  /// Write exactly `size` bytes. Throws IoError on any failure.
  void send_all(const void* data, std::size_t size);
  /// Write every byte of `parts`, in order, with gather writes (sendmsg):
  /// a header and a payload held apart leave as one stream without being
  /// copied together first. Throws IoError on any failure.
  void send_all(std::initializer_list<std::string_view> parts);
  /// Read exactly `size` bytes. Throws IoError on failure or EOF mid-read.
  /// Returns false (reads nothing) on clean EOF at a message boundary when
  /// `eof_ok`; EOF with partial data is always an IoError.
  bool recv_all(void* data, std::size_t size, bool eof_ok = false);
  /// Read whatever is available, up to `cap` bytes (blocking until at least
  /// one byte or EOF). Returns the byte count; 0 means EOF. Throws IoError
  /// on failure. For delimiter-framed protocols (the HTTP telemetry
  /// endpoint) where the message length is not known up front.
  std::size_t recv_some(void* data, std::size_t cap);
  /// Wait up to timeout_ms for the stream to become readable (0 = poll,
  /// negative = block). True when readable (including EOF).
  bool readable(int timeout_ms) const;

  /// Close immediately without lingering: pending unsent data is discarded
  /// and the peer sees a reset — how a killed worker process looks to the
  /// coordinator.
  void abort();
  void close();

 private:
  int fd_ = -1;
  std::string peer_;
};

/// A listening TCP socket bound to the loopback interface.
class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener();
  TcpListener(TcpListener&& other) noexcept;
  TcpListener& operator=(TcpListener&& other) noexcept;
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Bind and listen on 127.0.0.1:port (port 0 picks an ephemeral port,
  /// readable via port()). Throws IoError when the bind fails.
  static TcpListener bind(std::uint16_t port);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  std::uint16_t port() const { return port_; }

  /// Accept one connection, waiting up to timeout_ms (negative = block).
  /// nullopt on timeout; throws IoError on accept failure.
  std::optional<TcpConn> accept(int timeout_ms);

  void close();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// poll(2) over many fds: returns a parallel vector, true where the fd is
/// readable (or at EOF). Waits up to timeout_ms (negative = block).
std::vector<bool> poll_readable(const std::vector<int>& fds, int timeout_ms);

}  // namespace mlsim::net
