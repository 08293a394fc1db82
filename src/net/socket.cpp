#include "net/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/check.h"
#include "obs/metric_names.h"
#include "obs/obs.h"

namespace mlsim::net {

namespace {

std::string errno_text() { return std::strerror(errno); }

/// Loopback sockaddr for host:port. Only numeric IPv4 (and the literal
/// "localhost") is supported — the cluster is explicitly a same-host /
/// trusted-network transport, not a general resolver.
sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string numeric = host == "localhost" ? "127.0.0.1" : host;
  if (inet_pton(AF_INET, numeric.c_str(), &addr.sin_addr) != 1) {
    throw IoError("not a numeric IPv4 host: " + host);
  }
  return addr;
}

}  // namespace

std::optional<HostPort> parse_host_port(const std::string& s) {
  const std::size_t colon = s.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == s.size()) {
    return std::nullopt;
  }
  const std::string digits = s.substr(colon + 1);
  std::uint32_t port = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    port = port * 10 + static_cast<std::uint32_t>(c - '0');
    if (port > 65535) return std::nullopt;
  }
  if (port == 0) return std::nullopt;
  return HostPort{s.substr(0, colon), static_cast<std::uint16_t>(port)};
}

TcpConn::TcpConn(int fd, std::string peer) : fd_(fd), peer_(std::move(peer)) {}

TcpConn::~TcpConn() { close(); }

TcpConn::TcpConn(TcpConn&& other) noexcept
    : fd_(other.fd_), peer_(std::move(other.peer_)) {
  other.fd_ = -1;
}

TcpConn& TcpConn::operator=(TcpConn&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    peer_ = std::move(other.peer_);
    other.fd_ = -1;
  }
  return *this;
}

TcpConn TcpConn::connect(const std::string& host, std::uint16_t port) {
  const sockaddr_in addr = make_addr(host, port);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw IoError("socket(): " + errno_text());
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string why = errno_text();
    ::close(fd);
    throw IoError("connect to " + host + ":" + std::to_string(port) + ": " +
                  why);
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return TcpConn(fd, host + ":" + std::to_string(port));
}

void TcpConn::send_all(const void* data, std::size_t size) {
  send_all({std::string_view(static_cast<const char*>(data), size)});
}

void TcpConn::send_all(std::initializer_list<std::string_view> parts) {
  check(valid(), "send on a closed connection");
  std::vector<iovec> iov;
  iov.reserve(parts.size());
  std::size_t total = 0;
  for (const std::string_view part : parts) {
    if (part.empty()) continue;
    iov.push_back({const_cast<char*>(part.data()), part.size()});
    total += part.size();
  }
  std::size_t next = 0;  // first iovec with bytes left to send
  while (next < iov.size()) {
    msghdr msg{};
    msg.msg_iov = iov.data() + next;
    msg.msg_iovlen = iov.size() - next;
    const ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw IoError("send to " + peer_ + ": " + errno_text());
    }
    // Skip the fully sent iovecs and advance into a partly sent one.
    auto sent = static_cast<std::size_t>(n);
    while (next < iov.size() && sent >= iov[next].iov_len) {
      sent -= iov[next].iov_len;
      ++next;
    }
    if (next < iov.size()) {
      iov[next].iov_base = static_cast<char*>(iov[next].iov_base) + sent;
      iov[next].iov_len -= sent;
    }
  }
  MLSIM_COUNTER_ADD(obs::names::kNetBytesSent, total);
}

bool TcpConn::recv_all(void* data, std::size_t size, bool eof_ok) {
  check(valid(), "recv on a closed connection");
  char* p = static_cast<char*>(data);
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd_, p + got, size - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw IoError("recv from " + peer_ + ": " + errno_text());
    }
    if (n == 0) {
      if (got == 0 && eof_ok) return false;
      throw IoError("peer " + peer_ + " closed the connection mid-message (" +
                    std::to_string(got) + "/" + std::to_string(size) +
                    " bytes)");
    }
    got += static_cast<std::size_t>(n);
  }
  MLSIM_COUNTER_ADD(obs::names::kNetBytesReceived, size);
  return true;
}

std::size_t TcpConn::recv_some(void* data, std::size_t cap) {
  check(valid(), "recv on a closed connection");
  for (;;) {
    const ssize_t n = ::recv(fd_, data, cap, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw IoError("recv from " + peer_ + ": " + errno_text());
    }
    if (n > 0) {
      MLSIM_COUNTER_ADD(obs::names::kNetBytesReceived,
                        static_cast<std::uint64_t>(n));
    }
    return static_cast<std::size_t>(n);
  }
}

bool TcpConn::readable(int timeout_ms) const {
  check(valid(), "poll on a closed connection");
  pollfd pfd{fd_, POLLIN, 0};
  for (;;) {
    const int r = ::poll(&pfd, 1, timeout_ms);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw IoError("poll on " + peer_ + ": " + errno_text());
    }
    return r > 0;
  }
}

void TcpConn::abort() {
  if (fd_ < 0) return;
  // SO_LINGER with zero timeout turns close() into an immediate RST — the
  // peer sees the abrupt death a SIGKILLed worker would produce.
  linger lg{1, 0};
  ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
  close();
}

void TcpConn::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

TcpListener::~TcpListener() { close(); }

TcpListener::TcpListener(TcpListener&& other) noexcept
    : fd_(other.fd_), port_(other.port_) {
  other.fd_ = -1;
}

TcpListener& TcpListener::operator=(TcpListener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
  }
  return *this;
}

TcpListener TcpListener::bind(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw IoError("socket(): " + errno_text());
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = make_addr("127.0.0.1", port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string why = errno_text();
    ::close(fd);
    throw IoError("bind 127.0.0.1:" + std::to_string(port) + ": " + why);
  }
  if (::listen(fd, 64) != 0) {
    const std::string why = errno_text();
    ::close(fd);
    throw IoError("listen: " + why);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    const std::string why = errno_text();
    ::close(fd);
    throw IoError("getsockname: " + why);
  }
  TcpListener l;
  l.fd_ = fd;
  l.port_ = ntohs(bound.sin_port);
  return l;
}

std::optional<TcpConn> TcpListener::accept(int timeout_ms) {
  check(valid(), "accept on a closed listener");
  pollfd pfd{fd_, POLLIN, 0};
  for (;;) {
    const int r = ::poll(&pfd, 1, timeout_ms);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw IoError("poll on listener: " + errno_text());
    }
    if (r == 0) return std::nullopt;
    break;
  }
  sockaddr_in peer{};
  socklen_t len = sizeof(peer);
  const int fd = ::accept(fd_, reinterpret_cast<sockaddr*>(&peer), &len);
  if (fd < 0) throw IoError("accept: " + errno_text());
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  char buf[INET_ADDRSTRLEN] = {};
  inet_ntop(AF_INET, &peer.sin_addr, buf, sizeof(buf));
  return TcpConn(fd, std::string(buf) + ":" + std::to_string(ntohs(peer.sin_port)));
}

void TcpListener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::vector<bool> poll_readable(const std::vector<int>& fds, int timeout_ms) {
  std::vector<pollfd> pfds;
  pfds.reserve(fds.size());
  for (const int fd : fds) pfds.push_back({fd, POLLIN, 0});
  for (;;) {
    const int r = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw IoError("poll: " + errno_text());
    }
    break;
  }
  std::vector<bool> out(fds.size(), false);
  for (std::size_t i = 0; i < pfds.size(); ++i) {
    out[i] = (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0;
  }
  return out;
}

}  // namespace mlsim::net
