// Test-side frame-forwarding proxy between dist workers and a coordinator,
// for tests that must act while a run is provably unfinished.
//
// Workers connect to port(); each connection gets its own connection to the
// coordinator, and whole frames are copied both ways. Once a set number of
// Result frames has passed toward the coordinator, Assign frames toward the
// workers are held back (with every later frame on the same connection, so
// order is kept) until release(). A worker whose Assign is held sits idle
// with a shard the coordinator counts as in flight, so the run cannot finish
// before the test has drained it, killed a process, or let a worker join.
// Either side closing takes the other connection down with it, so the
// coordinator sees a lost worker, and a worker a lost coordinator, at once.
// Nothing in the coordinator or worker changes.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "dist/protocol.h"
#include "net/frame.h"
#include "net/socket.h"

namespace mlsim::dist {

class AssignGate {
 public:
  /// Binds the port workers connect to. Nothing is forwarded before
  /// start(), so worker processes may be forked in between.
  explicit AssignGate(std::uint16_t coordinator_port)
      : coordinator_port_(coordinator_port), listener_(net::TcpListener::bind(0)) {}

  ~AssignGate() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
  }

  AssignGate(const AssignGate&) = delete;
  AssignGate& operator=(const AssignGate&) = delete;

  std::uint16_t port() const { return listener_.port(); }

  /// Starts forwarding; Assigns are held once `results` Results have passed.
  void start(std::size_t results) {
    hold_after_ = results;
    thread_ = std::thread([this] { loop(); });
  }

  /// Waits until at least `workers` connections each have an Assign held.
  /// False if that takes longer than `timeout`.
  bool wait_starved(std::size_t workers,
                    std::chrono::milliseconds timeout = std::chrono::seconds(60)) {
    std::unique_lock lk(mu_);
    return cv_.wait_for(lk, timeout, [&] { return starved_ >= workers; });
  }

  /// Forwards every held frame and stops holding.
  void release() { released_ = true; }

 private:
  struct Pair {
    net::TcpConn worker, coordinator;
    std::deque<std::string> held;  // toward the worker, oldest first
    bool closed = false;
  };

  void loop() {
    std::vector<std::unique_ptr<Pair>> pairs;
    std::size_t results = 0;
    bool flushed = false;
    std::string payload;
    while (!stop_) {
      if (released_ && !flushed) {
        for (auto& p : pairs) {
          for (const std::string& f : p->held) send(*p, p->worker, f);
          p->held.clear();
        }
        flushed = true;
      }
      std::vector<int> fds{listener_.fd()};
      for (const auto& p : pairs) {
        fds.push_back(p->worker.fd());
        fds.push_back(p->coordinator.fd());
      }
      const std::vector<bool> ready = net::poll_readable(fds, 10);
      const std::size_t polled = pairs.size();
      for (std::size_t i = 0; i < polled; ++i) {
        Pair& p = *pairs[i];
        if (!p.closed && ready[1 + 2 * i] && receive(p, p.worker, payload)) {
          if (peek_type(payload, "gate") == MsgType::kResult) ++results;
          send(p, p.coordinator, payload);
        }
        if (!p.closed && ready[2 + 2 * i] && receive(p, p.coordinator, payload)) {
          const bool hold = !flushed && results >= hold_after_ &&
                            (!p.held.empty() || peek_type(payload, "gate") == MsgType::kAssign);
          if (hold) {
            p.held.push_back(payload);
          } else {
            send(p, p.worker, payload);
          }
        }
      }
      std::erase_if(pairs, [](const auto& p) { return p->closed; });
      if (ready[0]) {
        if (std::optional<net::TcpConn> c = listener_.accept(0)) {
          // A coordinator that is down (killed, not yet restarted) refuses:
          // the worker sees its connection close and retries, as it would.
          try {
            pairs.push_back(std::make_unique<Pair>(
                Pair{std::move(*c), net::TcpConn::connect("127.0.0.1", coordinator_port_), {}}));
          } catch (const IoError&) {
          }
        }
      }
      std::size_t starved = 0;
      for (const auto& p : pairs) starved += !p->held.empty();
      {
        std::lock_guard lk(mu_);
        starved_ = starved;
      }
      cv_.notify_all();
    }
  }

  // One frame from `from`; on EOF or a transport error the pair closes.
  static bool receive(Pair& p, net::TcpConn& from, std::string& payload) {
    try {
      if (net::recv_frame(from, payload)) return true;
    } catch (const IoError&) {
    }
    close(p);
    return false;
  }

  static void send(Pair& p, net::TcpConn& to, const std::string& payload) {
    if (p.closed) return;
    try {
      net::send_frame(to, payload);
    } catch (const IoError&) {
      close(p);
    }
  }

  static void close(Pair& p) {
    p.closed = true;
    p.held.clear();
    p.worker.close();
    p.coordinator.close();
  }

  const std::uint16_t coordinator_port_;
  net::TcpListener listener_;
  std::size_t hold_after_ = 0;
  std::atomic<bool> stop_{false}, released_{false};
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t starved_ = 0;
};

}  // namespace mlsim::dist
