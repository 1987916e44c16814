#include "serve/server.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <utility>

#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace manytiers::serve {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::system_error(errno, std::generic_category(), what);
}

int listen_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    throw std::invalid_argument("serve: unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("serve: socket(AF_UNIX)");
  // A previous daemon's socket file would make bind fail with EADDRINUSE;
  // a stale file is indistinguishable from a live one at this layer, so
  // the caller picks fresh paths and we just clear leftovers.
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("serve: bind(" + path + ")");
  }
  if (::listen(fd, 128) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("serve: listen(" + path + ")");
  }
  return fd;
}

int listen_tcp(int port, int* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("serve: socket(AF_INET)");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("serve: bind(tcp " + std::to_string(port) + ")");
  }
  if (::listen(fd, 128) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("serve: listen(tcp)");
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("serve: getsockname");
  }
  *bound_port = ntohs(addr.sin_port);
  return fd;
}

struct KindMetrics {
  obs::Counter* requests;
  obs::Histogram* latency;
};

// Per-kind counters/histograms, resolved once (handles are
// process-stable).
KindMetrics kind_metrics(QueryKind kind) {
  obs::Registry& registry = obs::Registry::instance();
  static KindMetrics table[] = {
      {&registry.counter("serve.requests.price"),
       &registry.histogram("serve.latency_us.price")},
      {&registry.counter("serve.requests.schedule"),
       &registry.histogram("serve.latency_us.schedule")},
      {&registry.counter("serve.requests.requote"),
       &registry.histogram("serve.latency_us.requote")},
      {&registry.counter("serve.requests.reload"),
       &registry.histogram("serve.latency_us.reload")},
      {&registry.counter("serve.requests.health"),
       &registry.histogram("serve.latency_us.health")},
      {&registry.counter("serve.requests.stats"),
       &registry.histogram("serve.latency_us.stats")},
  };
  return table[static_cast<std::size_t>(kind)];
}

void set_socket_timeout(int fd, int which, int ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  // Best-effort: a socket that refuses the option still works, it just
  // loses the corresponding cutoff.
  ::setsockopt(fd, SOL_SOCKET, which, &tv, sizeof tv);
}

double us_since(std::chrono::steady_clock::time_point from) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - from)
      .count();
}

}  // namespace

void TailTracker::record(double latency_us) {
  const std::uint64_t n = count_.fetch_add(1, std::memory_order_relaxed);
  ring_[n % kWindow].store(latency_us, std::memory_order_relaxed);
  if ((n + 1) % kRecompute != 0) return;
  // One recompute at a time; losers skip rather than wait (the next
  // kRecompute-th sample will try again).
  bool expected = false;
  if (!recomputing_.compare_exchange_strong(expected, true,
                                            std::memory_order_acquire)) {
    return;
  }
  const std::size_t filled =
      static_cast<std::size_t>(std::min<std::uint64_t>(n + 1, kWindow));
  std::array<double, kWindow> copy;
  for (std::size_t i = 0; i < filled; ++i) {
    copy[i] = ring_[i].load(std::memory_order_relaxed);
  }
  const std::size_t rank = (filled * 99) / 100;
  std::nth_element(copy.begin(), copy.begin() + rank, copy.begin() + filled);
  p99_us_.store(copy[rank], std::memory_order_relaxed);
  recomputing_.store(false, std::memory_order_release);
}

Server::Server(driver::ExperimentGrid grid, ServerOptions options)
    : grid_(std::move(grid)), options_(std::move(options)) {
  if (options_.unix_path.empty()) {
    throw std::invalid_argument("serve: unix socket path is required");
  }
}

Server::~Server() { stop(); }

void Server::start() {
  if (started_) throw std::logic_error("serve: start() called twice");
  SnapshotBuildOptions build;
  build.threads = options_.threads;
  build.epoch = 1;
  {
    const std::lock_guard<std::mutex> lock(snapshot_mutex_);
    snapshot_ = build_snapshot(grid_, build);
  }
  epoch_.store(1, std::memory_order_release);

  unix_fd_ = listen_unix(options_.unix_path);
  if (options_.tcp_port >= 0) {
    tcp_fd_ = listen_tcp(options_.tcp_port, &bound_tcp_port_);
  }
  started_ = true;
  accept_threads_.emplace_back([this] { accept_loop(unix_fd_); });
  if (tcp_fd_ >= 0) {
    accept_threads_.emplace_back([this] { accept_loop(tcp_fd_); });
  }
}

void Server::stop() {
  if (!started_ || stopping_.exchange(true)) return;
  // Closing the listener fds unblocks accept(); shutdown() on live
  // connection fds unblocks recv() in their handlers. Handlers own
  // nothing shared beyond the snapshot pointer, so after the joins the
  // teardown is complete.
  ::shutdown(unix_fd_, SHUT_RDWR);
  ::close(unix_fd_);
  if (tcp_fd_ >= 0) {
    ::shutdown(tcp_fd_, SHUT_RDWR);
    ::close(tcp_fd_);
  }
  {
    const std::lock_guard<std::mutex> lock(conns_mutex_);
    for (const auto& conn : conns_) ::shutdown(conn->fd, SHUT_RDWR);
  }
  for (auto& t : accept_threads_) t.join();
  accept_threads_.clear();
  // Second pass: a connection accepted concurrently with the flag flip
  // may have been registered after the shutdown loop above; with the
  // accept threads joined the table is now final.
  {
    const std::lock_guard<std::mutex> lock(conns_mutex_);
    for (const auto& conn : conns_) ::shutdown(conn->fd, SHUT_RDWR);
  }
  reap_finished(/*join_all=*/true);
  ::unlink(options_.unix_path.c_str());
  started_ = false;
}

void Server::drain() {
  const std::lock_guard<std::mutex> lock(drain_mutex_);
  if (drained_ || stopping_.load(std::memory_order_relaxed) || !started_) {
    drained_ = true;
    return;
  }
  draining_.store(true, std::memory_order_relaxed);
  // Half-close every live connection: SHUT_RD delivers whatever the peer
  // already sent, then EOF. The handler finishes every in-flight frame —
  // byte-identical answers, flushed through the still-open write side —
  // and exits cleanly at the EOF. The accept loops stay up so late
  // connections get a typed "draining" refusal instead of ECONNREFUSED.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(std::max(options_.drain_timeout_ms, 0));
  bool all_done = false;
  while (!all_done) {
    {
      // Re-run the half-close pass every iteration: a connection the
      // accept loop admitted concurrently with the flag flip shows up
      // here one tick later and is drained like the rest.
      const std::lock_guard<std::mutex> conns_lock(conns_mutex_);
      for (const auto& conn : conns_) ::shutdown(conn->fd, SHUT_RD);
    }
    reap_finished(/*join_all=*/false);
    {
      const std::lock_guard<std::mutex> conns_lock(conns_mutex_);
      all_done = conns_.empty();
    }
    if (all_done) break;
    if (std::chrono::steady_clock::now() >= deadline) {
      // Drain timeout: hard-close what's left. SHUT_RDWR wakes a handler
      // blocked in send() to a non-reading peer (EPIPE) as well as any
      // still mid-read, so the joins below cannot wedge.
      const std::lock_guard<std::mutex> conns_lock(conns_mutex_);
      for (const auto& conn : conns_) ::shutdown(conn->fd, SHUT_RDWR);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  reap_finished(/*join_all=*/true);
  drained_ = true;
}

void Server::reap_finished(bool join_all) {
  std::vector<std::unique_ptr<Conn>> finished;
  {
    const std::lock_guard<std::mutex> lock(conns_mutex_);
    auto keep = conns_.begin();
    for (auto& conn : conns_) {
      if (join_all || conn->done.load(std::memory_order_acquire)) {
        finished.push_back(std::move(conn));
      } else {
        *keep++ = std::move(conn);
      }
    }
    conns_.erase(keep, conns_.end());
  }
  for (auto& conn : finished) {
    conn->thread.join();
    // The handler never closes its own fd: closing only after the join
    // means no handler can ever race a reused descriptor number.
    ::close(conn->fd);
  }
}

void Server::apply_socket_timeouts(int fd) const {
  // The read limits need recv to surface EAGAIN periodically; the poll
  // granularity is a quarter of the tightest window, clamped to
  // [10 ms, 500 ms], so a cutoff overshoots by at most ~25%.
  int tightest = 0;
  for (const int w : {options_.idle_timeout_ms, options_.frame_timeout_ms}) {
    if (w > 0 && (tightest == 0 || w < tightest)) tightest = w;
  }
  if (tightest > 0) {
    set_socket_timeout(fd, SO_RCVTIMEO,
                       std::clamp(tightest / 4, 10, 500));
  }
  if (options_.write_timeout_ms > 0) {
    set_socket_timeout(fd, SO_SNDTIMEO, options_.write_timeout_ms);
  }
}

void Server::refuse_connection_overloaded(int fd) {
  static obs::Counter& refused =
      obs::Registry::instance().counter("serve.shed.connections");
  refused.add();
  shed_total_.fetch_add(1, std::memory_order_relaxed);
  try {
    // One typed error frame, then close: the peer learns *why* instead
    // of a silent RST. SO_SNDTIMEO is not armed on this fd, but a
    // just-accepted socket has an empty send buffer, so the write
    // cannot block.
    write_all(fd, encode_frame(error_payload(
                      0, epoch_.load(std::memory_order_relaxed),
                      kCodeOverloaded,
                      "server at --max-connections; retry with backoff")));
  } catch (const std::exception&) {
    // Peer vanished before reading its refusal; nothing owed.
  }
  ::close(fd);
}

void Server::refuse_connection_draining(int fd) {
  static obs::Counter& refused =
      obs::Registry::instance().counter("serve.shed.draining");
  refused.add();
  shed_total_.fetch_add(1, std::memory_order_relaxed);
  // Bounded single-frame read so a health probe still gets a state
  // answer during drain; anything else (including silence) gets the
  // typed refusal. 100 ms cap keeps the accept loop responsive and the
  // whole phase is bounded by drain_timeout_ms anyway.
  set_socket_timeout(fd, SO_RCVTIMEO, 25);
  FrameReader reader(fd);
  reader.set_limits({/*idle_timeout_ms=*/100, /*frame_timeout_ms=*/100});
  std::uint64_t id = 0;
  bool answer_health = false;
  bool answer_stats = false;
  try {
    std::string payload;
    if (reader.next(payload) == FrameReader::Status::Frame) {
      const Request request = parse_request(payload);
      id = request.id;
      answer_health = request.kind == QueryKind::Health;
      answer_stats = request.kind == QueryKind::Stats;
    }
  } catch (const std::exception&) {
    // Torn/absent frame: fall through to the plain refusal.
  }
  try {
    Request probe;
    probe.id = id;
    std::string answer;
    if (answer_stats) {
      // A live monitor keeps its view through the drain, same as a
      // supervisor's health probe.
      probe.kind = QueryKind::Stats;
      answer = handle_stats(probe);
    } else if (answer_health) {
      probe.kind = QueryKind::Health;
      answer = handle_health(probe);
    } else {
      answer = error_payload(id, epoch_.load(std::memory_order_relaxed),
                             kCodeDraining,
                             "server is draining; reconnect later");
    }
    write_all(fd, encode_frame(answer));
  } catch (const std::exception&) {
  }
  ::close(fd);
}

void Server::accept_loop(int listen_fd) {
  static obs::Counter& connections =
      obs::Registry::instance().counter("serve.connections");
  static obs::Gauge& active_gauge =
      obs::Registry::instance().gauge("serve.active_connections");
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // EBADF/EINVAL after stop() closed the listener: clean exit.
      break;
    }
    if (stopping_.load(std::memory_order_relaxed)) {
      ::close(fd);
      break;
    }
    if (draining_.load(std::memory_order_relaxed)) {
      refuse_connection_draining(fd);
      continue;
    }
    reap_finished(/*join_all=*/false);
    if (options_.max_connections > 0 &&
        live_conns_.load(std::memory_order_relaxed) >=
            options_.max_connections) {
      refuse_connection_overloaded(fd);
      continue;
    }
    apply_socket_timeouts(fd);
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    Conn* raw = conn.get();
    {
      // Publish and start under one lock: a drain/reap holding the
      // mutex must never see a Conn whose thread member is still being
      // move-assigned on this thread. The drain flag is re-checked here
      // because drain() sets it before its first pass over conns_: a
      // connection is either in that pass or refused below, never
      // admitted after drain() found the table empty (its final join
      // would then wait on a handler nobody half-closed).
      const std::lock_guard<std::mutex> lock(conns_mutex_);
      if (!draining_.load(std::memory_order_relaxed)) {
        connections.add();
        active_gauge.set(static_cast<std::int64_t>(
            live_conns_.fetch_add(1, std::memory_order_relaxed) + 1));
        conns_.push_back(std::move(conn));
        raw->thread = std::thread([this, raw] { handle_connection(raw); });
      }
    }
    if (conn) refuse_connection_draining(fd);
  }
}

void Server::handle_connection(Conn* conn) {
  static obs::Counter& protocol_errors =
      obs::Registry::instance().counter("serve.protocol_errors");
  static obs::Counter& idle_timeouts =
      obs::Registry::instance().counter("serve.timeout.idle");
  static obs::Counter& slow_timeouts =
      obs::Registry::instance().counter("serve.timeout.slow");
  static obs::Gauge& active_gauge =
      obs::Registry::instance().gauge("serve.active_connections");
  FrameReader reader(conn->fd);
  reader.set_limits(
      {options_.idle_timeout_ms, options_.frame_timeout_ms});
  std::string payload;
  std::string out;
  SnapCache cache;
  try {
    for (;;) {
      if (reader.next(payload) == FrameReader::Status::Eof) break;
      out.clear();  // keeps its capacity across iterations
      append_frame(out, handle_payload(payload, reader.last_fill(), cache));
      // Drain every request the client already pipelined before paying
      // for a write: under load this turns N round-trips into one
      // recv + one send.
      while (reader.buffered_frame()) {
        if (reader.next(payload) == FrameReader::Status::Eof) break;
        append_frame(out, handle_payload(payload, reader.last_fill(), cache));
      }
      write_all(conn->fd, out);
    }
  } catch (const FrameError& e) {
    switch (e.kind()) {
      case FrameError::Kind::BadLength:
        protocol_errors.add();
        // The stream still works in our direction; tell the client what
        // was wrong with its framing before hanging up.
        try {
          write_all(conn->fd, encode_frame(error_payload(
                                  0, epoch_.load(std::memory_order_relaxed),
                                  e.what())));
        } catch (const std::exception&) {
          // Peer is gone; the close below is all that's left.
        }
        break;
      case FrameError::Kind::Idle:
        // A parked or half-open peer: reaped quietly, not a protocol
        // fault — its slot goes back to the admission budget.
        idle_timeouts.add();
        break;
      case FrameError::Kind::SlowPeer:
        // Slow-loris writer failed the progress cutoff.
        slow_timeouts.add();
        break;
      case FrameError::Kind::TornPrefix:
      case FrameError::Kind::MidFrame:
        // The peer vanished mid-message; nothing to answer.
        protocol_errors.add();
        break;
    }
  } catch (const std::exception&) {
    // recv/send faults (ECONNRESET, EPIPE after shutdown, SO_SNDTIMEO
    // expiry on a peer that stopped reading): drop the connection. The
    // daemon itself never dies with a client.
    protocol_errors.add();
  }
  ::shutdown(conn->fd, SHUT_RDWR);
  active_gauge.set(static_cast<std::int64_t>(
      live_conns_.fetch_sub(1, std::memory_order_relaxed) - 1));
  conn->done.store(true, std::memory_order_release);
}

// nullopt = admitted. The caller has already counted this request into
// inflight_ (`inflight_now` includes it), so the budget check is exact
// even when handlers race.
std::optional<std::string> Server::admission_check(
    const Request& request, std::chrono::steady_clock::time_point arrival,
    std::size_t inflight_now) {
  static obs::Counter& deadline_exceeded =
      obs::Registry::instance().counter("serve.deadline_exceeded");
  static obs::Counter& shed_overloaded =
      obs::Registry::instance().counter("serve.shed.overloaded");
  const std::uint64_t epoch = epoch_.load(std::memory_order_relaxed);
  if (options_.request_deadline_ms > 0 &&
      us_since(arrival) > 1e3 * options_.request_deadline_ms) {
    // The request aged out in the queue before any work started: answer
    // cheaply so the backlog drains instead of compounding.
    deadline_exceeded.add();
    shed_total_.fetch_add(1, std::memory_order_relaxed);
    return error_payload(
        request.id, epoch, kCodeDeadline,
        "request waited past --request-deadline-ms " +
            std::to_string(options_.request_deadline_ms) + " before work");
  }
  const char* reason = nullptr;
  if (options_.max_inflight > 0 && inflight_now > options_.max_inflight) {
    reason = "in-flight budget --max-inflight exhausted";
  } else if (options_.shed_p99_us > 0.0 &&
             tail_.p99_us() > options_.shed_p99_us) {
    reason = "measured p99 over --shed-p99-us";
  }
  if (reason == nullptr) return std::nullopt;
  shed_overloaded.add();
  shed_total_.fetch_add(1, std::memory_order_relaxed);
  return error_payload(request.id, epoch, kCodeOverloaded,
                       std::string(reason) + "; retry with backoff");
}

std::string Server::handle_health(const Request& request) {
  const bool overloaded =
      (options_.max_connections > 0 &&
       live_conns_.load(std::memory_order_relaxed) >=
           options_.max_connections) ||
      (options_.max_inflight > 0 &&
       inflight_.load(std::memory_order_relaxed) >= options_.max_inflight) ||
      (options_.shed_p99_us > 0.0 && tail_.p99_us() > options_.shed_p99_us);
  Response response;
  response.id = request.id;
  response.ok = true;
  response.epoch = epoch_.load(std::memory_order_relaxed);
  response.kind = QueryKind::Health;
  response.state = draining_.load(std::memory_order_relaxed)
                       ? "draining"
                       : overloaded ? "overloaded" : "ready";
  response.active_connections =
      static_cast<std::uint64_t>(live_conns_.load(std::memory_order_relaxed));
  response.inflight =
      static_cast<std::uint64_t>(inflight_.load(std::memory_order_relaxed));
  response.shed = shed_total_.load(std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(snapshot_mutex_);
    if (snapshot_ != nullptr) response.markets = snapshot_->markets.size();
  }
  return serialize_response(response);
}

std::string Server::handle_stats(const Request& request) {
  // Health's answer plus the full registry fold: parse the health
  // fields the same way, then attach the snapshot. The registry fold is
  // the only extra cost, and stats shares health's never-shed path, so
  // a monitor polling at 1 Hz rides entirely outside the admission
  // machinery.
  Response response = parse_response(handle_health(request));
  response.kind = QueryKind::Stats;
  response.version = std::string(kProtocolVersion);
  const obs::Snapshot snap = obs::Registry::instance().snapshot();
  response.t_us = snap.t_us;
  response.stats_pid = snap.pid;
  response.stats_counters.reserve(snap.counters.size());
  for (const auto& [name, value] : snap.counters) {
    response.stats_counters.emplace_back(name, value);
  }
  response.stats_gauges.reserve(snap.gauges.size());
  for (const auto& [name, value] : snap.gauges) {
    response.stats_gauges.emplace_back(name, value);
  }
  response.stats_hists.reserve(snap.histograms.size());
  for (const auto& [name, h] : snap.histograms) {
    StatsHist out;
    out.name = name;
    out.count = h.count;
    out.sum = h.sum;
    out.p50 = obs::histogram_percentile(h, 0.50);
    out.p99 = obs::histogram_percentile(h, 0.99);
    out.p999 = obs::histogram_percentile(h, 0.999);
    out.buckets.reserve(h.buckets.size());
    for (const auto& [b, n] : h.buckets) {
      out.buckets.emplace_back(static_cast<std::uint64_t>(b), n);
    }
    response.stats_hists.push_back(std::move(out));
  }
  return serialize_response(response);
}

std::string Server::handle_payload(std::string_view payload,
                                   std::chrono::steady_clock::time_point
                                       arrival,
                                   SnapCache& cache) {
  static obs::Counter& requests =
      obs::Registry::instance().counter("serve.requests");
  static obs::Counter& errors =
      obs::Registry::instance().counter("serve.errors");
  static obs::Gauge& inflight_gauge =
      obs::Registry::instance().gauge("serve.inflight");
  requests.add();
  const auto start = std::chrono::steady_clock::now();
  Request request;
  try {
    request = parse_request(payload);
  } catch (const std::exception& e) {
    errors.add();
    return error_payload(0, epoch_.load(std::memory_order_relaxed), e.what());
  }
  std::string response;
  if (request.kind == QueryKind::Health ||
      request.kind == QueryKind::Stats) {
    // Health and stats are never shed and never queue-gated: a
    // saturated or draining daemon must still answer its supervisor —
    // and its monitor, which needs the stats view most exactly when the
    // daemon is overloaded.
    response = request.kind == QueryKind::Health ? handle_health(request)
                                                 : handle_stats(request);
  } else if (request.kind == QueryKind::Reload) {
    // Admin path: reload is not load-shed either — an operator fixing
    // an overload (say, reloading onto a cheaper snapshot) must not be
    // locked out by the very overload being fixed.
    try {
      response = handle_reload(request);
    } catch (const std::exception& e) {
      errors.add();
      response = error_payload(
          request.id, epoch_.load(std::memory_order_relaxed), e.what());
    }
  } else {
    const std::size_t inflight_now =
        inflight_.fetch_add(1, std::memory_order_relaxed) + 1;
    inflight_gauge.set(static_cast<std::int64_t>(inflight_now));
    if (auto refusal = admission_check(request, arrival, inflight_now)) {
      response = std::move(*refusal);
    } else {
      try {
        response = handle_request(request, cache);
      } catch (const std::exception& e) {
        errors.add();
        response = error_payload(
            request.id, epoch_.load(std::memory_order_relaxed), e.what());
      }
      // Accepted-only tail: bounded by the request deadline plus
      // service time, which makes it the gateable half of the story.
      accepted_tail_.record(us_since(arrival));
    }
    inflight_.fetch_sub(1, std::memory_order_relaxed);
    // Arrival-to-done sample for the p99 shedder — queue wait included,
    // shed requests included: while a backlog exists even cheap shed
    // answers carry its age, which is what holds the shedder open until
    // the queue actually drains (and lets it close after).
    tail_.record(us_since(arrival));
  }
  static obs::Histogram& latency_all =
      obs::Registry::instance().histogram("serve.latency_us.all");
  const KindMetrics metrics = kind_metrics(request.kind);
  const double handle_us = std::chrono::duration<double, std::micro>(
                               std::chrono::steady_clock::now() - start)
                               .count();
  metrics.requests->add();
  metrics.latency->record(handle_us);
  // One combined histogram across kinds: the single latency source a
  // live monitor derives its p50/p99/p999 from.
  latency_all.record(handle_us);
  return response;
}

// Revalidate the connection's cached snapshot: one acquire load of the
// epoch gate per request; only an actual swap pays the mutex (held just
// for the pointer copy — reloads build outside it).
const std::shared_ptr<const Snapshot>& Server::current_snapshot(
    SnapCache& cache) {
  const std::uint64_t epoch = epoch_.load(std::memory_order_acquire);
  if (cache.snap == nullptr || cache.epoch != epoch) {
    const std::lock_guard<std::mutex> lock(snapshot_mutex_);
    cache.snap = snapshot_;
    cache.epoch = cache.snap->epoch;
  }
  return cache.snap;
}

std::string Server::handle_request(const Request& request, SnapCache& cache) {
  // ONE snapshot revalidation; everything below answers from `snap`, so
  // the response is internally consistent even if a reload lands
  // mid-query.
  const std::shared_ptr<const Snapshot>& snap = current_snapshot(cache);

  const MarketEntry* market = snap->find_market(request.market);
  if (market == nullptr) {
    throw std::invalid_argument("unknown market \"" + request.market +
                                "\"; keys are \"dataset/demand/cost\"");
  }
  const auto strategy = strategy_from_name(request.strategy);
  if (!strategy) {
    throw std::invalid_argument("unknown strategy \"" + request.strategy +
                                "\"");
  }
  const auto slot = snap->strategy_slot(*strategy);
  if (!slot) {
    throw std::invalid_argument("strategy \"" + request.strategy +
                                "\" is not served by grid \"" +
                                snap->grid.name + "\"");
  }
  const std::size_t bundles =
      request.bundles == 0 ? snap->grid.max_bundles : request.bundles;
  if (bundles > snap->grid.max_bundles) {
    throw std::invalid_argument(
        "bundle count " + std::to_string(bundles) + " exceeds grid max " +
        std::to_string(snap->grid.max_bundles));
  }
  const Schedule& schedule = market->schedule(*slot, bundles);

  Response response;
  response.id = request.id;
  response.ok = true;
  response.epoch = snap->epoch;
  response.kind = request.kind;
  switch (request.kind) {
    case QueryKind::Price: {
      const Quote quote = price_flow(*market, schedule, request.q, request.d,
                                     request.cost_class);
      response.tier = quote.tier;
      response.price = quote.price;
      response.rel_cost = quote.rel_cost;
      break;
    }
    case QueryKind::Requote: {
      const Quote quote = requote_flow(*market, schedule, request.flow);
      response.tier = quote.tier;
      response.price = quote.price;
      response.rel_cost = quote.rel_cost;
      response.blended_price = market->market.blended_price();
      break;
    }
    case QueryKind::Schedule:
      response.capture = schedule.capture;
      response.tiers = schedule.tiers;
      break;
    case QueryKind::Reload:
    case QueryKind::Health:
    case QueryKind::Stats:
      throw std::logic_error("admin kind dispatched to handle_request");
  }
  return serialize_response(response);
}

std::string Server::handle_reload(const Request& request) {
  static obs::Counter& reloads =
      obs::Registry::instance().counter("serve.reloads");
  static obs::Counter& update_reloads =
      obs::Registry::instance().counter("serve.reloads_updates");
  // Serialize rebuilds: concurrent reloads would burn CPU calibrating
  // snapshots that immediately lose the swap. Readers are untouched —
  // they keep loading whatever pointer is current.
  const std::lock_guard<std::mutex> lock(reload_mutex_);

  std::shared_ptr<const Snapshot> next;
  std::size_t recalibrated = 0;
  const std::uint64_t next_epoch =
      epoch_.load(std::memory_order_relaxed) + 1;
  if (!request.updates.empty()) {
    // Incremental path: advance the dynamic network, derive the next
    // snapshot from the current one (dirty markets rebuilt, the rest
    // shared).
    if (request.seed || request.n_flows) {
      throw std::invalid_argument(
          "reload: updates cannot be combined with seed / n_flows "
          "overrides (the topology binding is tied to the served flows)");
    }
    if (!snapshot_from_base_) {
      throw std::invalid_argument(
          "reload: the serving snapshot was built with overridden base "
          "parameters; issue a plain reload first to return to the base "
          "flows, then apply updates");
    }
    const auto batch = netdyn::parse_updates(request.updates);
    if (dyn_ == nullptr) dyn_ = std::make_unique<DynamicState>(grid_);
    const obs::Span span("serve.reload");
    std::shared_ptr<const Snapshot> prev;
    {
      // Pointer copy only; the derive itself runs outside the mutex so
      // readers never block on a recalibration.
      const std::lock_guard<std::mutex> peek(snapshot_mutex_);
      prev = snapshot_;
    }
    DynamicState::Derived derived =
        dyn_->apply(*prev, batch, next_epoch, options_.threads);
    next = derived.snapshot;
    recalibrated = derived.recalibrated;
    update_reloads.add();
  } else {
    // Full rebuild: fresh flows make any dynamic topology state stale.
    dyn_.reset();
    snapshot_from_base_ = !request.seed && !request.n_flows;
    driver::ExperimentGrid grid = grid_;
    if (request.seed) grid.base.seed = *request.seed;
    if (request.n_flows) grid.base.n_flows = *request.n_flows;

    SnapshotBuildOptions build;
    build.threads = options_.threads;
    build.epoch = next_epoch;
    const obs::Span span("serve.reload");
    next = build_snapshot(grid, build);
    recalibrated = next->markets.size();
  }
  {
    const std::lock_guard<std::mutex> publish(snapshot_mutex_);
    snapshot_ = next;
  }
  // Pointer first, epoch second (release): a reader that sees the new
  // epoch is guaranteed to find the new pointer under the mutex.
  epoch_.store(next->epoch, std::memory_order_release);
  reloads.add();

  Response response;
  response.id = request.id;
  response.ok = true;
  response.epoch = next->epoch;
  response.kind = QueryKind::Reload;
  response.markets = next->markets.size();
  response.recalibrated = recalibrated;
  return serialize_response(response);
}

}  // namespace manytiers::serve
