// Overload gate for the manytiers_serve query daemon.
//
//   bench_serve_load --overload                    # the tools/check.sh gate
//   bench_serve_load --overload --socket S --overload-rate R
//
// One fixed offered rate of open-loop Poisson arrivals against a server
// armed with a request deadline. Arrival times are drawn up front from a
// seeded exponential process; each connection's sender fires every
// request at its scheduled instant whether or not earlier responses came
// back, and its receiver pairs the k-th response with the k-th arrival
// (the protocol answers pipelined frames in order) and classifies it as
// accepted or shed. Each rep runs warm-up / measure / cool-down phases:
// the warm-up lets buffers, arenas and the scheduler settle, the
// cool-down keeps pressure on while the last measured requests drain,
// and only measure-window responses are scored.
//
// The gated number is the server-side arrival-to-done p99 of the
// accepted requests, sampled as a running max over the run. The request
// deadline bounds it, so it is set by configuration, not by machine
// speed or by the sender's timer (whose wake-up jitter of tens of µs
// would swamp a sub-millisecond latency). That is what makes it
// comparable with the committed baseline (tools/bench_diff.py's p99
// gate). The client-observed percentiles are reported but informational:
// in a saturated open-loop run they grow with the measure window.
//
// The defaults are the gate's fixed configuration, run against an
// in-process server on a one-market grid. --socket points the load at an
// externally started daemon instead (its own deadline flags apply);
// running that at a few --overload-rate values and reading "shed %"
// finds the rate a host starts to shed at.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "obs/registry.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using manytiers::serve::Client;
using manytiers::serve::FrameReader;
using manytiers::serve::QueryKind;
using manytiers::serve::Request;
using manytiers::serve::Server;
using manytiers::serve::ServerOptions;
using Clock = std::chrono::steady_clock;

// Phase lengths of one rep, in seconds.
constexpr double kWarmupS = 0.2;
constexpr double kMeasureS = 0.8;
constexpr double kCooldownS = 0.1;

// Every arrival of a rep is planned in memory, and each connection runs
// two threads; these caps keep a typo from exhausting either.
constexpr double kMaxRate = 1e6;
constexpr std::size_t kMaxConnections = 1024;

struct Config {
  std::string socket;  // empty = spawn the in-process server
  std::string kind = "price";
  std::string market = "EU ISP/ced/linear";
  std::string strategy = "Profit-weighted";
  // Many moderate connections, not one firehose: a single pipelined
  // connection keeps its backlog in the socket buffers where the
  // server's arrival clock cannot see it (backpressure, not shedding, is
  // the control there). Contending connections put the queue inside the
  // server, which is the shape the deadline shedder exists for.
  std::size_t connections = 16;
  std::size_t reps = 2;
  std::uint64_t seed = 42;
  bool overload = false;
  // The gate's fixed offered rate: a configuration, not a multiple of a
  // capacity this repo measures. Whether it sheds depends on the host.
  double overload_rate = 350000.0;
  int overload_deadline_ms = 20;
};

// One phase-partitioned arrival schedule for one connection.
struct ConnPlan {
  std::vector<double> sched_us;    // scheduled arrival offsets from t0
  std::vector<double> done_us;     // completion offsets, filled by receiver
  std::size_t measure_begin = 0;   // [measure_begin, measure_end) is scored
  std::size_t measure_end = 0;
};

std::size_t share(std::size_t total, std::size_t conns, std::size_t c) {
  return total / conns + (c < total % conns ? 1 : 0);
}

// Draw the full warm-up + measure + cool-down arrival sequence for one
// connection: i.i.d. exponential gaps at rate/conns, so the aggregate
// across connections is a Poisson stream at the offered rate.
ConnPlan make_plan(const Config& cfg, std::size_t c) {
  const double rate = cfg.overload_rate;
  const auto count = [&](double seconds) {
    return share(std::size_t(rate * seconds + 0.5), cfg.connections, c);
  };
  const std::size_t warm = count(kWarmupS);
  const std::size_t meas = count(kMeasureS);
  const std::size_t cool = count(kCooldownS);

  ConnPlan plan;
  plan.measure_begin = warm;
  plan.measure_end = warm + meas;
  plan.sched_us.reserve(warm + meas + cool);
  std::mt19937_64 rng(cfg.seed ^ (0x9e3779b97f4a7c15ull * (c + 1)) ^
                      std::uint64_t(rate));
  std::exponential_distribution<double> gap(rate / double(cfg.connections) /
                                            1e6);  // per-µs rate
  double t = 0.0;
  for (std::size_t i = 0; i < warm + meas + cool; ++i) {
    t += gap(rng);
    plan.sched_us.push_back(t);
  }
  plan.done_us.assign(plan.sched_us.size(), 0.0);
  return plan;
}

// Pace the pre-encoded frame onto the socket at the scheduled instants.
// Everything already due goes out in one batched write — under load the
// sender is perpetually a hair behind schedule, so this is what turns
// per-request syscalls into a few large ones. When ahead of schedule it
// sleeps until the next arrival rather than spinning: a spinning sender
// on a shared core steals the very cycles the server needs.
void sender_loop(int fd, const std::string& frame, const ConnPlan& plan,
                 Clock::time_point t0) {
  std::string out;
  out.reserve(frame.size() * 64);
  std::size_t i = 0;
  const std::size_t n = plan.sched_us.size();
  while (i < n) {
    const auto target =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double, std::micro>(plan.sched_us[i]));
    auto now = Clock::now();
    if (target > now) {
      std::this_thread::sleep_until(target);
      now = Clock::now();
    }
    const double now_us =
        std::chrono::duration<double, std::micro>(now - t0).count();
    out.clear();
    do {
      out += frame;
      ++i;
    } while (i < n && plan.sched_us[i] <= now_us);
    manytiers::serve::write_all(fd, out);
  }
}

// Timestamp every completion and classify it as accepted ("ok":true) or
// shed. The scan is a substring probe, not a JSON parse —
// serialize_response emits the ok field exactly once — so the hot loop
// stays allocation-free.
void receiver_loop(int fd, ConnPlan& plan, std::vector<std::uint8_t>& accepted,
                   Clock::time_point t0) {
  FrameReader reader(fd);
  std::string payload;
  for (std::size_t k = 0; k < plan.done_us.size(); ++k) {
    if (reader.next(payload) != FrameReader::Status::Frame) {
      std::cerr << "server closed mid-run after " << k << " responses\n";
      std::exit(1);
    }
    plan.done_us[k] =
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
    accepted[k] = payload.find("\"ok\":true") != std::string::npos ? 1 : 0;
  }
}

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * double(sorted.size() - 1);
  const std::size_t lo = std::size_t(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (rank - double(lo)) * (sorted[hi] - sorted[lo]);
}

struct OverloadResult {
  double achieved = 0.0;    // responses (accepted + shed) per second
  std::size_t n = 0;        // measure-window responses
  std::size_t n_accepted = 0;
  double shed_rate = 0.0;   // shed fraction of measure-window responses
  double p50 = 0.0, p90 = 0.0, p99 = 0.0, p999 = 0.0, max = 0.0;  // accepted
  // Running max of the server's accepted-only arrival-to-done tail p99,
  // sampled throughout the run: the number the deadline bounds and the
  // baseline gate compares (see the file comment).
  double server_p99 = 0.0;
};

OverloadResult run_overload_once(const Config& cfg,
                                 const std::string& socket_path,
                                 const std::string& frame,
                                 const Server* server) {
  std::vector<ConnPlan> plans;
  std::vector<std::vector<std::uint8_t>> accepted;
  std::vector<Client> clients;
  for (std::size_t c = 0; c < cfg.connections; ++c) {
    plans.push_back(make_plan(cfg, c));
    accepted.emplace_back(plans.back().done_us.size(), 0);
    clients.push_back(Client::connect_unix(socket_path));
  }

  const auto t0 = Clock::now();
  // Track the worst served tail across the whole run, not a snapshot at
  // join time — by then the backlog may already have drained and the
  // last kWindow requests would read artificially fast.
  std::atomic<bool> sampling_done{false};
  double tail_max = 0.0;
  std::thread sampler;
  if (server != nullptr) {
    sampler = std::thread([&sampling_done, &tail_max, server] {
      while (!sampling_done.load(std::memory_order_relaxed)) {
        tail_max = std::max(tail_max, server->accepted_p99_us());
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
  }
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < cfg.connections; ++c) {
    threads.emplace_back(receiver_loop, clients[c].fd(), std::ref(plans[c]),
                         std::ref(accepted[c]), t0);
    threads.emplace_back(sender_loop, clients[c].fd(), std::cref(frame),
                         std::cref(plans[c]), t0);
  }
  for (auto& t : threads) t.join();
  sampling_done.store(true, std::memory_order_relaxed);
  if (sampler.joinable()) sampler.join();

  std::vector<double> ok_latencies;
  OverloadResult r;
  r.server_p99 = tail_max;
  double first_done = 1e300, last_done = 0.0;
  for (std::size_t c = 0; c < cfg.connections; ++c) {
    const auto& plan = plans[c];
    for (std::size_t k = plan.measure_begin; k < plan.measure_end; ++k) {
      ++r.n;
      first_done = std::min(first_done, plan.done_us[k]);
      last_done = std::max(last_done, plan.done_us[k]);
      if (accepted[c][k]) {
        ++r.n_accepted;
        ok_latencies.push_back(plan.done_us[k] - plan.sched_us[k]);
      }
    }
  }
  std::sort(ok_latencies.begin(), ok_latencies.end());
  const double span_us = last_done - first_done;
  r.achieved = span_us > 0.0 ? double(r.n) / span_us * 1e6 : 0.0;
  r.shed_rate = r.n > 0 ? double(r.n - r.n_accepted) / double(r.n) : 0.0;
  r.p50 = percentile(ok_latencies, 0.50);
  r.p90 = percentile(ok_latencies, 0.90);
  r.p99 = percentile(ok_latencies, 0.99);
  r.p999 = percentile(ok_latencies, 0.999);
  r.max = ok_latencies.empty() ? 0.0 : ok_latencies.back();
  return r;
}

// Repeat the run and keep the cleanest rep: on a shared box a neighbour
// grabbing the core for tens of milliseconds poisons one rep's tail
// with noise that has nothing to do with the server.
OverloadResult run_overload(const Config& cfg, const std::string& socket_path,
                            const std::string& frame, const Server* server) {
  OverloadResult best;
  for (std::size_t rep = 0; rep < cfg.reps; ++rep) {
    Config seeded = cfg;
    seeded.seed = cfg.seed + rep * 1000003;
    const OverloadResult r =
        run_overload_once(seeded, socket_path, frame, server);
    // Best-of-reps keys on the gated metric (server tail p99) when the
    // server is in-process; client p99 otherwise.
    const double key = server != nullptr ? r.server_p99 : r.p99;
    const double best_key = server != nullptr ? best.server_p99 : best.p99;
    if (rep == 0 || key < best_key) best = r;
  }
  return best;
}

std::string build_request_frame(const Config& cfg) {
  Request request;
  request.id = 1;
  request.market = cfg.market;
  request.strategy = cfg.strategy;
  request.kind = manytiers::serve::parse_query_kind(cfg.kind);
  if (request.kind == QueryKind::Price) {
    request.q = 50.0;
    request.d = 100.0;
  } else if (request.kind == QueryKind::Requote) {
    request.flow = 3;
  }
  return manytiers::serve::encode_frame(
      manytiers::serve::serialize_request(request));
}

// Side-channel stats watcher: one extra connection polling the `stats`
// wire query at 1 Hz while the load runs. stats rides the never-shed
// admin path, so the polls keep answering even when the measured
// queries are being deadline-shed — and the committed latency gate must
// not move with the watcher on (that is the point: watching the daemon
// is free). Every poll's raw payload is kept and re-emitted after the
// run as one BENCH_SERIES line per poll — a server-side time series
// right next to the BENCH_JSON record, which also gains the poll count.
class StatsWatcher {
 public:
  void start(const std::string& socket_path) {
    thread_ = std::thread([this, socket_path] {
      try {
        Client client = Client::connect_unix(socket_path);
        client.set_timeout_ms(30000);
        Request request;
        request.kind = QueryKind::Stats;
        for (;;) {
          request.id = payloads_.size() + 1;
          payloads_.push_back(
              client.call_raw(manytiers::serve::serialize_request(request)));
          // Sleep the second in short slices so stop() is prompt.
          for (int slice = 0; slice < 100; ++slice) {
            if (done_.load(std::memory_order_acquire)) return;
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
          }
        }
      } catch (const std::exception&) {
        // The watcher must never fail or skew the bench; a daemon
        // without the stats kind simply yields fewer (or zero) polls.
      }
    });
  }

  // Join and hand back the polled payloads (safe to read after join).
  std::vector<std::string> stop() {
    done_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
    return std::move(payloads_);
  }

 private:
  std::atomic<bool> done_{false};
  std::thread thread_;
  std::vector<std::string> payloads_;  // watcher thread only until join
};

// The in-process default target: one market, the serve test fixture's
// shape but at the smoke grid's flow count, so price queries exercise a
// realistic calibration without seconds of startup.
manytiers::driver::ExperimentGrid bench_grid() {
  manytiers::driver::ExperimentGrid grid;
  grid.name = "serve-bench";
  grid.datasets = {manytiers::workload::DatasetKind::EuIsp};
  grid.demand_kinds = {manytiers::demand::DemandKind::ConstantElasticity};
  grid.cost_kinds = {manytiers::driver::CostKind::Linear};
  grid.strategies = {manytiers::pricing::Strategy::ProfitWeighted};
  grid.max_bundles = 4;
  grid.base.n_flows = 50;
  return grid;
}

}  // namespace

int main(int argc, char** argv) {
  namespace cli = manytiers::cli;
  Config cfg;
  cli::Flags flags("bench_serve_load", "--overload [options]");
  flags
      .toggle("--overload", "run the overload regime (required)",
              cfg.overload)
      .value("--socket", "PATH",
             "load an external daemon (default: an in-process server)",
             cfg.socket)
      .value("--kind", "KIND", "price, schedule or requote (default price)",
             cfg.kind)
      .value("--market", "KEY", "market key (default \"" + cfg.market + "\")",
             cfg.market)
      .value("--strategy", "NAME",
             "strategy name (default " + cfg.strategy + ")", cfg.strategy)
      .value("--connections", "N", "contending connections (default 16)",
             cli::bounded(cfg.connections, 1, kMaxConnections))
      .value("--reps", "N", "repetitions, the best one kept (default 2)",
             cli::bounded(cfg.reps, 1,
                          std::numeric_limits<std::size_t>::max()))
      .value("--seed", "S", "arrival-process seed (default 42)", cfg.seed)
      .value("--overload-rate", "R", "offered req/s (default 350000)",
             cli::bounded(cfg.overload_rate, 1.0, kMaxRate))
      .value("--overload-deadline-ms", "N",
             "the in-process server's request deadline (default 20)",
             cli::millis(cfg.overload_deadline_ms, 1))
      .check([&] {
        if (!cfg.overload) {
          throw std::invalid_argument(
              "--overload: required; it names the one regime this bench "
              "runs");
        }
        if (cfg.kind != "price" && cfg.kind != "schedule" &&
            cfg.kind != "requote") {
          throw std::invalid_argument(
              "--kind: expected price, schedule or requote, got \"" +
              cfg.kind + "\"");
        }
      });
  if (const auto code = flags.parse(argc, argv)) return *code;

  manytiers::bench::header(
      "Serve load — overload regime (deadline shedding)",
      "One fixed offered rate against a deadline-armed server; shed rate "
      "plus the server-side arrival-to-done tail the deadline bounds.");

  // Target: an external daemon, or an in-process server on the default
  // one-market grid, armed with the request deadline the gated tail-p99
  // bound comes from.
  std::unique_ptr<Server> server;
  std::string socket_path = cfg.socket;
  if (socket_path.empty()) {
    socket_path = "/tmp/mt_bench_serve_" + std::to_string(::getpid()) + ".sock";
    ServerOptions options;
    options.unix_path = socket_path;
    options.request_deadline_ms = cfg.overload_deadline_ms;
    // The stats side-channel below reads this process's registry: turn
    // it on so the polled counters and histograms are live, the same
    // switch a standalone daemon flips when --metrics is given.
    manytiers::obs::set_enabled(true);
    server = std::make_unique<Server>(bench_grid(), options);
    server->start();
  }

  const std::string frame = build_request_frame(cfg);

  // Validate one exchange before the load so a bad market/strategy is a
  // clear error, not a run of structured failures.
  {
    Client probe = Client::connect_unix_retry(socket_path, 30000);
    const std::string payload = probe.call_raw(
        frame.substr(4));  // strip the length prefix back off
    const auto response = manytiers::serve::parse_response(payload);
    if (!response.ok) {
      std::cerr << "probe query failed: " << response.error << "\n";
      return 1;
    }
  }

  // 1 Hz stats polling for the whole run, warm-up through cool-down: the
  // measure windows are inside that span, so the gate below is measured
  // with the watcher live.
  StatsWatcher watcher;
  watcher.start(socket_path);

  const auto t0 = Clock::now();
  const OverloadResult r =
      run_overload(cfg, socket_path, frame, server.get());
  const double wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  const std::vector<std::string> polls = watcher.stop();
  // "p99_us" is the server-side arrival-to-done tail — the field
  // bench_diff.py hard-gates. The client-observed percentiles go out
  // under "client_*" keys (informational).
  manytiers::bench::emit_json([&](manytiers::json::Writer& record) {
    record.field("bench", "serve_load_overload")
        .field("n", r.n)
        .field("req_per_s", cfg.overload_rate)
        .field("achieved_per_s", r.achieved)
        .field("accepted", r.n_accepted)
        .field("shed_rate", r.shed_rate)
        .field("deadline_ms", cfg.overload_deadline_ms)
        .field("connections", cfg.connections)
        .field("p99_us", r.server_p99)
        .field("stats_polls", polls.size())
        .field("client_p50_us", r.p50)
        .field("client_p90_us", r.p90)
        .field("client_p99_us", r.p99)
        .field("client_p999_us", r.p999)
        .field("client_max_us", r.max)
        .field("wall_ms", wall_ms)
        .field("threads", cfg.connections);
  });
  for (const auto& payload : polls) {
    std::cout << "BENCH_SERIES " << payload << "\n";
  }
  manytiers::util::TextTable table({"req/s", "achieved", "n", "accepted",
                                    "shed %", "srv p99 us", "cli p99 us"});
  table.add_row(manytiers::util::format_double(cfg.overload_rate, 0),
                {r.achieved, double(r.n), double(r.n_accepted),
                 r.shed_rate * 100.0, r.server_p99, r.p99},
                1);
  std::cout << "\n";
  table.print(std::cout);
  if (server) server->stop();
  return 0;
}
