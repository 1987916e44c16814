// serve-quotes and serve-reload: the manytiers_serve daemon as a child
// process (--grid costmodels --threads 1), driven over its Unix socket
// by closed-loop clients in this process, every answer checked.
//
// Both workloads pin the daemon and the load generator to a fixed CPU
// set (the last one or two allowed CPUs): unpinned, the scheduler's
// placement decided the tail (p99 43-426 us against 32.5-34 us pinned).
// Both close the loop — one request outstanding per connection — so the
// numbers are service time, not a timer's overshoot.
//
//  serve-quotes: one connection cycles a seeded pool of distinct
//    requests (70% price, 20% requote, 10% schedule over every market x
//    strategy x tier count). An op is one quote round trip.
//  serve-reload: the same read stream on one connection while an admin
//    connection sends `reload --updates` back to back from a seeded
//    sequence of Internet2 link events, each of which moves a served
//    distance (so every reload rebuilds the same 8 Internet2 markets).
//    An op is one reload round trip; reads are the concurrent quotes.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <filesystem>
#include <iostream>
#include <numeric>
#include <span>
#include <stdexcept>
#include <thread>

#include "harness.hpp"
#include "netdyn/dynamic_network.hpp"
#include "netdyn/flows.hpp"
#include "netdyn/update.hpp"
#include "obs/registry.hpp"
#include "pricing/counterfactual.hpp"
#include "pricing/engine.hpp"
#include "serve/client.hpp"
#include "serve/dynamic.hpp"
#include "serve/protocol.hpp"
#include "serve/snapshot.hpp"
#include "topology/internet2.hpp"
#include "workload/generators.hpp"

namespace perfbench {

namespace {

namespace driver = manytiers::driver;
namespace netdyn = manytiers::netdyn;
namespace pricing = manytiers::pricing;
namespace serve = manytiers::serve;
namespace workload = manytiers::workload;
using serve::QueryKind;

constexpr std::size_t kPoolSize = 8192;
constexpr std::size_t kSetupReps = 5;
constexpr int kReadyTimeoutMs = 60000;
// Nominal rates (4-vCPU x86 box) that size the fixed per-run work from
// --seconds: closed-loop quotes pinned to one CPU, and reloads with
// reads beside them on two.
constexpr double kQuoteRate = 45000.0;
constexpr double kReloadRate = 7.0;
// p90 needs at least 10 reloads beyond it.
constexpr std::size_t kMinReloads = 110;
// Traced runs are per-layer means, not tails: shorter windows.
constexpr std::size_t kTraceChunks = 16;  // passes over the pool per daemon
constexpr std::size_t kTraceReloads = 24;
constexpr std::size_t kTraceChunkReloads = 6;

// Seeded generator for the request pool and the update sequence
// (splitmix64: the same sequence on every platform).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() { return mix64(state_++); }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t state_;
};

driver::ExperimentGrid daemon_grid(std::uint64_t seed) {
  driver::ExperimentGrid grid = driver::costmodels_grid();
  grid.base.seed = 1 + mix64(seed ^ 0x5e7e5eedULL) % 1000000;
  return grid;
}

// --- The daemon under test ---------------------------------------------

class Daemon {
 public:
  Daemon(const Config& config, const std::string& socket,
         const driver::ExperimentGrid& grid, const std::vector<int>& cpus,
         const std::string& metrics_path = {}) {
    std::vector<std::string> args = {config.serve_bin, "--grid", grid.name,
                                     "--threads", "1",
                                     "--seed", std::to_string(grid.base.seed),
                                     "--socket", socket};
    if (!metrics_path.empty()) {
      args.push_back("--metrics");
      args.push_back(metrics_path);
    }
    int out[2];
    if (::pipe2(out, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
    spawned_ = Clock::now();
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      // Die with the harness, whatever kills it.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      pin_thread(cpus);
      ::dup2(out[1], STDOUT_FILENO);
      std::vector<char*> argv;
      for (auto& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(out[1]);
    out_fd_ = out[0];
    ::fcntl(out_fd_, F_SETFL, O_NONBLOCK);
  }
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (out_fd_ >= 0) ::close(out_fd_);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const { return pid_; }

  // Seconds from spawn to the SERVE_JSON ready line. Throws when the
  // daemon exits or stays silent instead.
  double wait_ready() {
    std::string text;
    const auto deadline = spawned_ + std::chrono::milliseconds(kReadyTimeoutMs);
    while (text.find("\"event\":\"ready\"") == std::string::npos) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      pollfd pfd{out_fd_, POLLIN, 0};
      if (left.count() <= 0 || ::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) {
        throw std::runtime_error("daemon never reported ready");
      }
      char buf[512];
      const ssize_t n = ::read(out_fd_, buf, sizeof buf);
      if (n == 0) throw std::runtime_error("daemon exited before ready");
      if (n > 0) text.append(buf, static_cast<std::size_t>(n));
    }
    return seconds_since(spawned_);
  }

  // SIGTERM drain, then reap; the daemon must exit cleanly.
  void stop() {
    ::kill(pid_, SIGTERM);
    int status = 0;
    const auto deadline = Clock::now() + std::chrono::seconds(20);
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (Clock::now() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      char buf[512];
      while (::read(out_fd_, buf, sizeof buf) > 0) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error("daemon did not shut down cleanly");
    }
  }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  Clock::time_point spawned_;
};

std::string socket_path(const Config& config, const char* tag, int k) {
  return config.rundir + "/" + tag + std::to_string(::getpid()) + "-" +
         std::to_string(k) + ".sock";
}

// Where a --metrics daemon writes its registry sidecar on shutdown; the
// benchmark reads the registry with stats queries and deletes the file.
std::string metrics_path(const Config& config) {
  return config.rundir + "/metrics-" + std::to_string(::getpid()) + ".json";
}

// Spawn kSetupReps daemons one after another, timing each from spawn to
// ready; all but the last are stopped again. Returns the last one.
std::unique_ptr<Daemon> start_daemons(const Config& config, const char* tag,
                                      const driver::ExperimentGrid& grid,
                                      const std::vector<int>& cpus,
                                      std::size_t reps,
                                      std::vector<double>& setup_times,
                                      std::string& socket) {
  std::unique_ptr<Daemon> daemon;
  for (std::size_t k = 0; k < reps; ++k) {
    if (daemon) daemon->stop();
    socket = socket_path(config, tag, static_cast<int>(k));
    daemon = std::make_unique<Daemon>(config, socket, grid, cpus);
    setup_times.push_back(daemon->wait_ready());
  }
  return daemon;
}

// --- Requests and their in-process answers -----------------------------

// One distinct request of the pool, its expected response (in-process,
// from build_snapshot + serialize_response) and whether its market is
// an Internet2 one, whose schedules reloads change.
struct Quote {
  std::string payload;
  std::string expected;
  QueryKind kind = QueryKind::Price;
  bool dynamic = false;
  std::string ok_prefix;  // {"id":N,"ok":true,"epoch":
  std::string kind_tag;   // ,"kind":"price"
};

// The reference answer: what Server::handle_request computes, from the
// same public snapshot calls.
serve::Response answer(const serve::Snapshot& snap, const serve::Request& req) {
  const serve::MarketEntry* market = snap.find_market(req.market);
  const auto slot = snap.strategy_slot(*serve::strategy_from_name(req.strategy));
  const serve::Schedule& schedule = market->schedule(*slot, req.bundles);
  serve::Response r;
  r.id = req.id;
  r.ok = true;
  r.epoch = snap.epoch;
  r.kind = req.kind;
  if (req.kind == QueryKind::Price || req.kind == QueryKind::Requote) {
    const serve::Quote q =
        req.kind == QueryKind::Price
            ? serve::price_flow(*market, schedule, req.q, req.d, req.cost_class)
            : serve::requote_flow(*market, schedule, req.flow);
    r.tier = q.tier;
    r.price = q.price;
    r.rel_cost = q.rel_cost;
    if (req.kind == QueryKind::Requote) {
      r.blended_price = market->market.blended_price();
    }
  } else {
    r.capture = schedule.capture;
    r.tiers = schedule.tiers;
  }
  return r;
}

// Byte equality of two responses except for the value of "epoch".
bool equal_ignoring_epoch(std::string_view got, std::string_view want) {
  constexpr std::string_view kTag = "\"epoch\":";
  const auto g = got.find(kTag), w = want.find(kTag);
  if (g == std::string_view::npos || g != w ||
      got.substr(0, g) != want.substr(0, w)) {
    return false;
  }
  const auto skip = [&](std::string_view s, std::size_t at) {
    at += kTag.size();
    while (at < s.size() && s[at] >= '0' && s[at] <= '9') ++at;
    return s.substr(at);
  };
  return skip(got, g) == skip(want, w);
}

bool check_quote(const Quote& quote, std::string_view got) {
  if (!quote.dynamic) return equal_ignoring_epoch(got, quote.expected);
  // Reloads change Internet2 schedules under the reader; those answers
  // must still be well-formed successes of the right kind.
  if (got.substr(0, quote.ok_prefix.size()) != quote.ok_prefix) return false;
  std::size_t at = quote.ok_prefix.size();
  while (at < got.size() && got[at] >= '0' && got[at] <= '9') ++at;
  return got.substr(at, quote.kind_tag.size()) == quote.kind_tag;
}

// `reloading`: Internet2 answers change under the stream and are only
// checked for shape.
std::vector<Quote> make_pool(const serve::Snapshot& snap, std::uint64_t seed,
                             bool reloading) {
  Rng rng(mix64(seed ^ 0x9001ULL));
  const auto& grid = snap.grid;
  const std::size_t n_strat = grid.strategies.size();
  const std::size_t n_cells = snap.markets.size() * n_strat * grid.max_bundles;
  std::vector<Quote> pool;
  pool.reserve(kPoolSize);
  for (std::size_t i = 0; i < kPoolSize; ++i) {
    // Cell-major cycling covers every market x strategy x tier count.
    const std::size_t cell = i % n_cells;
    const serve::MarketEntry& market = *snap.markets[cell / (n_strat * grid.max_bundles)];
    serve::Request req;
    req.id = i + 1;
    req.market = market.key;
    req.strategy = std::string(
        pricing::to_string(grid.strategies[(cell / grid.max_bundles) % n_strat]));
    req.bundles = cell % grid.max_bundles + 1;
    const double u = rng.uniform();
    if (u < 0.7) {
      req.kind = QueryKind::Price;
      req.q = std::exp(rng.uniform() * std::log(10000.0));  // 1 Mbps .. 10 Gbps
      req.d = rng.uniform() * 6000.0;
      switch (market.cost) {
        case driver::CostKind::Regional: req.cost_class = rng.below(3); break;
        case driver::CostKind::DestType: req.cost_class = rng.below(2); break;
        default: req.cost_class = 0;
      }
    } else if (u < 0.9) {
      req.kind = QueryKind::Requote;
      req.flow = rng.below(market.market.size());
    } else {
      req.kind = QueryKind::Schedule;
    }
    Quote quote;
    quote.payload = serve::serialize_request(req);
    quote.expected = serve::serialize_response(answer(snap, req));
    quote.kind = req.kind;
    quote.dynamic =
        reloading && market.dataset == workload::DatasetKind::Internet2;
    quote.ok_prefix = "{\"id\":" + std::to_string(req.id) + ",\"ok\":true,\"epoch\":";
    quote.kind_tag = ",\"kind\":\"" + std::string(serve::to_string(req.kind)) + "\"";
    pool.push_back(std::move(quote));
  }
  // Seeded Fisher-Yates: the stream interleaves kinds and markets.
  for (std::size_t i = pool.size() - 1; i > 0; --i) {
    std::swap(pool[i], pool[rng.below(i + 1)]);
  }
  return pool;
}

// A seeded sequence of single-event Internet2 batches (link down, link
// up, reweigh), each accepted only if it changes the distance of at
// least one served flow — replayed on a replica of the daemon's own
// dynamic state (same generator, seed and binding).
std::vector<std::vector<netdyn::NetworkUpdate>> make_updates(
    const driver::ExperimentGrid& grid, std::uint64_t seed, std::size_t count) {
  const auto backbone = manytiers::topology::internet2_network();
  netdyn::DynamicNetwork net(backbone);
  workload::TopologyBinding binding;
  workload::FlowSet flows = workload::generate_internet2(
      {.seed = grid.base.seed, .n_flows = grid.base.n_flows}, backbone,
      net.distances(), &binding);
  const netdyn::FlowRecoster recoster(std::move(binding));

  Rng rng(mix64(seed ^ 0x11d7ULL));
  const auto& links = backbone.links();
  std::vector<bool> down(links.size(), false);
  std::vector<std::vector<netdyn::NetworkUpdate>> out;
  for (std::size_t tries = 0; out.size() < count; ++tries) {
    if (tries > 100 * count) {
      throw std::runtime_error("no update moves a served distance");
    }
    const std::size_t l = rng.below(links.size());
    netdyn::NetworkUpdate update;
    update.a = backbone.pop(links[l].a).name;
    update.b = backbone.pop(links[l].b).name;
    if (down[l]) {
      update.kind = netdyn::NetworkUpdate::Kind::LinkUp;
    } else if (rng.uniform() < 0.5) {
      update.kind = netdyn::NetworkUpdate::Kind::LinkDown;
    } else {
      update.kind = netdyn::NetworkUpdate::Kind::LinkWeight;
      update.length_miles = links[l].length_miles * (0.6 + 1.8 * rng.uniform());
    }
    netdyn::DynamicNetwork trial = net;
    workload::FlowSet trial_flows = flows;
    const netdyn::DistanceDelta delta = trial.apply(update);
    if (recoster.recost(trial_flows, delta, trial.distances()) == 0) continue;
    net = std::move(trial);
    flows = std::move(trial_flows);
    if (update.kind == netdyn::NetworkUpdate::Kind::LinkDown) down[l] = true;
    if (update.kind == netdyn::NetworkUpdate::Kind::LinkUp) down[l] = false;
    out.push_back({update});
  }
  return out;
}

std::string reload_payload(std::uint64_t id,
                           const std::vector<netdyn::NetworkUpdate>& batch) {
  serve::Request req;
  req.id = id;
  req.kind = QueryKind::Reload;
  req.updates = netdyn::serialize(batch);
  return serve::serialize_request(req);
}

// --- Closed-loop clients ------------------------------------------------

struct Stream {
  std::vector<double> rtt_us;
  std::vector<QueryKind> kinds;
  std::uint64_t failed = 0;
  double client_cpu_s = 0.0;
};

// Send every distinct request once (untimed): the daemon's caches and
// the connection warm up, and each distinct answer is checked.
std::uint64_t warm_up(serve::Client& client, const std::vector<Quote>& pool) {
  std::uint64_t failed = 0;
  for (const auto& quote : pool) {
    if (!check_quote(quote, client.call_raw(quote.payload))) ++failed;
  }
  return failed;
}

// One request outstanding; `ops` requests, or until `stop` is set when
// ops is 0.
void quote_loop(serve::Client& client, const std::vector<Quote>& pool,
                std::size_t ops, const std::atomic<bool>* stop, Stream& out) {
  const double cpu_start = thread_cpu_s();
  for (std::size_t i = 0; ops == 0 ? !stop->load(std::memory_order_relaxed) : i < ops;
       ++i) {
    const Quote& quote = pool[i % pool.size()];
    const auto start = Clock::now();
    const std::string got = client.call_raw(quote.payload);
    out.rtt_us.push_back(seconds_since(start) * 1e6);
    out.kinds.push_back(quote.kind);
    if (!check_quote(quote, got)) ++out.failed;
  }
  out.client_cpu_s += thread_cpu_s() - cpu_start;
}

std::string kind_counts(const std::vector<QueryKind>& kinds, std::size_t from = 0,
                        const std::vector<std::size_t>* order = nullptr) {
  std::size_t n[3] = {0, 0, 0};
  for (std::size_t r = from; r < kinds.size(); ++r) {
    const QueryKind k = kinds[order ? (*order)[r] : r];
    ++n[k == QueryKind::Price ? 0 : k == QueryKind::Requote ? 1 : 2];
  }
  return json_object({{"price", std::to_string(n[0])},
                      {"requote", std::to_string(n[1])},
                      {"schedule", std::to_string(n[2])}});
}

// Report a quote-latency percentile with the class of the sample at its
// rank and the kind split of the samples beyond it.
void report_quote_percentile(RunResult& result, const std::string& name,
                             const Stream& s, const std::vector<std::size_t>& order,
                             double q) {
  std::vector<double> sorted;
  sorted.reserve(order.size());
  for (const std::size_t i : order) sorted.push_back(s.rtt_us[i]);
  const Percentile p = percentile(sorted, q);
  report_percentile(
      result, name, p,
      json_object({{"sample", json_string(std::string(serve::to_string(
                                  s.kinds[order[p.rank - 1]])))},
                   {"beyond", kind_counts(s.kinds, p.rank, &order)},
                   {"all", kind_counts(s.kinds)}}));
}

std::vector<std::size_t> latency_order(const std::vector<double>& rtt) {
  std::vector<std::size_t> order(rtt.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return rtt[a] < rtt[b]; });
  return order;
}

// Summed (count, sum, buckets) of the named daemon histograms, from one
// stats query.
struct HistTotal {
  std::uint64_t count = 0;
  double sum = 0.0;
  std::map<std::size_t, std::uint64_t> buckets;
};

HistTotal stats_hist(serve::Client& admin, const std::vector<std::string>& names) {
  serve::Request req;
  req.id = 1;
  req.kind = QueryKind::Stats;
  const serve::Response resp = admin.call(req);
  if (!resp.ok) throw std::runtime_error("stats query failed: " + resp.error);
  HistTotal total;
  for (const auto& h : resp.stats_hists) {
    if (std::find(names.begin(), names.end(), h.name) == names.end()) continue;
    total.count += h.count;
    total.sum += h.sum;
    for (const auto& [b, n] : h.buckets) total.buckets[b] += n;
  }
  return total;
}

// Mean and p99 (log2-bucket resolution) of what was recorded between
// two stats snapshots.
std::pair<double, double> hist_delta(const HistTotal& before, const HistTotal& after) {
  manytiers::obs::HistogramSnapshot h;
  h.count = after.count - before.count;
  h.sum = after.sum - before.sum;
  for (const auto& [b, n] : after.buckets) {
    const auto it = before.buckets.find(b);
    const std::uint64_t d = n - (it == before.buckets.end() ? 0 : it->second);
    if (d != 0) h.buckets.emplace_back(b, d);
  }
  return {h.count == 0 ? 0.0 : h.sum / static_cast<double>(h.count),
          manytiers::obs::histogram_percentile(h, 0.99)};
}

const std::vector<std::string> kReadHists = {
    "serve.latency_us.price", "serve.latency_us.requote",
    "serve.latency_us.schedule"};

// --- serve-quotes --------------------------------------------------------

// The in-process replay of a request stream, one public call at a time.
struct QuoteSpans {
  double parse = 0, lookup = 0, quote = 0, relcost = 0, serialize = 0,
         frame = 0, bytes = 0, wall = 0, check = 0;
  std::uint64_t mismatches = 0;
};

QuoteSpans replay_quotes(const serve::Snapshot& snap,
                         const std::vector<Quote>& pool, std::size_t ops) {
  QuoteSpans s;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < ops; ++i) {
    const Quote& quote = pool[i % pool.size()];
    const serve::Request req =
        timed(s.parse, [&] { return serve::parse_request(quote.payload); });
    const auto cell = timed(s.lookup, [&] {
      const serve::MarketEntry* m = snap.find_market(req.market);
      const auto slot = snap.strategy_slot(*serve::strategy_from_name(req.strategy));
      return std::make_pair(m, &m->schedule(*slot, req.bundles));
    });
    const serve::MarketEntry* market = cell.first;
    const serve::Schedule* schedule = cell.second;
    serve::Response r;
    r.id = req.id;
    r.ok = true;
    r.epoch = snap.epoch;
    r.kind = req.kind;
    timed(s.quote, [&] {
      if (req.kind == QueryKind::Schedule) {
        r.capture = schedule->capture;
        r.tiers = schedule->tiers;
        return;
      }
      const serve::Quote q =
          req.kind == QueryKind::Price
              ? serve::price_flow(*market, *schedule, req.q, req.d, req.cost_class)
              : serve::requote_flow(*market, *schedule, req.flow);
      r.tier = q.tier;
      r.price = q.price;
      r.rel_cost = q.rel_cost;
      if (req.kind == QueryKind::Requote) {
        r.blended_price = market->market.blended_price();
      }
    });
    if (req.kind == QueryKind::Price) {
      // price_flow's child call, timed on its own (not part of the sum).
      timed(s.relcost, [&] {
        return serve::query_relative_cost(*market, req.q, req.d, req.cost_class);
      });
    }
    const std::string payload =
        timed(s.serialize, [&] { return serve::serialize_response(r); });
    const std::string frame = timed(s.frame, [&] { return serve::encode_frame(payload); });
    s.bytes += static_cast<double>(payload.size());
    if (i < pool.size()) {
      timed(s.check, [&] {
        if (!equal_ignoring_epoch(payload, quote.expected)) ++s.mismatches;
      });
    }
  }
  // The answer check is the benchmark's work, not the program's.
  s.wall = seconds_since(start) - s.check;
  return s;
}

}  // namespace

void run_serve_quotes(const Config& config, RunResult& result) {
  std::filesystem::create_directories(config.rundir);
  const driver::ExperimentGrid grid = daemon_grid(config.seed);
  const auto snap = serve::build_snapshot(grid, {.threads = 1});
  const std::vector<Quote> pool = make_pool(*snap, config.seed, false);
  const std::vector<int> cpus = pinned_set(1);
  const std::vector<int> all = allowed_cpus();
  result.details["daemon_seed"] = std::to_string(grid.base.seed);
  result.details["pinned_cpus"] = cpus_json(cpus);
  result.details["distinct_requests"] = std::to_string(pool.size());

  if (!config.trace) {
    const std::size_t ops = static_cast<std::size_t>(
        std::llround(config.seconds * kQuoteRate));
    std::vector<double> setup_times;
    std::string socket;
    auto daemon = start_daemons(config, "q", grid, cpus, kSetupReps,
                                setup_times, socket);
    pin_thread(cpus);
    Stream stream;
    double wall = 0.0, cpu = 0.0;
    std::uint64_t warm_failed = 0;
    {
      serve::Client client = serve::Client::connect_unix(socket);
      warm_failed = warm_up(client, pool);
      const double cpu_start = proc_cpu_s(daemon->pid());
      const auto start = Clock::now();
      quote_loop(client, pool, ops, nullptr, stream);
      wall = seconds_since(start);
      cpu = proc_cpu_s(daemon->pid()) - cpu_start;
    }
    const double rss = proc_peak_rss_mb(daemon->pid());
    daemon->stop();
    pin_thread(all);

    result.attempted = pool.size() + stream.rtt_us.size();
    result.failed = warm_failed + stream.failed;
    result.metric("setup_s", median(setup_times), "s", setup_times.size());
    const std::size_t n = stream.rtt_us.size();
    result.metric("wall_s", wall, "s", n);
    result.metric("cpu_s", cpu, "s", n);
    result.metric("peak_rss_mb", rss, "MiB");
    result.metric("ops_per_s", static_cast<double>(n) / wall, "1/s", n);
    const auto order = latency_order(stream.rtt_us);
    // Every op here is a read: read_* and op_* describe one stream.
    report_quote_percentile(result, "op_p50_us", stream, order, 0.50);
    report_quote_percentile(result, "op_p90_us", stream, order, 0.90);
    report_quote_percentile(result, "read_p50_us", stream, order, 0.50);
    report_quote_percentile(result, "read_tail_us", stream, order, 0.99);
    result.details["client_cpu_s"] = json_number(stream.client_cpu_s);
    return;
  }

  // Traced run. A plain daemon and one started with --metrics serve the
  // same stream in alternating chunks, so the trace overhead compares
  // like periods of a shared machine; the --metrics daemon's per-kind
  // handle-time histograms and /proc counters bracket its chunks. Then
  // the stream is replayed in-process.
  const std::size_t ops = kTraceChunks * pool.size();
  std::vector<double> setup_times;
  std::string plain_socket;
  auto plain = start_daemons(config, "q", grid, cpus, 1, setup_times, plain_socket);
  const std::string traced_socket = socket_path(config, "t", 0);
  const std::string sidecar = metrics_path(config);
  Daemon daemon(config, traced_socket, grid, cpus, sidecar);
  daemon.wait_ready();
  pin_thread(cpus);
  Stream untraced, traced;
  HistTotal before, after;
  double daemon_cpu = 0.0;
  std::uint64_t ctx = 0;
  {
    serve::Client plain_client = serve::Client::connect_unix(plain_socket);
    serve::Client client = serve::Client::connect_unix(traced_socket);
    serve::Client admin = serve::Client::connect_unix(traced_socket);
    result.failed += warm_up(plain_client, pool) + warm_up(client, pool);
    before = stats_hist(admin, kReadHists);
    const double cpu_start = proc_cpu_s(daemon.pid());
    const std::uint64_t ctx_start = proc_ctx_switches(daemon.pid());
    for (std::size_t chunk = 0; chunk < kTraceChunks; ++chunk) {
      quote_loop(plain_client, pool, pool.size(), nullptr, untraced);
      quote_loop(client, pool, pool.size(), nullptr, traced);
    }
    daemon_cpu = proc_cpu_s(daemon.pid()) - cpu_start;
    ctx = proc_ctx_switches(daemon.pid()) - ctx_start;
    after = stats_hist(admin, kReadHists);
  }
  plain->stop();
  daemon.stop();
  std::filesystem::remove(sidecar);
  pin_thread(all);
  result.failed += untraced.failed + traced.failed;
  result.attempted = 2 * pool.size() + 2 * ops;

  const auto [handle_us, handle_p99] = hist_delta(before, after);
  if (after.count - before.count != ops) {
    result.error("daemon recorded " + std::to_string(after.count - before.count) +
                 " quotes, sent " + std::to_string(ops));
  }
  const QuoteSpans spans = replay_quotes(*snap, pool, ops);
  result.attempted += pool.size();
  result.failed += spans.mismatches;

  const double n = static_cast<double>(ops);
  const double rtt = mean(traced.rtt_us);
  const auto per_op = [&](double s) { return s / n * 1e6; };
  result.metric("serve.rtt_us", rtt, "us");
  result.metric("serve.parse_us", per_op(spans.parse), "us");
  result.metric("serve.lookup_us", per_op(spans.lookup), "us");
  result.metric("serve.quote_us", per_op(spans.quote), "us");
  result.metric("serve.relcost_us", per_op(spans.relcost), "us");
  result.metric("serve.serialize_us", per_op(spans.serialize), "us");
  result.metric("serve.frame_us", per_op(spans.frame), "us");
  result.metric("serve.response_bytes", spans.bytes / n, "bytes");
  result.metric("serve.handle_us", handle_us, "us");
  result.metric("serve.handle_p99_us", handle_p99, "us");
  result.metric("serve.transport_us", rtt - handle_us, "us");
  result.metric("serve.ctx_switches_per_op", static_cast<double>(ctx) / n, "count");
  result.metric("serve.cpu_us_per_op", daemon_cpu / n * 1e6, "us");
  result.metric("serve.client_cpu_us_per_op", traced.client_cpu_s / n * 1e6, "us");
  result.metric("bench.trace_overhead_frac",
                median(traced.rtt_us) / median(untraced.rtt_us) - 1.0, "ratio");
  const double named = spans.parse + spans.lookup + spans.quote + spans.serialize +
                       spans.frame;
  result.metric("bench.unattributed_frac", (spans.wall - named) / spans.wall, "ratio");
}

// --- serve-reload --------------------------------------------------------

namespace {

struct ReloadWindow {
  Stream reads;
  std::vector<double> reload_us;
  std::uint64_t failed = 0;
  double wall = 0.0;
  double daemon_cpu = 0.0;
};

// The reload storm: reads on one connection, `batches` reloads back to
// back on another, both threads pinned to `cpus`. Every reload must
// answer ok having rebuilt `expected_rebuilt` markets.
void reload_storm(pid_t daemon, const std::string& socket,
                  const std::vector<Quote>& pool,
                  std::span<const std::vector<netdyn::NetworkUpdate>> batches,
                  std::size_t expected_rebuilt, const std::vector<int>& cpus,
                  serve::Client& admin, ReloadWindow& w) {
  serve::Client reader = serve::Client::connect_unix(socket);
  w.failed += warm_up(reader, pool);
  std::atomic<bool> stop{false};
  std::exception_ptr read_error;
  const double cpu_start = proc_cpu_s(daemon);
  const auto start = Clock::now();
  std::thread read_thread([&] {
    try {
      pin_thread(cpus);
      quote_loop(reader, pool, 0, &stop, w.reads);
    } catch (...) {
      read_error = std::current_exception();
    }
  });
  std::exception_ptr admin_error;
  try {
    for (std::size_t i = 0; i < batches.size(); ++i) {
      const std::string payload = reload_payload(1000000 + i, batches[i]);
      const auto t = Clock::now();
      const std::string got = admin.call_raw(payload);
      w.reload_us.push_back(seconds_since(t) * 1e6);
      const serve::Response resp = serve::parse_response(got);
      if (!resp.ok || resp.recalibrated != expected_rebuilt) {
        ++w.failed;
        std::cerr << "perfbench: reload " << i << " answered " << got << "\n";
      }
    }
  } catch (...) {
    admin_error = std::current_exception();
  }
  w.wall += seconds_since(start);
  stop = true;
  read_thread.join();
  if (admin_error) std::rethrow_exception(admin_error);
  if (read_error) std::rethrow_exception(read_error);
  w.daemon_cpu += proc_cpu_s(daemon) - cpu_start;
  w.failed += w.reads.failed;
}

// After the storm every cell's schedule must equal an in-process
// DynamicState replay of the same sequence, applied as one batch: the
// net network state, and so every re-costed flow, is the same. Returns
// the number of cells checked and of cells that differ.
std::pair<std::size_t, std::size_t> check_schedules(
    serve::Client& admin, const driver::ExperimentGrid& grid,
    const serve::Snapshot& start,
    const std::vector<std::vector<netdyn::NetworkUpdate>>& batches) {
  serve::DynamicState replay(grid);
  std::vector<netdyn::NetworkUpdate> all;
  for (const auto& b : batches) all.insert(all.end(), b.begin(), b.end());
  const auto expected = replay.apply(start, all, batches.size() + 1, 1).snapshot;
  std::size_t cells = 0, bad = 0;
  for (const auto& market : expected->markets) {
    for (const auto strategy : grid.strategies) {
      for (std::size_t b = 1; b <= grid.max_bundles; ++b, ++cells) {
        serve::Request req;
        req.id = 2000000 + cells;
        req.kind = QueryKind::Schedule;
        req.market = market->key;
        req.strategy = std::string(pricing::to_string(strategy));
        req.bundles = b;
        const std::string want = serve::serialize_response(answer(*expected, req));
        if (!equal_ignoring_epoch(admin.call_raw(serve::serialize_request(req)),
                                  want)) {
          ++bad;
        }
      }
    }
  }
  return {cells, bad};
}

// The in-process replay of an update sequence: what the daemon's
// updates reload does, one public call at a time, then the same market
// rebuilds split into their pricing and bundling calls. Totals.
struct ReloadSpans {
  double apply = 0, recost = 0, rebuild = 0, wall = 0;
  double calibrate = 0, optimal = 0, heuristic = 0, price = 0;
  std::size_t changed_pairs = 0, recosted = 0, markets_rebuilt = 0;
};

ReloadSpans replay_reloads(
    const driver::ExperimentGrid& grid,
    const std::vector<std::vector<netdyn::NetworkUpdate>>& batches) {
  // The daemon's dynamic state: Internet2 flows bound to the backbone.
  const auto backbone = manytiers::topology::internet2_network();
  netdyn::DynamicNetwork net(backbone);
  const auto i2 = static_cast<std::size_t>(
      std::find(grid.datasets.begin(), grid.datasets.end(),
                workload::DatasetKind::Internet2) -
      grid.datasets.begin());
  workload::TopologyBinding binding;
  workload::FlowSet flows = workload::generate_internet2(
      {.seed = grid.base.seed, .n_flows = grid.base.n_flows}, backbone,
      net.distances(), &binding);
  const netdyn::FlowRecoster recoster(std::move(binding));

  ReloadSpans s;
  for (const auto& batch : batches) {
    const auto start = Clock::now();
    const netdyn::DistanceDelta delta = timed(s.apply, [&] { return net.apply(batch); });
    s.changed_pairs += delta.changed.size();
    s.recosted += timed(s.recost, [&] {
      return recoster.recost(flows, delta, net.distances());
    });
    for (std::size_t dem = 0; dem < grid.demand_kinds.size(); ++dem) {
      for (std::size_t cost = 0; cost < grid.cost_kinds.size(); ++cost) {
        timed(s.rebuild, [&] {
          (void)serve::build_market_entry(grid, flows, i2, dem, cost);
        });
        ++s.markets_rebuilt;
      }
    }
    s.wall += seconds_since(start);
    for (const auto demand : grid.demand_kinds) {
      for (const auto cost : grid.cost_kinds) {
        pricing::DemandSpec spec;
        spec.kind = demand;
        spec.alpha = grid.base.alpha;
        spec.no_purchase_share = grid.base.s0;
        const auto model = driver::make_cost_model(cost, grid.base.theta);
        const pricing::Market market = timed(s.calibrate, [&] {
          return pricing::Market::calibrate(flows, spec, *model,
                                            grid.base.blended_price);
        });
        for (const auto strategy : grid.strategies) {
          const auto series = timed(
              strategy == pricing::Strategy::Optimal ? s.optimal : s.heuristic,
              [&] { return pricing::bundling_series(market, strategy, grid.max_bundles); });
          for (const auto& bundling : series) {
            timed(s.price, [&] { (void)pricing::price_bundles(market, bundling); });
          }
        }
      }
    }
  }
  return s;
}

}  // namespace

void run_serve_reload(const Config& config, RunResult& result) {
  std::filesystem::create_directories(config.rundir);
  const driver::ExperimentGrid grid = daemon_grid(config.seed);
  const auto snap = serve::build_snapshot(grid, {.threads = 1});
  const std::vector<Quote> pool = make_pool(*snap, config.seed, true);
  const std::vector<int> cpus = pinned_set(2);
  const std::vector<int> all = allowed_cpus();
  // Every batch moves an Internet2 distance: all of that dataset's
  // (demand, cost) markets rebuild.
  const std::size_t rebuilt = grid.demand_kinds.size() * grid.cost_kinds.size();
  result.details["daemon_seed"] = std::to_string(grid.base.seed);
  result.details["pinned_cpus"] = cpus_json(cpus);
  result.details["distinct_requests"] = std::to_string(pool.size());
  result.details["markets_per_reload"] = std::to_string(rebuilt);

  if (!config.trace) {
    const std::size_t reloads = std::max(
        kMinReloads,
        static_cast<std::size_t>(std::llround(config.seconds * kReloadRate)));
    const auto batches = make_updates(grid, config.seed, reloads);
    std::vector<double> setup_times;
    std::string socket;
    auto daemon = start_daemons(config, "r", grid, cpus, kSetupReps,
                                setup_times, socket);
    pin_thread(cpus);
    ReloadWindow w;
    std::pair<std::size_t, std::size_t> cells;
    {
      serve::Client admin = serve::Client::connect_unix(socket);
      reload_storm(daemon->pid(), socket, pool, batches, rebuilt, cpus, admin, w);
      cells = check_schedules(admin, grid, *snap, batches);
    }
    const double rss = proc_peak_rss_mb(daemon->pid());
    daemon->stop();
    pin_thread(all);
    if (cells.second != 0) {
      result.error(std::to_string(cells.second) +
                   " schedules differ from the in-process replay after the storm");
    }
    result.attempted =
        pool.size() + w.reads.rtt_us.size() + w.reload_us.size() + cells.first;
    result.failed = w.failed + cells.second;

    result.metric("setup_s", median(setup_times), "s", setup_times.size());
    const std::size_t n = w.reload_us.size();
    result.metric("wall_s", w.wall, "s", n);
    result.metric("cpu_s", w.daemon_cpu, "s", n);
    result.metric("peak_rss_mb", rss, "MiB");
    result.metric("ops_per_s", static_cast<double>(n) / w.wall, "1/s", n);
    std::vector<double> sorted = w.reload_us;
    std::sort(sorted.begin(), sorted.end());
    const std::string reload_classes = json_object(
        {{"dirty_markets_per_reload", std::to_string(rebuilt)},
         {"reloads", std::to_string(sorted.size())}});
    report_percentile(result, "op_p50_us", percentile(sorted, 0.50), reload_classes);
    report_percentile(result, "op_p90_us", percentile(sorted, 0.90), reload_classes);
    const auto order = latency_order(w.reads.rtt_us);
    report_quote_percentile(result, "read_p50_us", w.reads, order, 0.50);
    report_quote_percentile(result, "read_tail_us", w.reads, order, 0.99);
    result.details["schedules_checked"] = std::to_string(cells.first);
    return;
  }

  // Traced run: a plain daemon and one started with --metrics take the
  // same update sequence in alternating chunks (each with the read
  // stream beside it), so the trace overhead compares like periods; the
  // second's histograms give reload and read handle times. Then the
  // sequence is replayed in-process.
  const auto batches = make_updates(grid, config.seed, kTraceReloads);
  std::vector<double> setup_times;
  std::string plain_socket;
  auto plain = start_daemons(config, "r", grid, cpus, 1, setup_times, plain_socket);
  const std::string traced_socket = socket_path(config, "t", 0);
  const std::string sidecar = metrics_path(config);
  Daemon daemon(config, traced_socket, grid, cpus, sidecar);
  daemon.wait_ready();
  pin_thread(cpus);
  ReloadWindow untraced, traced;
  HistTotal reload_before, reload_after, read_before, read_after;
  {
    serve::Client plain_admin = serve::Client::connect_unix(plain_socket);
    serve::Client admin = serve::Client::connect_unix(traced_socket);
    reload_before = stats_hist(admin, {"serve.latency_us.reload"});
    read_before = stats_hist(admin, kReadHists);
    const std::span<const std::vector<netdyn::NetworkUpdate>> all_batches(batches);
    for (std::size_t at = 0; at < batches.size(); at += kTraceChunkReloads) {
      const auto chunk = all_batches.subspan(
          at, std::min(kTraceChunkReloads, batches.size() - at));
      reload_storm(plain->pid(), plain_socket, pool, chunk, rebuilt, cpus,
                   plain_admin, untraced);
      reload_storm(daemon.pid(), traced_socket, pool, chunk, rebuilt, cpus, admin,
                   traced);
    }
    reload_after = stats_hist(admin, {"serve.latency_us.reload"});
    read_after = stats_hist(admin, kReadHists);
  }
  plain->stop();
  daemon.stop();
  std::filesystem::remove(sidecar);
  pin_thread(all);
  const std::size_t chunks =
      (batches.size() + kTraceChunkReloads - 1) / kTraceChunkReloads;
  result.attempted = 2 * (chunks * pool.size() + batches.size()) +
                     untraced.reads.rtt_us.size() + traced.reads.rtt_us.size();
  result.failed = untraced.failed + traced.failed;

  const ReloadSpans s = replay_reloads(grid, batches);
  if (s.markets_rebuilt != rebuilt * batches.size()) {
    result.error("replay rebuilt an unexpected number of markets");
  }
  const double n = static_cast<double>(batches.size());
  const auto per_reload_us = [&](double total_s) { return total_s / n * 1e6; };
  const auto [read_handle, read_p99] = hist_delta(read_before, read_after);
  result.metric("netdyn.apply_us", per_reload_us(s.apply), "us");
  result.metric("netdyn.changed_pairs", static_cast<double>(s.changed_pairs) / n, "count");
  result.metric("netdyn.recost_us", per_reload_us(s.recost), "us");
  result.metric("netdyn.recosted_flows", static_cast<double>(s.recosted) / n, "count");
  result.metric("serve.rebuild_us", per_reload_us(s.rebuild), "us");
  result.metric("serve.markets_rebuilt", static_cast<double>(s.markets_rebuilt) / n,
                "count");
  result.metric("bundling.optimal_us", per_reload_us(s.optimal), "us");
  result.metric("bundling.heuristic_us", per_reload_us(s.heuristic), "us");
  result.metric("pricing.calibrate_us", per_reload_us(s.calibrate), "us");
  result.metric("pricing.price_us", per_reload_us(s.price), "us");
  result.metric("serve.reload_handle_us", hist_delta(reload_before, reload_after).first,
                "us");
  result.metric("serve.reload_rtt_us", mean(traced.reload_us), "us");
  result.metric("serve.read_handle_us", read_handle, "us");
  result.metric("serve.read_handle_p99_us", read_p99, "us");
  result.metric("bench.trace_overhead_frac",
                median(traced.reload_us) / median(untraced.reload_us) - 1.0, "ratio");
  result.metric("bench.unattributed_frac",
                (s.wall - s.apply - s.recost - s.rebuild) / s.wall, "ratio");
}

}  // namespace perfbench
