// manytiers_top — live monitor for a manytiers_serve daemon.
//
//   manytiers_top --socket /tmp/mt.sock
//   manytiers_top --socket /tmp/mt.sock --interval-ms 500 --iterations 10
//   manytiers_top --socket /tmp/mt.sock --raw | jq .
//
// Polls the `stats` wire query at a fixed interval and renders a
// top-style live table: request rate, interval latency percentiles
// (p50/p99/p999 derived from the serve.latency_us.all histogram's
// bucket *deltas* between polls, so the numbers describe the last
// interval, not the process lifetime), in-flight requests, active
// connections, shed / deadline / overload counts, and the snapshot
// epoch. stats is never load-shed and answered during drain, so the
// view survives exactly the moments it matters — an overload storm or
// a reload/drain sequence.
//
// On a TTY the screen repaints in place; on a pipe each poll appends
// one line (watchable with tail -f). --raw skips rendering entirely
// and prints the raw stats response payload per poll, one JSON object
// per line, for scripting.
//
// Exit codes: 0 after --iterations polls (or SIGINT via the default
// handler), 1 when the daemon cannot be reached or answers garbage,
// 2 on usage errors.
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/registry.hpp"
#include "serve/client.hpp"
#include "util/cli.hpp"

namespace {

using namespace manytiers;

std::uint64_t counter_value(const serve::Response& r, std::string_view name) {
  for (const auto& [n, v] : r.stats_counters) {
    if (n == name) return v;
  }
  return 0;
}

const serve::StatsHist* find_hist(const serve::Response& r,
                                  std::string_view name) {
  for (const auto& h : r.stats_hists) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

// Interval view of a cumulative histogram: bucket deltas between two
// polls, clamped at zero (a daemon restart mid-watch resets counts).
obs::HistogramSnapshot hist_delta(const serve::StatsHist& now,
                                  const serve::StatsHist* before) {
  obs::HistogramSnapshot out;
  for (const auto& [b, n] : now.buckets) {
    std::uint64_t prev = 0;
    if (before != nullptr) {
      for (const auto& [pb, pn] : before->buckets) {
        if (pb == b) {
          prev = pn;
          break;
        }
      }
    }
    if (n > prev) {
      out.buckets.emplace_back(static_cast<std::size_t>(b), n - prev);
      out.count += n - prev;
    }
  }
  return out;
}

std::string fmt_us(double us) {
  char buf[32];
  if (us >= 1e6) {
    std::snprintf(buf, sizeof buf, "%.2fs", us / 1e6);
  } else if (us >= 1e3) {
    std::snprintf(buf, sizeof buf, "%.1fms", us / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.0fus", us);
  }
  return buf;
}

struct Row {
  std::string state;
  double rps = 0.0;
  double p50 = 0.0, p99 = 0.0, p999 = 0.0;
  std::uint64_t inflight = 0, conns = 0;
  std::uint64_t shed = 0, deadline = 0, overload = 0;
  std::uint64_t epoch = 0;
  std::uint64_t requests = 0;
};

Row make_row(const serve::Response& now, const serve::Response* prev) {
  Row row;
  row.state = now.state;
  row.inflight = now.inflight;
  row.conns = now.active_connections;
  row.shed = now.shed;
  row.deadline = counter_value(now, "serve.deadline_exceeded");
  row.overload = counter_value(now, "serve.shed.overloaded");
  row.epoch = now.epoch;
  row.requests = counter_value(now, "serve.requests");
  if (prev != nullptr && now.t_us > prev->t_us) {
    const std::uint64_t before = counter_value(*prev, "serve.requests");
    const double dt_s = static_cast<double>(now.t_us - prev->t_us) / 1e6;
    if (row.requests >= before) {
      row.rps = static_cast<double>(row.requests - before) / dt_s;
    }
  }
  if (const serve::StatsHist* all = find_hist(now, "serve.latency_us.all")) {
    const serve::StatsHist* all_before =
        prev != nullptr ? find_hist(*prev, "serve.latency_us.all") : nullptr;
    obs::HistogramSnapshot interval = hist_delta(*all, all_before);
    if (interval.count == 0 && all_before == nullptr) {
      // First poll: fall back to lifetime buckets so the table is never
      // blank while the first interval accrues.
      for (const auto& [b, n] : all->buckets) {
        interval.buckets.emplace_back(static_cast<std::size_t>(b), n);
        interval.count += n;
      }
    }
    row.p50 = obs::histogram_percentile(interval, 0.50);
    row.p99 = obs::histogram_percentile(interval, 0.99);
    row.p999 = obs::histogram_percentile(interval, 0.999);
  }
  return row;
}

void print_header(std::ostream& os) {
  os << "STATE       RPS      P50      P99     P999  INFL CONN     SHED "
        "DEADLN OVRLD EPOCH\n";
}

void print_row(std::ostream& os, const Row& row) {
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "%-9s %6.1f %8s %8s %8s %5llu %4llu %8llu %6llu %5llu %5llu",
                row.state.c_str(), row.rps, fmt_us(row.p50).c_str(),
                fmt_us(row.p99).c_str(), fmt_us(row.p999).c_str(),
                static_cast<unsigned long long>(row.inflight),
                static_cast<unsigned long long>(row.conns),
                static_cast<unsigned long long>(row.shed),
                static_cast<unsigned long long>(row.deadline),
                static_cast<unsigned long long>(row.overload),
                static_cast<unsigned long long>(row.epoch));
  os << buf << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  int interval_ms = 1000;
  std::size_t iterations = 0;
  int retry_ms = 0;
  bool raw = false;

  cli::Flags flags("manytiers_top", "--socket PATH [options]",
                   "exit codes: 0 clean, 1 daemon unreachable/unparseable, "
                   "2 usage\n");
  flags
      .value("--socket", "PATH", "the daemon's unix socket (required)",
             socket_path)
      .value("--interval-ms", "N", "poll cadence (default 1000)",
             cli::millis(interval_ms, 1))
      .value("--iterations", "N", "stop after N polls (default 0 = forever)",
             iterations)
      .value("--retry-ms", "N", "wait up to N ms for the daemon to bind",
             cli::millis(retry_ms))
      .toggle("--raw", "print raw stats JSON per poll, no table", raw)
      .check([&] {
        if (socket_path.empty()) {
          throw std::invalid_argument("--socket: is required");
        }
      });
  if (const auto code = flags.parse(argc, argv)) return *code;

  const bool tty = ::isatty(STDOUT_FILENO) == 1 && !raw;
  serve::Request request;
  request.kind = serve::QueryKind::Stats;
  std::optional<serve::Response> prev;
  std::size_t polls = 0;
  bool printed_header = false;

  try {
    // One persistent connection: stats answers ride outside the
    // admission machinery, so the monitor never competes with query
    // load for a connection slot more than once.
    serve::Client client =
        retry_ms > 0 ? serve::Client::connect_unix_retry(socket_path, retry_ms)
                     : serve::Client::connect_unix(socket_path);
    client.set_timeout_ms(30000);
    for (;;) {
      request.id = polls + 1;
      const std::string payload =
          client.call_raw(serve::serialize_request(request));
      const serve::Response response = serve::parse_response(payload);
      if (!response.ok) {
        std::cerr << "manytiers_top: daemon answered: " << response.error
                  << "\n";
        return 1;
      }
      if (raw) {
        std::cout << payload << std::endl;
      } else {
        const Row row = make_row(response, prev ? &*prev : nullptr);
        if (tty) {
          // Home + clear: repaint the whole two-line view in place.
          std::cout << "\x1b[H\x1b[2J";
          print_header(std::cout);
          print_row(std::cout, row);
          std::cout.flush();
        } else {
          if (!printed_header) {
            print_header(std::cout);
            printed_header = true;
          }
          print_row(std::cout, row);
          std::cout.flush();
        }
      }
      prev = response;
      ++polls;
      if (iterations > 0 && polls >= iterations) return 0;
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
  } catch (const std::exception& err) {
    std::cerr << "manytiers_top: " << err.what() << "\n";
    return 1;
  }
}
