// manytiers_serve — the pricing query daemon.
//
//   manytiers_serve --grid smoke --socket /tmp/mt.sock --metrics m.json
//   manytiers_serve --grid default --socket /tmp/mt.sock --tcp 0
//
// Loads and calibrates every market of a grid once at startup, then
// answers price / schedule / requote queries over the length-prefixed
// socket protocol until SIGTERM/SIGINT. A `reload` request recalibrates
// in the background and swaps the serving snapshot atomically; readers
// never block on it.
//
// SIGTERM drains gracefully: in-flight frames finish and flush, new
// connections get a typed "draining" refusal, and whatever has not
// finished within --drain-timeout-ms is hard-closed — the process
// always exits. SIGINT (interactive ^C) skips the drain and stops
// immediately. The admission/deadline knobs below all default off, so
// an unconfigured daemon behaves exactly as before.
//
// Lifecycle lines on stdout (SERVE_JSON, one object per line) mark
// readiness and shutdown so supervisors and tests can wait on them
// instead of polling the socket. Exit codes follow the repo contract:
// 0 success, 1 runtime failure, 2 usage error.
#include <signal.h>

#include <iostream>
#include <optional>
#include <string>

#include "driver/grid.hpp"
#include "json/flat_json.hpp"
#include "obs/registry.hpp"
#include "obs/snapshotter.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"
#include "util/file.hpp"

namespace {

using namespace manytiers;

int usage(std::ostream& os, int code) {
  os << "usage: manytiers_serve [options]\n"
        "  --grid NAME          grid to serve (default \"smoke\")\n"
        "  --list-grids         print known grid names and exit\n"
        "  --socket PATH        unix socket to listen on (required)\n"
        "  --tcp PORT           also listen on 127.0.0.1:PORT (0 = "
        "kernel-assigned)\n"
        "  --threads N          calibration threads (default: all cores)\n"
        "  --seed N             override the grid's dataset seed\n"
        "  --n-flows N          override the grid's flows per dataset\n"
        "  --max-bundles N      override the grid's maximum tier count\n"
        "  --metrics PATH       write an obs-registry metrics sidecar on "
        "shutdown\n"
        "  --metrics-interval-ms N  also stream delta snapshots every N ms\n"
        "                       to PATH-derived .series.json (needs "
        "--metrics)\n"
        "  --trace PATH         write a Chrome-trace-event JSON timeline\n"
        "  --max-connections N  live-connection cap; extras get a typed\n"
        "                       'overloaded' error frame (0 = unlimited)\n"
        "  --max-inflight N     concurrent request budget; excess requests\n"
        "                       are shed with code 'overloaded' (0 = off)\n"
        "  --shed-p99-us X      shed while measured arrival-to-done p99\n"
        "                       exceeds X microseconds (0 = off)\n"
        "  --request-deadline-ms N  shed (code 'deadline') requests that\n"
        "                       waited longer than N ms before work (0 = off)\n"
        "  --idle-timeout-ms N  reap connections silent for N ms (0 = off)\n"
        "  --frame-timeout-ms N slow-loris cutoff: a started frame must\n"
        "                       complete within N ms (0 = off)\n"
        "  --write-timeout-ms N give up on peers not reading responses\n"
        "                       after N ms (0 = off)\n"
        "  --drain-timeout-ms N SIGTERM drain budget before hard-close\n"
        "                       (default 5000)\n"
        "  --help               this text\n"
        "\n"
        "exit codes: 0 clean shutdown, 1 runtime failure, 2 usage error\n";
  return code;
}

// Millisecond flags: strict numbers, non-negative, within int.
int millis(const std::string& text, const std::string& flag) {
  const int value = json::parse_number<int>(text, flag);
  if (value < 0) throw std::invalid_argument(flag + ": must be >= 0");
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  std::string grid_name = "smoke";
  std::string socket_path;
  std::string metrics_path;
  double metrics_interval_ms = 0.0;
  std::string trace_path;
  int tcp_port = -1;
  std::size_t threads = 0;
  bool seed_given = false;
  std::uint64_t seed = 0;
  std::size_t n_flows = 0;
  std::size_t max_bundles = 0;
  serve::ServerOptions options;

  driver::ExperimentGrid grid;
  try {
    const auto next = [&](int& i) -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument(std::string(argv[i]) +
                                    " requires an argument");
      }
      return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        return usage(std::cout, 0);
      } else if (arg == "--list-grids") {
        for (const auto name : driver::grid_names()) {
          std::cout << name << "\n";
        }
        return 0;
      } else if (arg == "--grid") {
        grid_name = next(i);
      } else if (arg == "--socket") {
        socket_path = next(i);
      } else if (arg == "--tcp") {
        tcp_port = json::parse_number<int>(next(i), arg);
        if (tcp_port < 0 || tcp_port > 65535) {
          throw std::invalid_argument("--tcp: port must be in [0, 65535]");
        }
      } else if (arg == "--threads") {
        threads = json::parse_number<std::size_t>(next(i), arg);
      } else if (arg == "--seed") {
        seed = json::parse_number<std::uint64_t>(next(i), arg);
        seed_given = true;
      } else if (arg == "--n-flows") {
        n_flows = json::parse_number<std::size_t>(next(i), arg);
      } else if (arg == "--max-bundles") {
        max_bundles = json::parse_number<std::size_t>(next(i), arg);
      } else if (arg == "--metrics") {
        metrics_path = next(i);
      } else if (arg == "--metrics-interval-ms") {
        metrics_interval_ms = json::parse_number<double>(next(i), arg);
      } else if (arg == "--trace") {
        trace_path = next(i);
      } else if (arg == "--max-connections") {
        options.max_connections =
            json::parse_number<std::size_t>(next(i), arg);
      } else if (arg == "--max-inflight") {
        options.max_inflight = json::parse_number<std::size_t>(next(i), arg);
      } else if (arg == "--shed-p99-us") {
        options.shed_p99_us = json::parse_number<double>(next(i), arg);
      } else if (arg == "--request-deadline-ms") {
        options.request_deadline_ms = millis(next(i), arg);
      } else if (arg == "--idle-timeout-ms") {
        options.idle_timeout_ms = millis(next(i), arg);
      } else if (arg == "--frame-timeout-ms") {
        options.frame_timeout_ms = millis(next(i), arg);
      } else if (arg == "--write-timeout-ms") {
        options.write_timeout_ms = millis(next(i), arg);
      } else if (arg == "--drain-timeout-ms") {
        options.drain_timeout_ms = millis(next(i), arg);
      } else {
        std::cerr << "manytiers_serve: unknown flag " << arg << "\n";
        return usage(std::cerr, 2);
      }
    }
    if (socket_path.empty()) {
      std::cerr << "manytiers_serve: --socket is required\n";
      return usage(std::cerr, 2);
    }
    grid = driver::named_grid(grid_name);
    if (seed_given) grid.base.seed = seed;
    if (n_flows != 0) grid.base.n_flows = n_flows;
    if (max_bundles != 0) grid.max_bundles = max_bundles;
    if (metrics_interval_ms > 0.0 && metrics_path.empty()) {
      std::cerr << "manytiers_serve: --metrics-interval-ms requires "
                   "--metrics\n";
      return usage(std::cerr, 2);
    }
  } catch (const std::exception& err) {
    std::cerr << "manytiers_serve: " << err.what() << "\n";
    return 2;
  }

  if (!trace_path.empty()) {
    obs::Tracer::instance().start(trace_path);
  } else {
    obs::maybe_start_trace_from_env();
  }
  if (obs::Tracer::instance().active()) {
    obs::Tracer::instance().set_process_name("manytiers_serve " + grid_name);
  }
  if (!metrics_path.empty()) obs::set_enabled(true);

  // Block the shutdown signals in every thread (handlers and accept
  // loops inherit this mask), then take them synchronously via sigwait
  // below — no async-signal-safety dance, no self-pipe.
  sigset_t mask;
  sigemptyset(&mask);
  sigaddset(&mask, SIGTERM);
  sigaddset(&mask, SIGINT);
  if (pthread_sigmask(SIG_BLOCK, &mask, nullptr) != 0) {
    std::cerr << "manytiers_serve: pthread_sigmask failed\n";
    return 1;
  }

  try {
    options.unix_path = socket_path;
    options.tcp_port = tcp_port;
    options.threads = threads;
    serve::Server server(grid, options);
    server.start();

    // Time-series stream: started after the server so the baseline tick
    // includes calibration-time metrics, stopped before the final
    // sidecar write so the last tick covers the drain.
    std::optional<obs::PeriodicSnapshotter> snapshotter;
    if (metrics_interval_ms > 0.0) {
      snapshotter.emplace(obs::PeriodicSnapshotter::Options{
          obs::series_path_for(metrics_path), metrics_interval_ms});
      snapshotter->start();
    }

    // SERVE_JSON lines open with {"event":"<name>"; supervisors wait on
    // the ready line's opening bytes. endl: each line is flushed at once.
    const auto lifecycle = [](std::string_view event, const auto& fill) {
      std::string line = "SERVE_JSON ";
      json::Writer writer(line);
      fill(writer.field("event", event));
      std::cout << writer.close() << std::endl;
    };
    lifecycle("ready", [&](json::Writer& w) {
      w.field("grid", grid_name)
          .field("socket", socket_path)
          .field("markets", server.snapshot()->markets.size())
          .field("epoch", server.epoch());
      if (server.tcp_port() >= 0) w.field("tcp_port", server.tcp_port());
    });

    int sig = 0;
    while (sigwait(&mask, &sig) != 0) {
    }
    if (sig == SIGTERM) {
      lifecycle("draining", [&](json::Writer& w) {
        w.field("signal", sig)
            .field("active_connections", server.active_connections())
            .field("drain_timeout_ms", options.drain_timeout_ms);
      });
      server.drain();
      lifecycle("drained", [&](json::Writer& w) {
        w.field("shed", server.shed_total());
      });
    }
    lifecycle("shutdown", [&](json::Writer& w) {
      w.field("signal", sig).field("epoch", server.epoch());
    });
    server.stop();

    if (snapshotter) snapshotter->stop();
    if (!metrics_path.empty()) {
      util::write_file_durable(
          metrics_path,
          obs::snapshot_to_json(obs::Registry::instance().snapshot()));
    }
    obs::Tracer::instance().flush();
  } catch (const std::exception& err) {
    std::cerr << "manytiers_serve: " << err.what() << "\n";
    return 1;
  }
  return 0;
}
