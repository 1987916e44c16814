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

#include <cstdint>
#include <iostream>
#include <limits>
#include <optional>
#include <string>

#include "driver/grid.hpp"
#include "json/flat_json.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"

using namespace manytiers;

int main(int argc, char** argv) {
  driver::GridChoice choice;
  choice.grid = "smoke";
  cli::ObsFlags obs_flags;
  serve::ServerOptions options;
  std::optional<std::uint16_t> tcp_port;
  driver::ExperimentGrid grid;

  cli::Flags flags("manytiers_serve", "--socket PATH [options]",
                   "exit codes: 0 clean shutdown, 1 runtime failure, "
                   "2 usage error\n");
  choice.add_to(flags);
  flags
      .value("--socket", "PATH", "unix socket to listen on (required)",
             options.unix_path)
      .value("--tcp", "PORT",
             "also listen on 127.0.0.1:PORT (0 = kernel-assigned)", tcp_port)
      .value("--threads", "N", "calibration threads (default: all cores)",
             options.threads)
      .value("--max-connections", "N",
             "live-connection cap; extras get 'overloaded' (0 = off)",
             options.max_connections)
      .value("--max-inflight", "N",
             "concurrent request budget; excess is shed (0 = off)",
             options.max_inflight)
      .value("--shed-p99-us", "X",
             "shed while arrival-to-done p99 exceeds X us (0 = off)",
             cli::bounded(options.shed_p99_us, 0.0,
                          std::numeric_limits<double>::max()))
      .value("--request-deadline-ms", "N",
             "shed requests that queued longer than N ms (0 = off)",
             cli::millis(options.request_deadline_ms))
      .value("--idle-timeout-ms", "N",
             "reap connections silent for N ms (0 = off)",
             cli::millis(options.idle_timeout_ms))
      .value("--frame-timeout-ms", "N",
             "a started frame must complete within N ms (0 = off)",
             cli::millis(options.frame_timeout_ms))
      .value("--write-timeout-ms", "N",
             "give up on peers not reading for N ms (0 = off)",
             cli::millis(options.write_timeout_ms))
      .value("--drain-timeout-ms", "N",
             "SIGTERM drain budget before hard-close (default 5000)",
             cli::millis(options.drain_timeout_ms))
      .check([&] {
        if (options.unix_path.empty()) {
          throw std::invalid_argument("--socket: is required");
        }
        grid = choice.resolve();
      });
  obs_flags.add_to(flags);
  if (const auto code = flags.parse(argc, argv)) return *code;
  options.tcp_port = tcp_port ? *tcp_port : -1;

  cli::Observability observability(obs_flags, "manytiers_serve " + choice.grid);

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
    serve::Server server(grid, options);
    server.start();

    // Time-series stream: started after the server so the baseline tick
    // includes calibration-time metrics, stopped before the final
    // sidecar write so the last tick covers the drain.
    observability.start_series();

    // SERVE_JSON lines open with {"event":"<name>"; supervisors wait on
    // the ready line's opening bytes. endl: each line is flushed at once.
    const auto lifecycle = [](std::string_view event, const auto& fill) {
      std::string line = "SERVE_JSON ";
      json::Writer writer(line);
      fill(writer.field("event", event));
      std::cout << writer.close() << std::endl;
    };
    lifecycle("ready", [&](json::Writer& w) {
      w.field("grid", choice.grid)
          .field("socket", options.unix_path)
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
    observability.finish();
  } catch (const std::exception& err) {
    std::cerr << "manytiers_serve: " << err.what() << "\n";
    return 1;
  }
  return 0;
}
