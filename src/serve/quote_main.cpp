// manytiers_quote — one-shot client for the manytiers_serve daemon.
//
//   manytiers_quote --socket /tmp/mt.sock price
//       --market "EU ISP/ced/linear" --strategy Optimal --q 120 --d 800
//   manytiers_quote --socket /tmp/mt.sock schedule
//       --market "CDN/logit/linear" --strategy Profit-weighted --bundles 3
//   manytiers_quote --socket /tmp/mt.sock requote --market ...
//       --strategy ... --flow 7
//   manytiers_quote --socket /tmp/mt.sock reload --seed 43
//   manytiers_quote --socket /tmp/mt.sock --raw '{"id":1,...}'
//
// Prints the raw response payload on stdout (one JSON object — pipe it
// anywhere). --retry-ms waits for the daemon to bind its socket, which
// is the start-then-query idiom scripts need. --timeout-ms bounds every
// send/recv (default 30000, so a hung daemon can't wedge the client);
// code=="overloaded" errors are retried with exponential backoff
// (--overload-retries, fresh connection each attempt) because the
// server's shed answer is an explicit "come back later". Exit 0 on an
// ok response, 1 on a structured error or transport fault, 2 on usage
// errors.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <thread>

#include "serve/client.hpp"
#include "util/cli.hpp"

using namespace manytiers;

int main(int argc, char** argv) {
  std::string socket_path;
  std::string raw;
  int retry_ms = 0;
  int timeout_ms = 30000;
  std::size_t overload_retries = 0;
  serve::Request request;
  bool kind_given = false;

  cli::Flags flags(
      "manytiers_quote", "--socket PATH [options] KIND [args] | --raw JSON",
      "kinds:\n"
      "  price     --market K --strategy S --q MBPS --d MILES [--class N]\n"
      "            [--bundles N]\n"
      "  schedule  --market K --strategy S [--bundles N]\n"
      "  requote   --market K --strategy S --flow N [--bundles N]\n"
      "  reload    [--seed N] [--n-flows N] [--updates OPS]\n"
      "  health    lifecycle state and live gauges\n"
      "  stats     health plus the full metrics registry (never shed)\n"
      "--updates ops (netdyn wire format, joined with ';'): \"w,A,B,LEN\"\n"
      "reweigh, \"down,A,B\", \"up,A,B[,LEN[,CAP]]\", \"add,NAME,LAT,LON\",\n"
      "\"rm,NAME\"; the daemon rebuilds only the dirty markets.\n"
      "market keys are \"dataset/demand/cost\", e.g. \"EU ISP/ced/linear\".\n"
      "exit codes: 0 ok response, 1 error response or transport fault, "
      "2 usage error\n");
  flags
      .value("--socket", "PATH", "the daemon's unix socket (required)",
             socket_path)
      .value("--retry-ms", "N", "wait up to N ms for the daemon to bind",
             cli::millis(retry_ms))
      .value("--timeout-ms", "N",
             "bound each send/recv (default 30000; 0 = block forever)",
             cli::millis(timeout_ms))
      .value("--overload-retries", "N",
             "retry 'overloaded' answers with backoff (default 0)",
             overload_retries)
      .value("--raw", "JSON", "send JSON as the request payload", raw)
      .value("--market", "K", "market key", request.market)
      .value("--strategy", "S", "bundling strategy name", request.strategy)
      .value("--bundles", "N", "tier count (0 = the grid's maximum)",
             request.bundles)
      .value("--q", "MBPS", "price: the flow's demand", request.q)
      .value("--d", "MILES", "price: the flow's distance", request.d)
      .value("--class", "N", "price: the flow's cost class",
             request.cost_class)
      .value("--flow", "N", "requote: flow index in the market",
             request.flow)
      .value("--seed", "N", "reload: dataset seed override", request.seed)
      .value("--n-flows", "N", "reload: flows per dataset override",
             request.n_flows)
      .value("--updates", "OPS", "reload: topology update batch",
             request.updates)
      .positional([&](std::string_view kind) {
        request.kind = serve::parse_query_kind(kind);
        kind_given = true;
      })
      .check([&] {
        if (socket_path.empty()) {
          throw std::invalid_argument("--socket: is required");
        }
        if (raw.empty() && !kind_given) {
          throw std::invalid_argument("need a query kind or --raw");
        }
      });
  if (const auto code = flags.parse(argc, argv)) return *code;

  try {
    const std::string request_payload =
        raw.empty() ? serve::serialize_request(request) : raw;
    int backoff_ms = 50;
    for (std::size_t attempt = 0;; ++attempt) {
      // Fresh connection per attempt: an overloaded daemon may have
      // refused at the connection cap, so reusing the socket would just
      // replay the same refusal.
      serve::Client client =
          retry_ms > 0
              ? serve::Client::connect_unix_retry(socket_path, retry_ms)
              : serve::Client::connect_unix(socket_path);
      client.set_timeout_ms(timeout_ms);
      const std::string payload = client.call_raw(request_payload);
      const serve::Response response = serve::parse_response(payload);
      if (!response.ok && response.code == serve::kCodeOverloaded &&
          attempt < overload_retries) {
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
        backoff_ms = std::min(backoff_ms * 2, 2000);
        continue;
      }
      std::cout << payload << "\n";
      // A structured error is still a valid exchange; report it in the
      // exit code so scripts don't have to parse the payload.
      return response.ok ? 0 : 1;
    }
  } catch (const std::exception& err) {
    std::cerr << "manytiers_quote: " << err.what() << "\n";
    return 1;
  }
}
