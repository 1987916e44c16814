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

#include "json/flat_json.hpp"
#include "serve/client.hpp"

namespace {

using namespace manytiers;

int usage(std::ostream& os, int code) {
  os << "usage: manytiers_quote --socket PATH [--retry-ms N] [--timeout-ms N]\n"
        "                       [--overload-retries N] KIND [args]\n"
        "       manytiers_quote --socket PATH --raw JSON\n"
        "kinds:\n"
        "  price     --market K --strategy S --q MBPS --d MILES\n"
        "            [--class N] [--bundles N]\n"
        "  schedule  --market K --strategy S [--bundles N]\n"
        "  requote   --market K --strategy S --flow N [--bundles N]\n"
        "  reload    [--seed N] [--n-flows N] [--updates OPS]\n"
        "  health    (no args — lifecycle state and live gauges)\n"
        "  stats     (no args — health plus the full metrics registry\n"
        "            with exact p50/p99/p999 per histogram; never shed)\n"
        "--timeout-ms bounds each send/recv syscall (default 30000; 0 =\n"
        "block forever); --overload-retries retries code=='overloaded'\n"
        "responses with exponential backoff (default 0 = report at once)\n"
        "--updates ships a topology batch (netdyn wire format, ops joined\n"
        "with ';'): \"w,A,B,LEN\" reweigh, \"down,A,B\" fail, \"up,A,B[,LEN\n"
        "[,CAP]]\" restore, \"add,NAME,LAT,LON\" / \"rm,NAME\" PoPs — the\n"
        "daemon applies it incrementally and rebuilds only dirty markets\n"
        "market keys are \"dataset/demand/cost\", e.g. \"EU ISP/ced/linear\";\n"
        "--bundles 0 (default) means the grid's maximum tier count\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::string raw;
  int retry_ms = 0;
  int timeout_ms = 30000;
  int overload_retries = 0;
  serve::Request request;
  bool kind_given = false;

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
      } else if (arg == "--socket") {
        socket_path = next(i);
      } else if (arg == "--retry-ms") {
        retry_ms = json::parse_number<int>(next(i), arg);
      } else if (arg == "--timeout-ms") {
        timeout_ms = json::parse_number<int>(next(i), arg);
      } else if (arg == "--overload-retries") {
        overload_retries = json::parse_number<int>(next(i), arg);
      } else if (arg == "--raw") {
        raw = next(i);
      } else if (arg == "--market") {
        request.market = next(i);
      } else if (arg == "--strategy") {
        request.strategy = next(i);
      } else if (arg == "--bundles") {
        request.bundles = json::parse_number<std::size_t>(next(i), arg);
      } else if (arg == "--q") {
        request.q = json::parse_number<double>(next(i), arg);
      } else if (arg == "--d") {
        request.d = json::parse_number<double>(next(i), arg);
      } else if (arg == "--class") {
        request.cost_class = json::parse_number<std::size_t>(next(i), arg);
      } else if (arg == "--flow") {
        request.flow = json::parse_number<std::size_t>(next(i), arg);
      } else if (arg == "--seed") {
        request.seed = json::parse_number<std::uint64_t>(next(i), arg);
      } else if (arg == "--n-flows") {
        request.n_flows = json::parse_number<std::size_t>(next(i), arg);
      } else if (arg == "--updates") {
        request.updates = next(i);
      } else if (!arg.empty() && arg[0] != '-') {
        request.kind = serve::parse_query_kind(arg);
        kind_given = true;
      } else {
        std::cerr << "manytiers_quote: unknown flag " << arg << "\n";
        return usage(std::cerr, 2);
      }
    }
    if (socket_path.empty()) {
      std::cerr << "manytiers_quote: --socket is required\n";
      return usage(std::cerr, 2);
    }
    if (raw.empty() && !kind_given) {
      std::cerr << "manytiers_quote: need a query kind or --raw\n";
      return usage(std::cerr, 2);
    }
  } catch (const std::exception& err) {
    std::cerr << "manytiers_quote: " << err.what() << "\n";
    return 2;
  }

  try {
    const std::string request_payload =
        raw.empty() ? serve::serialize_request(request) : raw;
    int backoff_ms = 50;
    for (int attempt = 0;; ++attempt) {
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
