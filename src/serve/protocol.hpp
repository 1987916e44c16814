// Wire protocol of the manytiers_serve query daemon.
//
// Framing: every message (both directions) is a length-prefixed frame —
// a 4-byte little-endian payload length followed by that many bytes of
// UTF-8 JSON, one object per frame. The prefix makes message boundaries
// explicit on a stream socket, so a reader never scans payload bytes
// for a terminator; the kMaxFrame cap turns a garbage prefix (random
// bytes, a length from a confused client) into a structured protocol
// error instead of an unbounded allocation.
//
// Requests are flat JSON objects; responses are flat except for the
// schedule query's tier array and the stats lists. Both are written and
// read with the flat_json codec: field order is free, unknown fields are
// skipped, a garbled field is an error, and every double round-trips
// exactly — the determinism test byte-compares serve responses against
// batch-driver output.
//
// Query kinds:
//   price    — quote a new (q, d, class) flow under a market/strategy/
//              bundle-count tier schedule
//   schedule — the full tier schedule of one grid cell (prices, relative
//              cost ranges, member counts, capture)
//   requote  — re-quote an existing customer flow's bundle assignment
//   reload   — admin: recalibrate (optionally with overridden base
//              parameters) and swap the serving snapshot; the response
//              carries the new epoch
//   health   — admin: the server's lifecycle state (ready / draining /
//              overloaded) plus live gauges (active connections,
//              in-flight requests, total shed). Never load-shed, so a
//              supervisor can always probe a saturated daemon.
//   stats    — admin (v1.2, additive): everything health reports PLUS
//              the full obs::Registry snapshot (counters, gauges,
//              histograms with exact bucket counts) and derived exact
//              percentiles (p50/p99/p999 at log-bucket resolution) per
//              histogram. Never load-shed and answered during drain,
//              like health — this is what manytiers_top polls. The
//              response carries a "version" tag ("1.2"); pre-v1.2
//              clients never issue stats, and every pre-existing kind's
//              wire shape is untouched, so old clients still parse.
//
// Every response carries the snapshot epoch it was answered from, so a
// client (and the snapshot-swap concurrency test) can pin any answer to
// exactly one calibration.
//
// Error frames (v1.1, additive): every error response carries a stable
// "code" token alongside the human-readable "error" message, so clients
// branch on the token instead of string-matching messages. The tokens
// are part of the protocol contract (round-trip-tested):
//   overloaded  — admission control shed the request (or refused the
//                 connection) because the server is past its budget;
//                 retry later with backoff
//   deadline    — the request sat queued past --request-deadline-ms
//                 before work started; it was never executed
//   draining    — the server is shutting down; reconnect elsewhere
//   bad_request — malformed or unanswerable request (parse failure,
//                 unknown market/strategy, ...); do not retry
// Frames from pre-v1.1 servers simply lack the field; parse_response
// leaves `code` empty.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace manytiers::serve {

// Hard payload cap: larger prefixes are rejected as a protocol error
// before any allocation. Far above any real request or response.
inline constexpr std::uint32_t kMaxFrame = 1u << 20;

enum class QueryKind { Price, Schedule, Requote, Reload, Health, Stats };

// The version tag stats responses carry (the protocol's own version).
inline constexpr std::string_view kProtocolVersion = "1.2";

// The stable error-code tokens (see the protocol note above).
inline constexpr std::string_view kCodeOverloaded = "overloaded";
inline constexpr std::string_view kCodeDeadline = "deadline";
inline constexpr std::string_view kCodeDraining = "draining";
inline constexpr std::string_view kCodeBadRequest = "bad_request";

std::string_view to_string(QueryKind kind);
// Throws std::invalid_argument on an unknown kind name.
QueryKind parse_query_kind(std::string_view name);

struct Request {
  std::uint64_t id = 0;
  QueryKind kind = QueryKind::Schedule;
  // price / schedule / requote: which cell to answer from.
  std::string market;    // "dataset/demand/cost", e.g. "EU ISP/ced/linear"
  std::string strategy;  // strategy display name, e.g. "Optimal"
  std::size_t bundles = 0;  // tier count; 0 = the grid's max_bundles
  // price: the flow to quote.
  double q = 0.0;              // demand, Mbps
  double d = 0.0;              // distance, miles
  std::size_t cost_class = 0;  // cost-model class (region / on-off-net)
  // requote: index into the market's (expanded) flow set.
  std::size_t flow = 0;
  // reload: optional base-parameter overrides for the new snapshot.
  std::optional<std::uint64_t> seed;
  std::optional<std::size_t> n_flows;
  // reload: topology update batch in the netdyn wire format
  // ("down,A,B;w,C,D,500"). Non-empty switches the reload to the
  // incremental path: apply the batch to the daemon's dynamic network,
  // re-cost the bound flows, and rebuild only the dirty markets — the
  // clean ones are structurally shared with the previous snapshot.
  // Cannot be combined with seed / n_flows.
  std::string updates;
};

std::string serialize_request(const Request& request);
// Throws std::invalid_argument on malformed payloads (missing or
// ill-typed fields, unknown kind, garbage anywhere in the object).
Request parse_request(std::string_view payload);

// One pricing tier of a schedule response: the bundle price and the
// relative-cost range its member flows span.
struct TierInfo {
  double price = 0.0;
  double rel_cost_lo = 0.0;
  double rel_cost_hi = 0.0;
  std::size_t n_flows = 0;
  double demand_mbps = 0.0;
};

// One histogram of a stats response: the registry snapshot's sparse
// buckets plus the server-derived exact percentiles (computed with
// obs::histogram_percentile at log-bucket resolution, so every client
// sees the same numbers the server's own gates use).
struct StatsHist {
  std::string name;
  std::uint64_t count = 0;
  double sum = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
  // Sparse (bucket index, count) pairs, ascending.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;
};

struct Response {
  std::uint64_t id = 0;
  bool ok = false;
  std::uint64_t epoch = 0;
  QueryKind kind = QueryKind::Schedule;
  std::string error;  // set when !ok
  std::string code;   // set when !ok: one of the kCode* tokens
  // price / requote:
  std::size_t tier = 0;      // assigned tier index (schedule order)
  double price = 0.0;        // the tier's price
  double rel_cost = 0.0;     // the flow's relative cost
  double blended_price = 0.0;  // requote: the market's P0 for comparison
  // schedule:
  double capture = 0.0;
  std::string capture_text;  // exact number token (byte-compare hook)
  std::vector<TierInfo> tiers;
  // reload:
  std::size_t markets = 0;  // markets served by the new snapshot
  // reload: markets actually recalibrated. Equals `markets` on a full
  // rebuild; on an updates reload it counts only the dirty markets (0
  // when the batch left every served distance unchanged).
  std::size_t recalibrated = 0;
  // health (and stats, which is a superset):
  std::string state;  // "ready" | "draining" | "overloaded"
  std::uint64_t active_connections = 0;
  std::uint64_t inflight = 0;
  std::uint64_t shed = 0;  // total shed/refused since startup
  // stats:
  std::string version;        // protocol version tag ("1.2")
  std::uint64_t t_us = 0;     // server wall-clock capture time, µs
  std::int64_t stats_pid = 0;  // serving process pid (wire field "pid")
  std::vector<std::pair<std::string, std::uint64_t>> stats_counters;
  std::vector<std::pair<std::string, std::int64_t>> stats_gauges;
  std::vector<StatsHist> stats_hists;
};

std::string serialize_response(const Response& response);
// Throws std::invalid_argument on malformed payloads.
Response parse_response(std::string_view payload);

// Convenience: the structured error every fault path answers with.
// `code` is one of the kCode* tokens; the three-argument form defaults
// to kCodeBadRequest.
std::string error_payload(std::uint64_t id, std::uint64_t epoch,
                          std::string_view message);
std::string error_payload(std::uint64_t id, std::uint64_t epoch,
                          std::string_view code, std::string_view message);

// --- Framing over a stream socket ---

// What went wrong at the framing layer. TornPrefix/MidFrame mean the
// peer vanished mid-message (nothing sensible to answer); BadLength
// (zero or > kMaxFrame) is answerable with a structured error before
// closing. Idle and SlowPeer are the server-side read limits: Idle is a
// connection that produced no bytes for the idle window (a half-open or
// parked peer), SlowPeer is a peer mid-frame that failed to complete it
// within the frame window (a slow-loris writer) — both mean "reap this
// connection", neither is answerable.
class FrameError : public std::runtime_error {
 public:
  enum class Kind { TornPrefix, MidFrame, BadLength, Idle, SlowPeer };
  FrameError(Kind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}
  Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

// Length-prefix + payload, ready to write.
std::string encode_frame(std::string_view payload);
// Same framing appended onto an existing buffer — the server's batched
// drain re-uses one output buffer across pipelined responses.
void append_frame(std::string& out, std::string_view payload);

// Write all of `data` to fd (send with MSG_NOSIGNAL on sockets, so a
// vanished peer surfaces as an error, not SIGPIPE). Throws
// std::system_error on failure.
void write_all(int fd, std::string_view data);

// Buffered frame reader. next() blocks until a full frame, clean EOF at
// a frame boundary, or a framing fault; buffered_frame() reports whether
// another complete frame is already in the buffer (no syscall needed) —
// the server drains those before flushing responses, which is what
// batches syscalls under pipelined load.
class FrameReader {
 public:
  // Read limits, both in wall-clock ms, both 0 = off. They only engage
  // when the fd has SO_RCVTIMEO set (recv must return EAGAIN
  // periodically for the reader to notice time passing); the server
  // arms both together. idle: max time next() waits with no undelivered
  // bytes at all before throwing FrameError{Idle}. frame: max time a
  // partially received frame may take to complete before
  // FrameError{SlowPeer} — the progress-based slow-loris cutoff (a
  // dribbling writer resets nothing: the clock runs from the first byte
  // of the incomplete frame).
  struct ReadLimits {
    int idle_timeout_ms = 0;
    int frame_timeout_ms = 0;
  };

  explicit FrameReader(int fd) : fd_(fd) {}

  enum class Status { Frame, Eof };

  void set_limits(ReadLimits limits) { limits_ = limits; }

  // Fill `payload` with the next frame. Throws FrameError on a torn
  // prefix, mid-frame EOF, a bad length, or a tripped read limit;
  // std::system_error on socket errors. With SO_RCVTIMEO set on the fd
  // but no limits armed, a recv timeout surfaces as std::system_error
  // (EAGAIN) — the client-side --timeout-ms contract.
  Status next(std::string& payload);
  bool buffered_frame() const;

  // When the bytes completing the most recent frame were received —
  // the arrival approximation the server's request deadline uses. Every
  // frame drained from one recv burst shares that burst's timestamp,
  // which is exactly right: they were all queued then.
  std::chrono::steady_clock::time_point last_fill() const {
    return fill_time_;
  }

 private:
  int fd_;
  std::string buffer_;
  std::size_t pos_ = 0;  // consumed prefix of buffer_
  ReadLimits limits_;
  std::chrono::steady_clock::time_point fill_time_{};
};

// One blocking request/response exchange on fd (client side).
// Throws FrameError / std::system_error on transport faults.
std::string roundtrip(int fd, std::string_view payload);

}  // namespace manytiers::serve
