// Process-global metrics registry: named counters, gauges, and
// log-scale latency histograms shared by every binary.
//
// Hot-path cost model: an increment is ONE relaxed atomic add on a
// cache-line-padded per-thread shard — workers in a `parallel_for` never
// contend on the same line, so instrumenting the DP fill loop or the
// sweep tasks does not serialize them. When the registry is disabled
// (the default), every mutation is a single branch on one global flag
// and nothing else: a binary that never passes --metrics pays one
// predictable-not-taken branch per instrumented site.
//
// Handles returned by Registry::counter()/gauge()/histogram() are
// stable for the process lifetime, so call sites cache them in a
// function-local static and skip the name lookup on every hit:
//
//   static obs::Counter& fills =
//       obs::Registry::instance().counter("bundling.dp_fills");
//   fills.add();
//
// Reading folds the shards (sum); Registry::snapshot() folds every
// metric into a plain Snapshot that serializes to the metrics sidecar
// (see snapshot_to_json / parse_snapshot / merge_snapshots), which is
// how per-worker metrics cross process boundaries and get summed into
// one run-level view by the orchestrator.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace manytiers::obs {

namespace detail {
extern std::atomic<bool> g_enabled;
// Per-thread shard slot, assigned round-robin on first use per thread.
std::size_t this_thread_shard();
}  // namespace detail

// The single global flag every mutation branches on. Relaxed is enough:
// enabling observability must never synchronize application code.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);

// RAII enable for tests: flips the flag on construction and restores
// the previous state on destruction.
class ScopedEnable {
 public:
  explicit ScopedEnable(bool on = true);
  ~ScopedEnable();
  ScopedEnable(const ScopedEnable&) = delete;
  ScopedEnable& operator=(const ScopedEnable&) = delete;

 private:
  bool previous_;
};

inline constexpr std::size_t kShards = 64;

struct alignas(64) PaddedCount {
  std::atomic<std::uint64_t> value{0};
};

// Monotone event count. add() is wait-free: one relaxed fetch_add on
// this thread's shard.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    if (!enabled()) return;
    shards_[detail::this_thread_shard()].value.fetch_add(
        n, std::memory_order_relaxed);
  }
  std::uint64_t value() const;  // sum over shards
  void reset();

 private:
  std::array<PaddedCount, kShards> shards_{};
};

// Last-written level (thread/worker counts, sizes). Gauges are not
// hot-path: a single atomic slot suffices.
class Gauge {
 public:
  void set(std::int64_t v) {
    if (!enabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t v) {
    if (!enabled()) return;
    value_.fetch_add(v, std::memory_order_relaxed);
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

// Log-scale (power-of-two) histogram for latencies. Bucket b holds
// values v with histogram_bucket(v) == b: bucket 0 is [0, 2) and bucket
// b >= 1 is [2^b, 2^(b+1)) — so every boundary 2^b opens bucket b.
// Values are unitless; the convention in this codebase is microseconds.
inline constexpr std::size_t kHistogramBuckets = 64;

std::size_t histogram_bucket(double value);
// Inclusive lower bound of bucket b (0 for b == 0, else 2^b).
double histogram_bucket_floor(std::size_t b);

class Histogram {
 public:
  void record(double value);
  std::uint64_t count() const;               // total recordings
  double sum() const;                        // sum of recorded values
  std::vector<std::uint64_t> buckets() const;  // folded, kHistogramBuckets
  void reset();

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum{0.0};
  };
  std::array<Shard, kShards> shards_{};
};

// One folded, process-local view of every registered metric — and the
// unit of cross-process exchange: a worker serializes its snapshot to
// the metrics sidecar, the orchestrator parses the winners' sidecars
// and sums them with merge_snapshots.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  // Sparse: only non-empty buckets, as (bucket index, count), ascending.
  std::vector<std::pair<std::size_t, std::uint64_t>> buckets;
};

// Exact q-quantile (q in [0, 1]) of the recorded distribution at bucket
// resolution: the inclusive lower bound of the bucket holding the
// ceil(q * count)-th recording. Deterministic — two processes with the
// same buckets derive the same percentile. 0 when the histogram is
// empty.
double histogram_percentile(const HistogramSnapshot& h, double q);

struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
  // Provenance stamps (0 = unstamped, for hand-built snapshots): the
  // emitting process and the wall-clock capture time, so merged
  // multi-process sidecars are self-describing instead of relying on
  // file naming. Registry::snapshot() always stamps.
  long pid = 0;
  std::uint64_t t_us = 0;
};

// Microseconds since the wall-clock epoch — the shared timeline every
// snapshot stamp and time-series tick lives on (same epoch the tracer
// anchors to, so metrics ticks line up under trace spans).
std::uint64_t wall_clock_us();

class Registry {
 public:
  static Registry& instance();

  // Get-or-create by name; the returned reference is process-stable.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  Snapshot snapshot() const;
  // Zero every registered metric (handles stay valid). Test hygiene.
  void reset();

 private:
  Registry() = default;
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

// Metrics sidecar format: a valid JSON array, one record per line —
//   [
//   {"kind":"meta","pid":4242,"t_us":1700000000000000},
//   {"kind":"counter","name":"bundling.dp_fills","value":42},
//   {"kind":"hist","name":"driver.task_us","count":3,"sum":128.0,
//    "buckets":[[5,2],[6,1]]}
//   ]
// so the same file loads in any JSON tool; both directions go through
// the flat_json codec's record framing. The "meta" record carries the
// snapshot stamps and is omitted for unstamped snapshots, which keeps
// pre-stamp sidecars byte-identical.
std::string snapshot_to_json(const Snapshot& snapshot);
// Throws std::invalid_argument on malformed input.
Snapshot parse_snapshot(std::string_view text);
// Element-wise sum: counters and gauges add, histograms add bucket-wise.
// The merged stamps are pid 0 (multi-process) and the max part t_us.
Snapshot merge_snapshots(const std::vector<Snapshot>& parts);

// --- Streaming time-series (the PeriodicSnapshotter's record unit) ---
//
// One interval tick of one process: counter DELTAS and histogram bucket
// DELTAS since the previous tick, gauge LEVELS as of this tick. seq 0
// is the baseline tick (delta from an empty registry), so summing every
// delta of a stream reproduces the process's final snapshot exactly —
// the sum-to-total identity the streaming tests pin.
struct DeltaTick {
  long pid = 0;
  std::uint64_t seq = 0;   // tick ordinal within this process's stream
  std::uint64_t t_us = 0;  // wall-clock stamp (wall_clock_us)
  std::map<std::string, std::uint64_t> counters;  // deltas
  std::map<std::string, std::int64_t> gauges;     // levels
  std::map<std::string, HistogramSnapshot> histograms;  // deltas
};

// Time-series sidecar format: the same one-record-per-line JSON array
// discipline, with stream-specific record kinds so a plain snapshot
// reader never confuses the two —
//   {"kind":"tick","pid":P,"seq":S,"t_us":T}
//   {"kind":"cdelta","name":N,"delta":D,"pid":P,"seq":S,"t_us":T}
//   {"kind":"glevel","name":N,"value":V,"pid":P,"seq":S,"t_us":T}
//   {"kind":"hdelta","name":N,"count":C,"sum":X,"buckets":[[b,n],...],
//    "pid":P,"seq":S,"t_us":T}
// Every tick opens with its "tick" record (emitted even when nothing
// changed: the stream's own heartbeat), followed by one record per
// changed metric.
std::string time_series_to_json(const std::vector<DeltaTick>& ticks);
// Throws std::invalid_argument on malformed input.
std::vector<DeltaTick> parse_time_series(std::string_view text);
// Align several per-process streams onto one wall-clock timeline:
// ticks ordered by (t_us, pid, seq).
std::vector<DeltaTick> merge_time_series(
    const std::vector<std::vector<DeltaTick>>& streams);
// Fold a (possibly merged, multi-process) timeline back into totals:
// counter and histogram deltas sum; a gauge takes its last level per
// process, summed across processes. For a single complete stream this
// reproduces the process's final snapshot.
Snapshot time_series_total(const std::vector<DeltaTick>& ticks);

}  // namespace manytiers::obs
