// Shared pieces of the end-to-end benchmark harness: the run
// configuration, the result every workload fills in, latency
// percentiles with their sample counts, clocks, and /proc readers.
//
// A workload run fills one RunResult. With tracing off its metrics are
// the end-to-end set (identical names for every workload, so a
// regression gate compares like with like); with tracing on they are
// the per-layer set. Everything else a reader needs to interpret a
// number — sample counts, samples beyond each percentile, op classes,
// provenance — goes into `details`, printed as one PERFBENCH_DETAILS
// JSON line before the PERFBENCH_RESULT line.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// A traced span: run `fn`, add its duration to `acc`, return its value.
template <typename Fn>
auto timed(double& acc, Fn&& fn) {
  const auto start = Clock::now();
  if constexpr (std::is_void_v<std::invoke_result_t<Fn>>) {
    fn();
    acc += seconds_since(start);
  } else {
    auto value = fn();
    acc += seconds_since(start);
    return value;
  }
}

double mean(const std::vector<double>& v);
double median(std::vector<double> v);

struct Config {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 15.0;
  bool trace = false;
  std::string serve_bin;  // the manytiers_serve daemon to spawn
  std::string reference;  // committed batch capture table
  std::string rundir;     // sockets and metrics sidecars (relative path)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  // ops (or set-ups) behind the value; 0 = n/a
};

// A JSON value kept as its serialized text; details are assembled from
// these so every workload can add what it needs without a JSON library.
using Details = std::map<std::string, std::string>;

std::string json_string(const std::string& text);
std::string json_number(double value);
std::string json_object(const Details& fields);

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // each makes the run incorrect
  std::vector<Metric> metrics;
  Details details;

  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples = 0) {
    metrics.push_back({name, value, unit, samples});
  }
  void error(const std::string& what);
  bool correct() const { return failed == 0 && errors.empty(); }
};

// A percentile of a latency sample, with how many samples lie beyond
// its rank ceil(q * n). Tails are nearest-rank: the value at that rank.
// The median is the mean of the middle fifth of the sample (ranks
// 0.4n..0.6n): where a distribution has a seam at its middle, as
// batch-costmodels' tasks do (plain heuristic tasks are exactly half of
// them, dest-type heuristics and Optimal the rest), the nearest-rank
// median jumps between classes on a one-rank shift — a 9.6% spread over
// the dataset-seed pairs, against 3.7% for the middle-fifth mean.
struct Percentile {
  double q = 0.0;
  double value = 0.0;
  double nearest = 0.0;  // the nearest-rank value, for reference
  std::size_t rank = 0;  // 1-based rank in the sorted sample
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

// `sorted` must be ascending and non-empty.
Percentile percentile(const std::vector<double>& sorted, double q);

// Record a reported percentile: the metric itself plus its sample
// counts in the details. A percentile with fewer than ten samples
// beyond it says nothing about the tail, so it is an error.
void report_percentile(RunResult& result, const std::string& name,
                       const Percentile& p, const std::string& classes_json);

// CPU time (user + system) of this process and of the calling thread.
double process_cpu_s();
double thread_cpu_s();
// Peak resident set of this process, in MiB.
double process_peak_rss_mb();

// /proc counters of another process (all its threads).
double proc_cpu_s(pid_t pid);
double proc_peak_rss_mb(pid_t pid);
std::uint64_t proc_ctx_switches(pid_t pid);

// Pin the calling thread to `cpus` (a subset of allowed_cpus()).
void pin_thread(const std::vector<int>& cpus);
// The CPUs this process may run on, ascending.
std::vector<int> allowed_cpus();
// The last `count` allowed CPUs: the fixed set the serve workloads pin
// the daemon and the load generator to.
std::vector<int> pinned_set(std::size_t count);
std::string cpus_json(const std::vector<int>& cpus);

// Deterministic 64-bit mixer for deriving inputs from the run seed.
std::uint64_t mix64(std::uint64_t x);

void run_batch(const Config& config, RunResult& result);
void run_serve_quotes(const Config& config, RunResult& result);
void run_serve_reload(const Config& config, RunResult& result);
// Regenerate the committed capture table the batch workload checks
// against (every pool seed, one thread).
int write_batch_reference(const std::string& path);

}  // namespace perfbench
