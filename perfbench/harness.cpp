// perfbench_harness — runs one workload of the end-to-end benchmark and
// prints its result. perfbench/run.py builds this binary (Release) and
// invokes it; see perfbench/README.md for the workloads and metrics.
//
//   perfbench_harness --workload batch-costmodels|serve-quotes|serve-reload
//                     --seed N --seconds S --trace 0|1
//                     --serve-bin PATH --reference PATH --rundir DIR
//                     [--commit TEXT]
//   perfbench_harness --make-reference PATH
//
// Output: human-readable metric lines, one PERFBENCH_DETAILS {...} line
// (provenance, sample counts, op classes), and one PERFBENCH_RESULT
// {"correct","attempted","failed","metrics"} line, which run.py checks
// against BENCHMARK.json and prints as the run's last line. Exit code 0
// when every answer was right, 1 on a wrong answer or a failed guard,
// 2 on a usage error.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "harness.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) {
    throw std::runtime_error("non-finite metric value");
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string json_object(const Details& fields) {
  std::string out = "{";
  for (const auto& [key, value] : fields) {
    if (out.size() > 1) out += ", ";
    out += json_string(key) + ": " + value;
  }
  return out + "}";
}

void RunResult::error(const std::string& what) {
  errors.push_back(what);
  std::cerr << "perfbench: " << what << "\n";
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Percentile percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) throw std::invalid_argument("percentile of no samples");
  Percentile p;
  p.q = q;
  p.samples = sorted.size();
  p.rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(q * static_cast<double>(p.samples))));
  p.nearest = sorted[p.rank - 1];
  p.value = p.nearest;
  p.beyond = p.samples - p.rank;
  if (q == 0.5) {
    const std::size_t lo = p.samples * 2 / 5;
    const std::size_t hi = std::max(lo + 1, p.samples * 3 / 5);
    double sum = 0.0;
    for (std::size_t i = lo; i < hi; ++i) sum += sorted[i];
    p.value = sum / static_cast<double>(hi - lo);
  }
  return p;
}

void report_percentile(RunResult& result, const std::string& name,
                       const Percentile& p, const std::string& classes_json) {
  result.metric(name, p.value, "us", p.samples);
  result.details[name] = json_object(
      {{"q", json_number(p.q)},
       {"samples", std::to_string(p.samples)},
       {"rank", std::to_string(p.rank)},
       {"nearest_rank_value", json_number(p.nearest)},
       {"beyond", std::to_string(p.beyond)},
       {"classes", classes_json}});
  if (p.beyond < 10) {
    result.error(name + " has only " + std::to_string(p.beyond) +
                 " samples beyond it (need at least 10)");
  }
}

namespace {

double timeval_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

// One "Key:   value kB" line of /proc/<pid>/status.
double status_field(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      return std::stod(line.substr(key.size() + 1));
    }
  }
  throw std::runtime_error("no " + key + " in " + path);
}

}  // namespace

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return timeval_s(usage.ru_utime) + timeval_s(usage.ru_stime);
}

double thread_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_THREAD, &usage);
  return timeval_s(usage.ru_utime) + timeval_s(usage.ru_stime);
}

double process_peak_rss_mb() {
  return status_field("/proc/self/status", "VmHWM") / 1024.0;
}

double proc_cpu_s(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesized command name; utime and stime are
  // fields 14 and 15 of the whole line (11 and 12 after the name).
  const auto close = stat.rfind(')');
  if (close == std::string::npos) {
    throw std::runtime_error("cannot read /proc/" + std::to_string(pid));
  }
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14 || i == 15) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double proc_peak_rss_mb(pid_t pid) {
  return status_field("/proc/" + std::to_string(pid) + "/status", "VmHWM") /
         1024.0;
}

std::uint64_t proc_ctx_switches(pid_t pid) {
  // Summed over every thread: /proc/<pid>/status counts the main thread
  // only, and the daemon answers on per-connection handler threads.
  std::uint64_t total = 0;
  const auto task_dir =
      std::filesystem::path("/proc") / std::to_string(pid) / "task";
  std::error_code ec;
  for (const auto& task : std::filesystem::directory_iterator(task_dir, ec)) {
    const std::string path = (task.path() / "status").string();
    try {
      total += static_cast<std::uint64_t>(
          status_field(path, "voluntary_ctxt_switches") +
          status_field(path, "nonvoluntary_ctxt_switches"));
    } catch (const std::exception&) {
      // The thread exited between listing and reading.
    }
  }
  return total;
}

void pin_thread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  return cpus;
}

std::vector<int> pinned_set(std::size_t count) {
  const auto cpus = allowed_cpus();
  if (cpus.size() < count) return cpus;
  return {cpus.end() - static_cast<std::ptrdiff_t>(count), cpus.end()};
}

std::string cpus_json(const std::vector<int>& cpus) {
  std::string out = "[";
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    if (i != 0) out += ", ";
    out += std::to_string(cpus[i]);
  }
  return out + "]";
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace perfbench

namespace {

using namespace perfbench;

int usage(std::ostream& os, int code) {
  os << "usage: perfbench_harness --workload NAME --seed N --seconds S "
        "--trace 0|1\n"
        "                         --serve-bin PATH --reference PATH "
        "--rundir DIR [--commit TEXT]\n"
        "       perfbench_harness --make-reference PATH\n"
        "workloads: batch-costmodels, serve-quotes, serve-reload\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  std::string commit = "unknown";
  std::string make_reference;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto next = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") {
        config.workload = next();
      } else if (arg == "--seed") {
        config.seed = std::stoull(next());
      } else if (arg == "--seconds") {
        config.seconds = std::stod(next());
      } else if (arg == "--trace") {
        const std::string v = next();
        if (v != "0" && v != "1") throw std::invalid_argument("--trace 0|1");
        config.trace = v == "1";
      } else if (arg == "--serve-bin") {
        config.serve_bin = next();
      } else if (arg == "--reference") {
        config.reference = next();
      } else if (arg == "--rundir") {
        config.rundir = next();
      } else if (arg == "--commit") {
        commit = next();
      } else if (arg == "--make-reference") {
        make_reference = next();
      } else if (arg == "--help" || arg == "-h") {
        return usage(std::cout, 0);
      } else {
        throw std::invalid_argument("unknown flag " + arg);
      }
    }
    if (make_reference.empty() &&
        (config.workload.empty() || config.serve_bin.empty() ||
         config.reference.empty() || config.rundir.empty() ||
         !(config.seconds > 0.0))) {
      throw std::invalid_argument("missing required flags");
    }
  } catch (const std::exception& err) {
    std::cerr << "perfbench: " << err.what() << "\n";
    return usage(std::cerr, 2);
  }

  // Timings of an unoptimized or assertion-checked build say nothing
  // about the shipped program.
  if (std::string_view(PERFBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "perfbench: refusing to measure a \"" PERFBENCH_BUILD_TYPE
                 "\" build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 2;
  }
  if (!make_reference.empty()) return write_batch_reference(make_reference);

  RunResult result;
  // Recorded before a workload pins this thread to its CPU set.
  result.details["allowed_cpus"] = cpus_json(allowed_cpus());
  try {
    if (config.workload == "batch-costmodels") {
      run_batch(config, result);
    } else if (config.workload == "serve-quotes") {
      run_serve_quotes(config, result);
    } else if (config.workload == "serve-reload") {
      run_serve_reload(config, result);
    } else {
      std::cerr << "perfbench: unknown workload " << config.workload << "\n";
      return usage(std::cerr, 2);
    }
  } catch (const std::exception& err) {
    std::cerr << "perfbench: " << config.workload << " aborted: " << err.what()
              << "\n";
    return 1;
  }

  result.details["workload"] = json_string(config.workload);
  result.details["seed"] = std::to_string(config.seed);
  result.details["seconds"] = json_number(config.seconds);
  result.details["trace"] = config.trace ? "true" : "false";
  result.details["nproc"] =
      std::to_string(std::thread::hardware_concurrency());
  result.details["build_type"] = json_string(PERFBENCH_BUILD_TYPE);
  result.details["compiler"] = json_string(PERFBENCH_COMPILER);
  result.details["commit"] = json_string(commit);
  std::string errors = "[";
  for (const auto& e : result.errors) {
    errors += (errors.size() > 1 ? ", " : "") + json_string(e);
  }
  result.details["errors"] = errors + "]";

  std::string metrics = "{";
  for (const auto& m : result.metrics) {
    char line[160];
    std::snprintf(line, sizeof line, "  %-28s %16.6f %-6s", m.name.c_str(),
                  m.value, m.unit.c_str());
    std::cout << line;
    if (m.samples != 0) std::cout << " n=" << m.samples;
    std::cout << "\n";
    if (metrics.size() > 1) metrics += ", ";
    metrics += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
               ", \"unit\": " + json_string(m.unit) + "}";
  }
  metrics += "}";
  std::cout << "PERFBENCH_DETAILS " << json_object(result.details) << "\n";
  std::cout << "PERFBENCH_RESULT {\"correct\": "
            << (result.correct() ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": " << metrics
            << "}" << std::endl;
  return result.correct() ? 0 : 1;
}
