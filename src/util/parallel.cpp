#include "util/parallel.hpp"

#include <cstdlib>
#include <exception>
#include <string_view>
#include <thread>
#include <vector>

#include "json/flat_json.hpp"
#include "obs/trace.hpp"

namespace manytiers::util {

std::size_t default_thread_count() {
  const char* env = std::getenv("MANYTIERS_THREADS");
  const std::string_view text = env == nullptr ? "" : env;
  if (!text.empty()) {
    const auto parsed =
        json::parse_number<std::size_t>(text, "MANYTIERS_THREADS");
    if (parsed > 0) return parsed;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                  std::size_t threads) {
  if (n == 0) return;
  if (threads == 0) threads = default_thread_count();
  if (threads > n) threads = n;
  if (threads <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  // Static contiguous chunking: the first n % threads chunks get one
  // extra index, so chunk boundaries depend only on (n, threads).
  std::vector<std::exception_ptr> errors(threads);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  const std::size_t base = n / threads;
  const std::size_t extra = n % threads;
  std::size_t begin = 0;
  for (std::size_t t = 0; t < threads; ++t) {
    const std::size_t size = base + (t < extra ? 1 : 0);
    const std::size_t end = begin + size;
    workers.emplace_back([&body, &errors, t, begin, end] {
      try {
        // Trace row per worker ordinal (tid = t + 1; 0 is the spawning
        // thread): sequential parallel_for calls reuse the same rows,
        // so a sweep renders as utilization bars with stragglers
        // visible as the longest chunk span. Costs one relaxed load
        // when tracing is off.
        const obs::Span span("parallel_for.chunk",
                             obs::trace_args("begin", begin, "end", end),
                             static_cast<long>(t) + 1);
        for (std::size_t i = begin; i < end; ++i) body(i);
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
    begin = end;
  }
  for (auto& w : workers) w.join();
  for (const auto& err : errors) {
    if (err) std::rethrow_exception(err);
  }
}

}  // namespace manytiers::util
