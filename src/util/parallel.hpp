// Minimal fork-join parallelism for the sweep/counterfactual hot paths.
//
// `parallel_for` runs `body(i)` for i in [0, n) across worker threads
// with static contiguous chunking: thread t owns one contiguous index
// range, so two runs with the same thread count touch the same data in
// the same per-thread order. Callers that want thread-count-independent
// results (the sweep engine does) write into a pre-sized output slot per
// index and reduce serially afterwards — the reduction order is then the
// index order regardless of how many threads ran.
//
// Thread count resolution: an explicit `threads` argument wins; 0 defers
// to the MANYTIERS_THREADS environment variable; failing that,
// std::thread::hardware_concurrency(). Exceptions thrown by `body`
// propagate to the caller (the first one in chunk order; remaining
// chunks still finish, so partially-written outputs are never observed
// mid-flight).
//
// Callers fan out once, at the top: the sweep engine and serve's
// snapshot build and rebuild. The work they run in each body
// (calibration, the bundling DP) is serial, so `threads == 1` means one
// thread end to end.
#pragma once

#include <cstddef>
#include <functional>

namespace manytiers::util {

// Worker count used when `threads == 0`: MANYTIERS_THREADS when set to
// a positive integer; unset, empty or 0 means hardware_concurrency(),
// never less than 1. Any other value (a sign, a blank, trailing bytes)
// throws std::invalid_argument naming the variable.
std::size_t default_thread_count();

// Run body(i) for every i in [0, n). `threads == 0` means
// default_thread_count(); `threads == 1` (or n <= 1) runs inline with no
// thread spawned at all, so the serial path is exactly a plain loop.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                  std::size_t threads = 0);

}  // namespace manytiers::util
