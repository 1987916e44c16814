#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace manytiers::util {
namespace {

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 3u, 8u, 64u}) {
    std::vector<std::atomic<int>> hits(100);
    parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; }, threads);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelFor, ZeroIterationsIsANoop) {
  bool called = false;
  parallel_for(0, [&](std::size_t) { called = true; }, 4);
  EXPECT_FALSE(called);
}

TEST(ParallelFor, SlotPerIndexReductionIsThreadCountInvariant) {
  // The sweep engine's pattern: write results into per-index slots, then
  // reduce serially. The outcome must not depend on the thread count.
  const std::size_t n = 257;
  std::vector<double> serial(n), parallel(n);
  const auto body = [](std::size_t i) {
    double x = double(i) + 1.0;
    for (int k = 0; k < 8; ++k) x = x * 1.000001 + double(k);
    return x;
  };
  parallel_for(n, [&](std::size_t i) { serial[i] = body(i); }, 1);
  parallel_for(n, [&](std::size_t i) { parallel[i] = body(i); }, 5);
  EXPECT_EQ(serial, parallel);  // exact equality, bit for bit
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(
          32,
          [](std::size_t i) {
            if (i == 17) throw std::runtime_error("worker failure");
          },
          4),
      std::runtime_error);
}

TEST(ParallelFor, MoreThreadsThanWorkStillCovers) {
  std::vector<std::atomic<int>> hits(3);
  parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; }, 16);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(DefaultThreadCount, IsAtLeastOne) {
  EXPECT_GE(default_thread_count(), 1u);
}

// default_thread_count() with MANYTIERS_THREADS set to `value` (unset
// for nullptr); restores the caller's environment.
std::size_t thread_count_with(const char* value) {
  const char* saved = std::getenv("MANYTIERS_THREADS");
  const std::string restore = saved == nullptr ? "" : saved;
  if (value == nullptr) {
    ::unsetenv("MANYTIERS_THREADS");
  } else {
    ::setenv("MANYTIERS_THREADS", value, 1);
  }
  const auto reset = [&] {
    if (saved == nullptr) {
      ::unsetenv("MANYTIERS_THREADS");
    } else {
      ::setenv("MANYTIERS_THREADS", restore.c_str(), 1);
    }
  };
  try {
    const std::size_t threads = default_thread_count();
    reset();
    return threads;
  } catch (...) {
    reset();
    throw;
  }
}

std::size_t hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

TEST(DefaultThreadCount, ReadsAPositiveCount) {
  EXPECT_EQ(thread_count_with("1"), 1u);
  EXPECT_EQ(thread_count_with("3"), 3u);
}

TEST(DefaultThreadCount, UnsetEmptyOrZeroMeansHardware) {
  EXPECT_EQ(thread_count_with(nullptr), hardware_threads());
  EXPECT_EQ(thread_count_with(""), hardware_threads());
  EXPECT_EQ(thread_count_with("0"), hardware_threads());
}

TEST(DefaultThreadCount, RejectsGarbageNamingTheVariable) {
  // -1 once read as 2^64 - 1 threads and 4x as the hardware count.
  for (const char* value : {"-1", "4x", " 3", "+2", "3 ", "x"}) {
    try {
      thread_count_with(value);
      ADD_FAILURE() << "accepted MANYTIERS_THREADS=\"" << value << "\"";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("MANYTIERS_THREADS"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace manytiers::util
