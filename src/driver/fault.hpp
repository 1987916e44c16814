// Deterministic fault injection for batch workers.
//
// The shard orchestrator needs hermetic tests of its crash / timeout /
// straggler / corrupt-output paths, so the worker binary
// (manytiers_batch) compiles in a fault hook driven by two environment
// variables:
//
//   MANYTIERS_FAULT          comma-separated specs, one of
//                              crash:shard[:times]
//                              stall:shard[:times]
//                              corrupt:shard[:times]
//                              partial:shard[:times]
//                              slow:shard:ms[:times]
//   MANYTIERS_FAULT_ATTEMPT  the supervisor's retry counter (default 0)
//
// A spec fires when the worker's shard index matches `shard` AND the
// attempt counter is below `times` (default 1) — so `crash:2` makes
// shard 2 crash exactly once and succeed on its retry, while
// `crash:2:99` makes it crash until the retry budget is exhausted.
// Everything is pure string/integer matching: no clocks, no randomness.
//
//   crash    exit immediately with code 70, producing no output file
//   stall    hang without ever heartbeating, so a liveness (or wall
//            clock) timeout fires — models a truly wedged process
//   slow     sleep `ms` milliseconds while heartbeating normally, then
//            finish — a deterministic straggler for the hedging path
//   corrupt  run normally but truncate the written report mid-line
//   partial  run normally, write a torn prefix of the report bypassing
//            the durable rename, then die (exit 70) — a worker killed
//            mid-write
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>
#include <vector>

namespace manytiers::driver {

enum class FaultKind { Crash, Stall, Slow, Corrupt, Partial };

std::string_view to_string(FaultKind kind);

struct FaultSpec {
  FaultKind kind{};
  std::size_t shard = 0;
  std::size_t times = 1;     // fire on attempts 0 .. times-1
  std::size_t delay_ms = 0;  // Slow only: straggle duration
};

struct FaultPlan {
  std::vector<FaultSpec> faults;
};

// Parse "crash:2,stall:5,corrupt:0:3,slow:1:2000". Empty input yields an
// empty plan. Throws std::invalid_argument on unknown kinds or malformed
// numbers (slow requires the ms field; times stays optional).
FaultPlan parse_fault_plan(std::string_view spec);

// The fault (if any) that fires for this (shard, attempt): the first
// spec whose shard matches and whose `times` exceeds `attempt`.
std::optional<FaultSpec> fault_for(const FaultPlan& plan, std::size_t shard,
                                   std::size_t attempt);

// Read MANYTIERS_FAULT (empty plan when unset) and
// MANYTIERS_FAULT_ATTEMPT (0 when unset or empty). Both throw
// std::invalid_argument on a malformed value.
FaultPlan fault_plan_from_env();
std::size_t fault_attempt_from_env();

}  // namespace manytiers::driver
