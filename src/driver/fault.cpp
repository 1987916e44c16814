#include "driver/fault.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "json/flat_json.hpp"

namespace manytiers::driver {

namespace {

std::size_t parse_count(std::string_view text, const char* what) {
  if (text.empty()) {
    throw std::invalid_argument(std::string("fault spec: empty ") + what);
  }
  std::size_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      throw std::invalid_argument(std::string("fault spec: bad ") + what +
                                  " \"" + std::string(text) + "\"");
    }
    value = value * 10 + static_cast<std::size_t>(c - '0');
  }
  return value;
}

FaultSpec parse_spec(std::string_view item) {
  // Split on every ':' — a trailing colon yields an (invalid) empty
  // field, so "crash:1:" is rejected rather than silently defaulted.
  std::vector<std::string_view> fields;
  std::size_t start = 0;
  while (true) {
    const std::size_t colon = item.find(':', start);
    fields.push_back(item.substr(start, colon == std::string_view::npos
                                            ? std::string_view::npos
                                            : colon - start));
    if (colon == std::string_view::npos) break;
    start = colon + 1;
  }
  if (fields.size() < 2) {
    throw std::invalid_argument("fault spec: expected kind:shard[:times], "
                                "got \"" + std::string(item) + "\"");
  }
  FaultSpec spec;
  const std::string_view kind = fields[0];
  if (kind == "crash") {
    spec.kind = FaultKind::Crash;
  } else if (kind == "stall") {
    spec.kind = FaultKind::Stall;
  } else if (kind == "slow") {
    spec.kind = FaultKind::Slow;
  } else if (kind == "corrupt") {
    spec.kind = FaultKind::Corrupt;
  } else if (kind == "partial") {
    spec.kind = FaultKind::Partial;
  } else {
    throw std::invalid_argument("fault spec: unknown kind \"" +
                                std::string(kind) + "\"");
  }
  spec.shard = parse_count(fields[1], "shard index");
  std::size_t next = 2;
  if (spec.kind == FaultKind::Slow) {
    // slow:shard:ms[:times] — the straggle duration is mandatory.
    if (fields.size() < 3) {
      throw std::invalid_argument(
          "fault spec: slow requires a duration, expected "
          "slow:shard:ms[:times]");
    }
    spec.delay_ms = parse_count(fields[2], "slow duration (ms)");
    if (spec.delay_ms == 0) {
      throw std::invalid_argument("fault spec: slow duration must be >= 1 ms");
    }
    next = 3;
  }
  if (fields.size() > next) {
    spec.times = parse_count(fields[next], "times count");
    if (spec.times == 0) {
      throw std::invalid_argument("fault spec: times must be >= 1");
    }
    ++next;
  }
  if (fields.size() > next) {
    throw std::invalid_argument("fault spec: trailing fields in \"" +
                                std::string(item) + "\"");
  }
  return spec;
}

}  // namespace

std::string_view to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::Crash: return "crash";
    case FaultKind::Stall: return "stall";
    case FaultKind::Slow: return "slow";
    case FaultKind::Corrupt: return "corrupt";
    case FaultKind::Partial: return "partial";
  }
  throw std::invalid_argument("unknown fault kind");
}

FaultPlan parse_fault_plan(std::string_view spec) {
  FaultPlan plan;
  std::size_t start = 0;
  while (start <= spec.size() && !spec.empty()) {
    const std::size_t comma = spec.find(',', start);
    const std::string_view item =
        spec.substr(start, comma == std::string_view::npos ? std::string_view::npos
                                                           : comma - start);
    if (item.empty()) {
      throw std::invalid_argument("fault spec: empty entry in \"" +
                                  std::string(spec) + "\"");
    }
    plan.faults.push_back(parse_spec(item));
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  return plan;
}

std::optional<FaultSpec> fault_for(const FaultPlan& plan, std::size_t shard,
                                   std::size_t attempt) {
  for (const auto& spec : plan.faults) {
    if (spec.shard == shard && attempt < spec.times) return spec;
  }
  return std::nullopt;
}

FaultPlan fault_plan_from_env() {
  const char* spec = std::getenv("MANYTIERS_FAULT");
  if (spec == nullptr) return {};
  return parse_fault_plan(spec);
}

std::size_t fault_attempt_from_env() {
  const char* text = std::getenv("MANYTIERS_FAULT_ATTEMPT");
  if (text == nullptr || *text == '\0') return 0;
  return json::parse_number<std::size_t>(text, "MANYTIERS_FAULT_ATTEMPT");
}

}  // namespace manytiers::driver
