// One flag layer for every CLI: a table of flags (name, value name, one
// help line, typed target) whose parse() renders --help from the table
// and owns the usage contract all five binaries share:
//
//   --help / -h                     usage on stdout, exit 0
//   unknown flag, missing value,    "<program>: <flag>: <reason>" and
//   bad value, failed check         the usage on stderr, exit 2
//
// Values are strict. Numbers go through json::parse_number (the whole
// token, no stray sign, range-checked for the target type); bounded()
// and millis() add a closed range, which NaN is never inside. millis()
// is the type of every *-ms flag: at most 2147483647 ms (the int range
// the daemon stores its timeouts in), so a wait built from it can never
// overflow a nanosecond clock.
//
//   cli::Flags flags("manytiers_top", "--socket PATH [options]");
//   flags.value("--socket", "PATH", "the daemon's unix socket", socket)
//       .value("--interval-ms", "N", "poll cadence", cli::millis(ms, 1))
//       .toggle("--raw", "print raw stats JSON per poll", raw);
//   if (const auto code = flags.parse(argc, argv)) return *code;
#pragma once

#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "json/flat_json.hpp"
#include "obs/snapshotter.hpp"

namespace manytiers::cli {

template <typename T>
concept Number = std::is_arithmetic_v<T> && !std::is_same_v<T, bool>;

// Where a value flag's text goes. Built implicitly from the variable it
// fills; a setter throws std::invalid_argument("<flag>: <reason>").
class Target {
 public:
  Target(std::string& out)
      : set_([&out](std::string_view, std::string_view text) {
          out = std::string(text);
        }) {}
  template <Number T>
  Target(T& out)
      : set_([&out](std::string_view flag, std::string_view text) {
          out = json::parse_number<T>(text, flag);
        }) {}
  // Engaged only when the flag is given, so 0 and "unset" differ.
  template <Number T>
  Target(std::optional<T>& out)
      : set_([&out](std::string_view flag, std::string_view text) {
          out = json::parse_number<T>(text, flag);
        }) {}
  template <typename F>
    requires std::is_invocable_v<F&, std::string_view, std::string_view>
  Target(F set) : set_(std::move(set)) {}

  void operator()(std::string_view flag, std::string_view text) const {
    set_(flag, text);
  }

 private:
  std::function<void(std::string_view flag, std::string_view text)> set_;
};

namespace detail {
[[noreturn]] void out_of_range(std::string_view flag, std::string_view text,
                               double lo, double hi);
}  // namespace detail

// A number in [lo, hi].
template <Number T>
Target bounded(T& out, std::type_identity_t<T> lo,
               std::type_identity_t<T> hi) {
  return [&out, lo, hi](std::string_view flag, std::string_view text) {
    const T value = json::parse_number<T>(text, flag);
    if (!(value >= lo && value <= hi)) {
      detail::out_of_range(flag, text, static_cast<double>(lo),
                   static_cast<double>(hi));
    }
    out = value;
  };
}

inline constexpr int kMaxMillis = 2147483647;

// Milliseconds in [lo, kMaxMillis].
template <Number T>
Target millis(T& out, std::type_identity_t<T> lo = 0) {
  return bounded(out, lo, static_cast<T>(kMaxMillis));
}

class Flags {
 public:
  // `synopsis` follows the program name on the usage line; `footer` is
  // printed after the flag list.
  Flags(std::string program, std::string synopsis, std::string footer = {});

  // A flag that takes the next argument, verbatim, as its value.
  Flags& value(std::string name, std::string value_name, std::string help,
               Target target);
  Flags& toggle(std::string name, std::string help, bool& on);
  // A flag that runs `act` and ends the run with exit 0 (--list-grids).
  Flags& action(std::string name, std::string help, std::function<void()> act);
  // Bare words (not starting with '-'), in order. Without a handler a
  // bare word is a usage error; a handler rejects one by throwing
  // std::invalid_argument.
  Flags& positional(std::function<void(std::string_view)> take);
  // Runs after the last argument is read: cross-flag rules and lookups
  // a bad value fails. A std::invalid_argument it throws is a usage
  // error.
  Flags& check(std::function<void()> validate);

  // Reads argv[1..argc). Returns the exit code main should return at
  // once (0 after --help or an action, 2 on a usage error), or nullopt
  // to go on.
  std::optional<int> parse(int argc, const char* const* argv,
                           std::ostream& out = std::cout,
                           std::ostream& err = std::cerr) const;

 private:
  struct Flag {
    std::string name;
    std::string value_name;  // empty: a switch, set with ""
    std::string help;
    Target set;
    bool ends_run = false;
  };

  void usage(std::ostream& os) const;
  int fail(std::string_view message, std::ostream& err) const;

  std::string program_;
  std::string synopsis_;
  std::string footer_;
  std::vector<Flag> flags_;
  std::function<void(std::string_view)> positional_;
  std::vector<std::function<void()>> checks_;
};

// The observability flags batch and serve share, and the run lifecycle
// they drive.
struct ObsFlags {
  std::string trace;
  std::string metrics;
  double metrics_interval_ms = 0.0;

  void add_to(Flags& flags);
};

// Tracing starts from --trace (else MANYTIERS_TRACE) and the registry
// turns on when a sidecar is asked for; start_series() begins the
// --metrics-interval-ms stream; finish() takes its last tick, writes
// the sidecar durably and flushes the trace. None of it changes what a
// run computes.
class Observability {
 public:
  Observability(ObsFlags flags, const std::string& process_name);

  void start_series();
  void finish();

 private:
  ObsFlags flags_;
  std::optional<obs::PeriodicSnapshotter> series_;
};

}  // namespace manytiers::cli
