// The flag layer every CLI parses argv with: the usage contract (exit 0
// on --help, exit 2 naming the flag on anything bad), strict numbers,
// the milliseconds bounds, positionals, std::optional "given" semantics,
// actions and checks. argv is outside input, so this runs in the
// sanitizer leg with the rest of the json label.
#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace manytiers::cli {
namespace {

struct Parsed {
  std::optional<int> code;
  std::string out;
  std::string err;
};

Parsed parse(const Flags& flags, std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  std::ostringstream out, err;
  Parsed parsed;
  parsed.code = flags.parse(static_cast<int>(args.size()), args.data(), out,
                            err);
  parsed.out = out.str();
  parsed.err = err.str();
  return parsed;
}

// A usage error: exit 2, "<program>: <message>" first, then the usage.
void expect_usage_error(const Parsed& parsed, const std::string& message) {
  EXPECT_EQ(parsed.code, 2);
  EXPECT_EQ(parsed.err.rfind("prog: " + message + "\nusage: prog", 0), 0u)
      << parsed.err;
  EXPECT_TRUE(parsed.out.empty()) << parsed.out;
}

TEST(CliFlags, HelpExitsZeroAndListsEveryFlag) {
  std::string name;
  bool raw = false;
  Flags flags("prog", "[options]", "exit codes: 0, 1, 2\n");
  flags.value("--name", "NAME", "who to greet", name)
      .toggle("--raw", "no table", raw);
  for (const char* help : {"--help", "-h"}) {
    const Parsed parsed = parse(flags, {"--name", "x", help, "--bogus"});
    EXPECT_EQ(parsed.code, 0);
    EXPECT_EQ(parsed.out,
              "usage: prog [options]\n"
              "  --name NAME             who to greet\n"
              "  --raw                   no table\n"
              "  -h, --help              print this help and exit\n"
              "exit codes: 0, 1, 2\n");
    EXPECT_TRUE(parsed.err.empty());
  }
}

TEST(CliFlags, ValuesSwitchesAndDefaults) {
  std::string name = "default";
  bool raw = false;
  std::size_t n = 7;
  double x = 0.5;
  Flags flags("prog", "[options]");
  flags.value("--name", "NAME", "", name)
      .toggle("--raw", "", raw)
      .value("--n", "N", "", n)
      .value("--x", "X", "", x);
  EXPECT_EQ(parse(flags, {}).code, std::nullopt);
  EXPECT_EQ(name, "default");
  EXPECT_FALSE(raw);
  EXPECT_EQ(n, 7u);

  // The value is the next argument verbatim, even when it looks like a
  // flag; the last occurrence wins.
  EXPECT_EQ(parse(flags, {"--name", "--raw", "--n", "3", "--n", "4", "--raw",
                          "--x", "-2.5e-1"})
                .code,
            std::nullopt);
  EXPECT_EQ(name, "--raw");
  EXPECT_TRUE(raw);
  EXPECT_EQ(n, 4u);
  EXPECT_EQ(x, -0.25);
}

TEST(CliFlags, UnknownFlagAndMissingValueExitTwo) {
  std::size_t n = 0;
  Flags flags("prog", "[options]");
  flags.value("--n", "N", "", n);
  expect_usage_error(parse(flags, {"--bogus"}), "--bogus: unknown flag");
  expect_usage_error(parse(flags, {"-n", "1"}), "-n: unknown flag");
  expect_usage_error(parse(flags, {"--n"}), "--n: requires a value N");
  // Without a positional handler a bare word is as unknown as a flag.
  expect_usage_error(parse(flags, {"word"}), "word: unknown flag");
}

TEST(CliFlags, NumbersAreStrict) {
  std::size_t count = 0;
  int level = 0;
  double ratio = 0.0;
  std::uint16_t port = 0;
  Flags flags("prog", "[options]");
  flags.value("--count", "N", "", count)
      .value("--level", "N", "", level)
      .value("--ratio", "X", "", ratio)
      .value("--port", "P", "", port);
  expect_usage_error(parse(flags, {"--count", "-1"}),
                     "--count: expected an unsigned integer, got \"-1\"");
  expect_usage_error(parse(flags, {"--count", "12abc"}),
                     "--count: expected an unsigned integer, got \"12abc\"");
  expect_usage_error(parse(flags, {"--count", ""}),
                     "--count: expected an unsigned integer, got \"\"");
  expect_usage_error(parse(flags, {"--level", "1.5"}),
                     "--level: expected an integer, got \"1.5\"");
  expect_usage_error(parse(flags, {"--ratio", "5ms"}),
                     "--ratio: expected a number, got \"5ms\"");
  expect_usage_error(parse(flags, {"--port", "70000"}),
                     "--port: expected a number in range, got \"70000\"");
  EXPECT_EQ(parse(flags, {"--level", "-3", "--port", "65535"}).code,
            std::nullopt);
  EXPECT_EQ(level, -3);
  EXPECT_EQ(port, 65535);
}

TEST(CliFlags, MillisAcceptsOnlyFiniteValuesUpToTheIntRange) {
  double wait_ms = 100.0;
  int timeout_ms = 30000;
  std::uint64_t beat_ms = 1;
  Flags flags("prog", "[options]");
  flags.value("--wait-ms", "N", "", millis(wait_ms))
      .value("--timeout-ms", "N", "", millis(timeout_ms))
      .value("--beat-ms", "N", "", millis(beat_ms, 1));
  for (const char* bad :
       {"-5", "-0.001", "nan", "inf", "-inf", "1e300", "2147483647.5"}) {
    expect_usage_error(
        parse(flags, {"--wait-ms", bad}),
        std::string("--wait-ms: expected a number in [0, 2147483647], got \"") +
            bad + "\"");
  }
  expect_usage_error(parse(flags, {"--timeout-ms", "-7"}),
                     "--timeout-ms: expected a number in [0, 2147483647], "
                     "got \"-7\"");
  expect_usage_error(parse(flags, {"--timeout-ms", "2147483648"}),
                     "--timeout-ms: expected a number in range, got "
                     "\"2147483648\"");
  expect_usage_error(parse(flags, {"--beat-ms", "0"}),
                     "--beat-ms: expected a number in [1, 2147483647], got "
                     "\"0\"");
  expect_usage_error(parse(flags, {"--beat-ms", "18446744073709551615"}),
                     "--beat-ms: expected a number in [1, 2147483647], got "
                     "\"18446744073709551615\"");
  // A rejected value leaves the default in place.
  EXPECT_EQ(wait_ms, 100.0);
  EXPECT_EQ(timeout_ms, 30000);

  EXPECT_EQ(parse(flags, {"--wait-ms", "0", "--timeout-ms", "2147483647",
                          "--beat-ms", "2147483647"})
                .code,
            std::nullopt);
  EXPECT_EQ(wait_ms, 0.0);
  EXPECT_EQ(timeout_ms, 2147483647);
  EXPECT_EQ(beat_ms, 2147483647u);
  EXPECT_EQ(parse(flags, {"--wait-ms", "2147483647"}).code, std::nullopt);
  EXPECT_EQ(wait_ms, 2147483647.0);
}

TEST(CliFlags, BoundedRejectsNaNAndBothEnds) {
  double x = 1.0;
  Flags flags("prog", "[options]");
  flags.value("--x", "X", "", bounded(x, 0.0, 10.0));
  for (const char* bad : {"nan", "-1", "10.5", "inf"}) {
    EXPECT_EQ(parse(flags, {"--x", bad}).code, 2) << bad;
  }
  EXPECT_EQ(parse(flags, {"--x", "10"}).code, std::nullopt);
  EXPECT_EQ(x, 10.0);
}

TEST(CliFlags, OptionalIsEngagedOnlyWhenGiven) {
  std::optional<std::uint64_t> seed;
  Flags flags("prog", "[options]");
  flags.value("--seed", "S", "", seed);
  EXPECT_EQ(parse(flags, {}).code, std::nullopt);
  EXPECT_FALSE(seed.has_value());
  EXPECT_EQ(parse(flags, {"--seed", "0"}).code, std::nullopt);
  ASSERT_TRUE(seed.has_value());
  EXPECT_EQ(*seed, 0u);
  seed.reset();
  expect_usage_error(parse(flags, {"--seed", "-1"}),
                     "--seed: expected an unsigned integer, got \"-1\"");
  EXPECT_FALSE(seed.has_value());
}

TEST(CliFlags, PositionalsArriveInOrderAndCanBeRejected) {
  std::vector<std::string> words;
  bool merge = false;
  Flags flags("prog", "[options] WORD...");
  flags.toggle("--merge", "", merge).positional([&](std::string_view word) {
    if (word == "bad") throw std::invalid_argument("bad: not a word");
    words.emplace_back(word);
  });
  EXPECT_EQ(parse(flags, {"a", "--merge", "b"}).code, std::nullopt);
  EXPECT_EQ(words, (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(merge);
  expect_usage_error(parse(flags, {"bad"}), "bad: not a word");
  // A dash never starts a positional.
  expect_usage_error(parse(flags, {"-"}), "-: unknown flag");
}

TEST(CliFlags, ActionsEndTheRunBeforeChecksAndLaterFlags) {
  int listed = 0;
  int checked = 0;
  Flags flags("prog", "[options]");
  flags.action("--list", "", [&] { ++listed; }).check([&] { ++checked; });
  EXPECT_EQ(parse(flags, {"--list", "--bogus"}).code, 0);
  EXPECT_EQ(listed, 1);
  EXPECT_EQ(checked, 0);
  EXPECT_EQ(parse(flags, {}).code, std::nullopt);
  EXPECT_EQ(checked, 1);
}

TEST(CliFlags, ChecksRunAfterEveryFlagAndFailAsUsageErrors) {
  std::string socket;
  Flags flags("prog", "[options]");
  flags.value("--socket", "PATH", "", socket).check([&] {
    if (socket.empty()) throw std::invalid_argument("--socket: is required");
  });
  expect_usage_error(parse(flags, {}), "--socket: is required");
  EXPECT_EQ(parse(flags, {"--socket", "s"}).code, std::nullopt);
}

TEST(CliFlags, ObsFlagsNeedMetricsForAStream) {
  ObsFlags obs;
  Flags flags("prog", "[options]");
  obs.add_to(flags);
  expect_usage_error(parse(flags, {"--metrics-interval-ms", "5"}),
                     "--metrics-interval-ms: requires --metrics");
  // 0 is "no stream", so it needs nothing.
  EXPECT_EQ(parse(flags, {"--metrics-interval-ms", "0"}).code, std::nullopt);
  EXPECT_EQ(parse(flags, {"--metrics", "m.json", "--metrics-interval-ms",
                          "5"})
                .code,
            std::nullopt);
  EXPECT_EQ(obs.metrics, "m.json");
  EXPECT_EQ(obs.metrics_interval_ms, 5.0);
}

}  // namespace
}  // namespace manytiers::cli
