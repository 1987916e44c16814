// The flat_json codec on its own: the escape set, the number writer
// against printf("%.17g"), strict reading, exact keys, and the record
// framing. The formats built on it are covered by formats_test.cpp.
#include "json/flat_json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

namespace manytiers::json {
namespace {

std::string quoted(std::string_view text) {
  std::string out;
  write_string(out, text);
  return out;
}

std::string decoded(std::string_view object_text) {
  return Object(object_text).get<std::string>("s");
}

TEST(Writer, EscapesQuoteBackslashNewlineAndControlBytes) {
  EXPECT_EQ(quoted("plain"), "\"plain\"");
  EXPECT_EQ(quoted("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
  EXPECT_EQ(quoted(std::string_view("\0\x01\t\r\x1f", 5)),
            "\"\\u0000\\u0001\\u0009\\u000d\\u001f\"");
  // DEL and UTF-8 pass through untouched.
  EXPECT_EQ(quoted("\x7f\xc3\xa9\xf0\x9f\x98\x80"),
            "\"\x7f\xc3\xa9\xf0\x9f\x98\x80\"");
}

TEST(Writer, EveryByteRoundTrips) {
  std::string all;
  for (int c = 0; c < 256; ++c) all += static_cast<char>(c);
  std::string object;
  Writer(object).field("s", all).close();
  EXPECT_EQ(decoded(object), all);
}

TEST(Writer, WritesObjectsArraysAndPairs) {
  std::string out;
  Writer writer(out);
  writer.field("b", true)
      .field("i", -3)
      .field("u", std::uint64_t{18446744073709551615u})
      .field("x", 0.1)
      .field("v", std::vector<double>{1.5, -0.0})
      .field("p", std::vector<std::pair<std::string, long>>{{"n", 2}});
  writer.key("raw") += "{\"k\":1}";
  writer.close();
  EXPECT_EQ(out,
            "{\"b\":true,\"i\":-3,\"u\":18446744073709551615,"
            "\"x\":0.10000000000000001,\"v\":[1.5,-0],\"p\":[[\"n\",2]],"
            "\"raw\":{\"k\":1}}");
}

// to_chars(general, 17) is specified as printf("%.17g"); hold the
// implementation to it, and from_chars must read every value back.
TEST(Writer, NumbersMatchPrintfAndReadBackBitExactly) {
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 0.1, 1e21, 1e-7, 123456789012345678.0,
      std::numeric_limits<double>::max(), std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN()};
  std::mt19937_64 rng(20111112);
  std::uniform_real_distribution<double> uniform(-1e6, 1e6);
  for (int i = 0; i < 50000; ++i) {
    values.push_back(std::bit_cast<double>(rng()));
    values.push_back(uniform(rng));
  }
  for (const double value : values) {
    char expected[40];
    std::snprintf(expected, sizeof expected, "%.17g", value);
    const std::string text = number_text(value);
    ASSERT_EQ(text, expected);
    const double back = parse_number<double>(text, "test");
    if (std::isnan(value)) {
      EXPECT_TRUE(std::isnan(back));
      EXPECT_EQ(std::signbit(back), std::signbit(value)) << text;
    } else {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(back),
                std::bit_cast<std::uint64_t>(value))
          << text;
    }
  }
}

TEST(Writer, FixedMatchesPrintf) {
  for (const double value : {0.0, 12.5, 1234.56789, -0.0004, 1e15}) {
    char expected[64];
    std::snprintf(expected, sizeof expected, "%.3f", value);
    std::string out;
    write_fixed(out, value, 3);
    EXPECT_EQ(out, expected);
  }
}

TEST(Reader, DecodesTheFullEscapeSet) {
  EXPECT_EQ(decoded(R"({"s":"\"\\\/\b\f\n\r\t"})"), "\"\\/\b\f\n\r\t");
  EXPECT_EQ(decoded(R"({"s":"Aé€"})"), "A\xc3\xa9\xe2\x82\xac");
  EXPECT_EQ(decoded(R"({"s":"😀"})"), "\xf0\x9f\x98\x80");
  EXPECT_EQ(decoded(R"({"s":"\u0000"})"), std::string(1, '\0'));
}

TEST(Reader, RejectsMalformedStrings) {
  for (const char* bad : {
           R"({"s":"unterminated})",
           R"({"s":"bad \x escape"})",
           R"({"s":"\u12"})",
           R"({"s":"\u12G4"})",
           R"({"s":"\ud83d"})",         // lone high surrogate
           R"({"s":"\ude00"})",         // lone low surrogate
           R"({"s":"\ud83dA"})",   // high surrogate, no low half
           "{\"s\":\"raw\ttab\"}",      // control bytes must be escaped
       }) {
    EXPECT_THROW(Object{bad}, std::invalid_argument) << bad;
  }
}

TEST(Reader, RejectsMalformedObjects) {
  for (const char* bad : {
           "", "[]", "{", "{\"a\":1", "{\"a\":1,}", "{\"a\" 1}", "{a:1}",
           "{\"a\":1}x", "{\"a\":1}{}", "{\"a\":}", "{\"a\":[1,2}",
           "{\"a\":[1 2]}", "{\"a\":1,\"a\":2}",
           "{\"a\":[[[[[[[[[[1]]]]]]]]]]}",  // nested past the depth cap
       }) {
    EXPECT_THROW(Object{bad}, std::invalid_argument) << bad;
  }
  std::string wide = "{";
  for (std::size_t i = 0; i <= Object::kMaxFields; ++i) {
    wide += (i ? ",\"k" : "\"k") + std::to_string(i) + "\":0";
  }
  EXPECT_THROW(Object{wide + "}"}, std::invalid_argument);
}

TEST(Reader, KeysMatchExactlyInAnyOrder) {
  // A substring scanner finds "id": inside the string value first.
  const Object object(R"( {"name":"\"id\":5","xid":3, "id" : 7 } )");
  EXPECT_EQ(object.get<int>("id"), 7);
  EXPECT_EQ(object.get<int>("xid"), 3);
  EXPECT_EQ(object.get<std::string>("name"), "\"id\":5");
  EXPECT_EQ(object.find("i"), nullptr);
  EXPECT_FALSE(object.get_optional<int>("missing").has_value());
  // An escaped key decodes before it is compared.
  EXPECT_EQ(Object(R"({"\u0069d":4})").get<int>("id"), 4);
  EXPECT_THROW(Object(R"({"id":1,"id":2})"), std::invalid_argument);
}

TEST(Reader, UnknownKeysAreSkippedButStillWellFormed) {
  const Object object(R"({"future":{"x":[1,"two",null,true]},"id":1})");
  EXPECT_EQ(object.get<int>("id"), 1);
  EXPECT_THROW(Object(R"({"future":{"x":[1,}},"id":1})"),
               std::invalid_argument);
}

TEST(Reader, NumbersAreStrict) {
  const Object object(
      R"({"u":18446744073709551615,"neg":-1,"over":18446744073709551616,)"
      R"("junk":12abc,"exp":1e5,"frac":2.5,"huge":1e999,"inf":-inf,)"
      R"("nan":nan,"str":"7","t":true})");
  EXPECT_EQ(object.get<std::uint64_t>("u"), 18446744073709551615u);
  EXPECT_EQ(object.get<int>("neg"), -1);
  EXPECT_THROW(object.get<std::uint64_t>("neg"), std::invalid_argument);
  EXPECT_THROW(object.get<std::uint64_t>("over"), std::invalid_argument);
  EXPECT_THROW(object.get<double>("junk"), std::invalid_argument);
  EXPECT_THROW(object.get<std::uint64_t>("exp"), std::invalid_argument);
  EXPECT_EQ(object.get<double>("exp"), 1e5);
  EXPECT_THROW(object.get<std::size_t>("frac"), std::invalid_argument);
  EXPECT_THROW(object.get<double>("huge"), std::invalid_argument);
  EXPECT_EQ(object.get<double>("inf"),
            -std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isnan(object.get<double>("nan")));
  EXPECT_THROW(object.get<int>("str"), std::invalid_argument);
  EXPECT_THROW(object.get<int>("t"), std::invalid_argument);
  EXPECT_TRUE(object.get<bool>("t"));
  EXPECT_THROW(object.get<std::uint8_t>("u"), std::invalid_argument);
  try {
    object.get<double>("junk");
    FAIL() << "12abc parsed";
  } catch (const std::invalid_argument& err) {
    EXPECT_STREQ(err.what(),
                 R"(flat_json: field "junk": expected a number, got "12abc")");
  }
}

TEST(Reader, ArraysPairsAndObjects) {
  const Object object(
      R"({"v":[1,2.5,-3],"p":[[5,2],[6,1]],"named":[["a",-1]],)"
      R"("objs":[{"x":1},{"x":2}],"bad_pair":[[1,2,3]]})");
  EXPECT_EQ(object.get<std::vector<double>>("v"),
            (std::vector<double>{1, 2.5, -3}));
  EXPECT_EQ((object.get<std::vector<std::pair<std::size_t, std::uint64_t>>>(
                "p")),
            (std::vector<std::pair<std::size_t, std::uint64_t>>{{5, 2},
                                                                 {6, 1}}));
  EXPECT_EQ((object.get<std::vector<std::pair<std::string, long>>>("named")),
            (std::vector<std::pair<std::string, long>>{{"a", -1}}));
  std::vector<int> xs;
  object.for_each_object("objs", [&](const Object& element) {
    xs.push_back(element.get<int>("x"));
  });
  EXPECT_EQ(xs, (std::vector<int>{1, 2}));
  EXPECT_THROW((object.get<std::vector<std::pair<int, int>>>("bad_pair")),
               std::invalid_argument);
  EXPECT_THROW(object.for_each_object("v", [](const Object&) {}),
               std::invalid_argument);
  EXPECT_EQ(object.at("v").text(), "[1,2.5,-3]");
}

TEST(ParseNumber, NamesTheFlagAndTakesNoSignForUnsigned) {
  EXPECT_EQ(parse_number<std::size_t>("42", "--threads"), 42u);
  EXPECT_EQ(parse_number<double>("1.5", "--q"), 1.5);
  for (const char* bad : {"-1", "+1", " 1", "1 ", "12abc", "", "0x10"}) {
    EXPECT_THROW(parse_number<std::size_t>(bad, "--threads"),
                 std::invalid_argument)
        << bad;
  }
  try {
    parse_number<double>("abc", "--q");
    FAIL() << "abc parsed";
  } catch (const std::invalid_argument& err) {
    EXPECT_STREQ(err.what(), "--q: expected a number, got \"abc\"");
  }
  EXPECT_THROW(parse_number<int>("3000000000", "--retry-ms"),
               std::invalid_argument);
}

TEST(Framing, RecordsRoundTripOnePerLine) {
  const std::vector<std::string> records = {"{\"a\":1}", "{\"b\":[2]}"};
  const std::string text = join_records(records);
  EXPECT_EQ(text, "[\n{\"a\":1},\n{\"b\":[2]}\n]\n");
  const auto lines = split_records(text, "test");
  EXPECT_EQ(std::vector<std::string>(lines.begin(), lines.end()), records);
  EXPECT_TRUE(split_records(join_records({}), "test").empty());
}

TEST(Framing, RejectsBrokenArrays) {
  for (const char* bad : {
           "", "{\"a\":1}\n", "[\n{\"a\":1}\n", "{\"a\":1}\n]\n",
           "[\n{\"a\":1}\n{\"b\":2}\n]\n",   // missing comma
           "[\n{\"a\":1},\n]\n",             // trailing comma
           "[\n{\"a\":1}\n]\n]\n", "[\nnot an object\n]\n",
       }) {
    EXPECT_THROW(split_records(bad, "test"), std::invalid_argument) << bad;
  }
}

}  // namespace
}  // namespace manytiers::json
