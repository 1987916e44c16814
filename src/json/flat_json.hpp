// flat_json: the one JSON codec every line format of this codebase uses.
//
// BATCH_JSON reports, ORCH_MANIFEST and ORCH_JSON lines, the metrics
// sidecar / series / trace files, the serve wire protocol and the
// SERVE_JSON lifecycle lines are all one JSON object per line. Values are
// scalars, arrays of numbers, [a,b] pairs, or flat objects one level down
// (the stats histograms, the schedule tiers). This module writes and
// reads exactly that, strictly:
//
//   * Strings: `"`, `\` and newline are written as \" \\ \n, every other
//     byte below 0x20 as \u00xx; all other bytes (UTF-8 included) pass
//     through. The reader decodes the full JSON escape set, \uXXXX
//     (surrogate pairs included) to UTF-8, and rejects raw control bytes.
//   * Numbers: doubles are written with std::to_chars(general, 17), which
//     the standard defines as printf("%.17g"), so every double reads back
//     bit-exactly. A number is read only if std::from_chars consumes the
//     whole token (so the inf/nan tokens the writer emits read back);
//     unsigned fields take no sign. Garbage throws, never reads as 0.
//   * Objects: one pass over the text; keys match exactly, so field order
//     is free; unknown keys are skipped; a duplicate key is an error.
//   * Framing: a JSON array with one record per line (join_records /
//     split_records), the layout of the sidecar, series and trace files.
//
// Every reader error is a std::invalid_argument. The module depends on
// the standard library only, so it sits below obs, the bottom library.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

namespace manytiers::json {

// ---------------------------------------------------------------- writer

void write_string(std::string& out, std::string_view text);
void write_number(std::string& out, double value);
// printf("%.*f")-style fixed point, for the ORCH_JSON millisecond fields.
void write_fixed(std::string& out, double value, int decimals);
// `value` exactly as write_number prints it.
std::string number_text(double value);

namespace detail {
template <typename T>
struct is_pair : std::false_type {};
template <typename A, typename B>
struct is_pair<std::pair<A, B>> : std::true_type {};
}  // namespace detail

// Any value this codec carries: bool, integer, floating point, string, a
// std::pair (written as a two-element array), or a range of those.
template <typename T>
void write(std::string& out, const T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    out += value ? "true" : "false";
  } else if constexpr (std::is_integral_v<T>) {
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
  } else if constexpr (std::is_floating_point_v<T>) {
    write_number(out, static_cast<double>(value));
  } else if constexpr (std::is_convertible_v<const T&, std::string_view>) {
    write_string(out, value);
  } else if constexpr (detail::is_pair<T>::value) {
    out += '[';
    write(out, value.first);
    out += ',';
    write(out, value.second);
    out += ']';
  } else {
    out += '[';
    bool first = true;
    for (const auto& element : value) {
      if (!first) out += ',';
      first = false;
      write(out, element);
    }
    out += ']';
  }
}

// Appends `"name":` — the caller appends the value.
std::string& write_key(std::string& out, std::string_view name);

// One object appended to a caller-owned string:
//   json::Writer(line).field("id", 7).field("name", name).close();
class Writer {
 public:
  explicit Writer(std::string& out) : out_(&out) { out += '{'; }

  // Appends the separator and `"name":`; the caller appends the value
  // (with json::write, or pre-rendered JSON such as a nested object).
  std::string& key(std::string_view name) {
    if (!first_) *out_ += ',';
    first_ = false;
    return write_key(*out_, name);
  }
  template <typename T>
  Writer& field(std::string_view name, const T& value) {
    write(key(name), value);
    return *this;
  }
  std::string& close() {
    *out_ += '}';
    return *out_;
  }

 private:
  std::string* out_;
  bool first_ = true;
};

// ---------------------------------------------------------------- reader

// Strict number reader for one bare token (a CLI flag value, a field of
// the netdyn update DSL): std::from_chars must consume all of it, unsigned
// types take no sign, and narrower integer types are range-checked.
// Errors name `what`, e.g. `--threads: expected an unsigned integer, got
// "-1"`.
template <typename T>
T parse_number(std::string_view token, std::string_view what);

namespace detail {
struct Scanner;
}  // namespace detail

// One value of a parsed object, viewing the source text (which must
// outlive it). text() is the exact token: a string keeps its quotes, an
// array or object its brackets.
class Value {
 public:
  enum class Type : std::uint8_t { String, Number, Bool, Null, Array, Object };

  // Trivial, so an Object's field table costs nothing to declare.
  Value() = default;

  Type type() const { return type_; }
  std::string_view text() const { return {begin_, size_}; }
  bool escaped() const { return escaped_; }  // a string with \ escapes

 private:
  friend struct detail::Scanner;
  Value(const char* begin, std::size_t size, Type type, bool escaped)
      : begin_(begin), size_(size), type_(type), escaped_(escaped) {}

  const char* begin_;
  std::size_t size_;
  Type type_;
  bool escaped_;
};

// One JSON object, read in a single pass over `text` (which must outlive
// the Object). Allocation-free: fields live in a fixed table.
class Object {
 public:
  static constexpr std::size_t kMaxFields = 32;

  struct Field {
    Value key;  // the key's string token
    Value value;
    std::string name() const;  // the decoded key
  };

  // `context` leads every error message ("serve protocol", ...); it must
  // outlive the Object. Throws unless `text` is exactly one object,
  // surrounding whitespace aside.
  explicit Object(std::string_view text,
                  std::string_view context = "flat_json");
  // An object-typed value, e.g. one element of an array of objects.
  Object(const Value& value, std::string_view context);

  const Value* find(std::string_view key) const;
  const Value& at(std::string_view key) const;  // throws when absent

  // The value at `key` as bool, an integer, a floating-point type,
  // std::string, std::pair<A, B> (a two-element array) or std::vector<T>
  // (an array). Throws on a missing key or any mismatch, naming the key.
  template <typename T>
  T get(std::string_view key) const {
    return convert<T>(at(key), key);
  }
  // As get, but an absent key is std::nullopt.
  template <typename T>
  std::optional<T> get_optional(std::string_view key) const {
    const Value* value = find(key);
    if (value == nullptr) return std::nullopt;
    return convert<T>(*value, key);
  }

  // Calls f(const Object&) on each element of the array at `key`; every
  // element must be an object.
  template <typename F>
  void for_each_object(std::string_view key, F&& f) const;

  const Field* begin() const { return fields_; }
  const Field* end() const { return fields_ + size_; }

 private:
  template <typename T>
  T convert(const Value& value, std::string_view key) const;
  void parse(std::string_view text);

  Field fields_[kMaxFields];
  std::size_t size_ = 0;
  std::string_view context_;
};

// ------------------------------------------------------------- framing

// A JSON array with one record per line: "[\n" r0 ",\n" r1 "\n]\n".
std::string join_records(const std::vector<std::string>& records);
// The record lines of such a text, without their separating commas.
// Throws unless the text is "[" / records / "]" with a comma after every
// record but the last and each record line opening '{' and closing '}'.
std::vector<std::string_view> split_records(std::string_view text,
                                            std::string_view context);

// --------------------------------------------------- template internals

namespace detail {

// Error location: "<context>: field \"<key>\": ..." (key may be empty).
struct Where {
  std::string_view context;
  std::string_view key;
};

[[noreturn]] void fail(const Where& where, std::string_view what);
[[noreturn]] void fail_token(const Where& where, std::string_view expected,
                             std::string_view token);

std::string read_string(const Value& value, const Where& where);
bool read_bool(const Value& value, const Where& where);
void expect_type(const Value& value, Value::Type type, const Where& where);

// Walks the elements of an array-typed value in order.
class Elements {
 public:
  explicit Elements(const Value& array)
      : pos_(array.text().data() + 1),
        end_(array.text().data() + array.text().size() - 1) {}
  // The next element into `out`; false after the last one.
  bool next(Value& out);

 private:
  const char* pos_;
  const char* end_;
  bool first_ = true;
};

template <typename T>
struct is_vector : std::false_type {};
template <typename T, typename A>
struct is_vector<std::vector<T, A>> : std::true_type {};

template <typename T>
T number_from(std::string_view token, const Where& where) {
  T value{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc{} || ptr != end) {
    fail_token(where,
               ec == std::errc::result_out_of_range ? "a number in range"
               : std::is_floating_point_v<T>        ? "a number"
               : std::is_unsigned_v<T>              ? "an unsigned integer"
                                                    : "an integer",
               token);
  }
  return value;
}

template <typename T>
T convert(const Value& value, const Where& where) {
  if constexpr (std::is_same_v<T, bool>) {
    return read_bool(value, where);
  } else if constexpr (std::is_arithmetic_v<T>) {
    expect_type(value, Value::Type::Number, where);
    return number_from<T>(value.text(), where);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return read_string(value, where);
  } else if constexpr (is_pair<T>::value) {
    expect_type(value, Value::Type::Array, where);
    Elements elements(value);
    Value first{}, second{}, extra{};
    if (!elements.next(first) || !elements.next(second) ||
        elements.next(extra)) {
      fail(where, "expected a two-element array");
    }
    return T{convert<typename T::first_type>(first, where),
             convert<typename T::second_type>(second, where)};
  } else {
    static_assert(is_vector<T>::value, "unsupported json value type");
    expect_type(value, Value::Type::Array, where);
    T out;
    Elements elements(value);
    Value element{};
    while (elements.next(element)) {
      out.push_back(convert<typename T::value_type>(element, where));
    }
    return out;
  }
}

}  // namespace detail

template <typename T>
T parse_number(std::string_view token, std::string_view what) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  return detail::number_from<T>(token, {what, {}});
}

template <typename T>
T Object::convert(const Value& value, std::string_view key) const {
  return detail::convert<T>(value, {context_, key});
}

template <typename F>
void Object::for_each_object(std::string_view key, F&& f) const {
  const Value& array = at(key);
  detail::expect_type(array, Value::Type::Array, {context_, key});
  detail::Elements elements(array);
  Value element{};
  while (elements.next(element)) f(Object(element, context_));
}

}  // namespace manytiers::json
