#include "json/flat_json.hpp"

#include <charconv>

namespace manytiers::json {

namespace {

constexpr char kHex[] = "0123456789abcdef";

// Arrays and objects nest at most this deep (a stats response reaches
// 4: object, hists array, histogram object, buckets array, pair).
constexpr int kMaxDepth = 8;

bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

// Ends a bare token (number or literal).
bool is_delimiter(char c) {
  return is_space(c) || c == ',' || c == ':' || c == '"' || c == '[' ||
         c == ']' || c == '{' || c == '}';
}

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

unsigned hex4(const char* p) {
  unsigned unit = 0;
  for (int i = 0; i < 4; ++i) unit = unit * 16 + hex_digit(p[i]);
  return unit;
}

void append_utf8(std::string& out, unsigned cp) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xc0 | (cp >> 6));
    out += static_cast<char>(0x80 | (cp & 0x3f));
  } else if (cp < 0x10000) {
    out += static_cast<char>(0xe0 | (cp >> 12));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
    out += static_cast<char>(0x80 | (cp & 0x3f));
  } else {
    out += static_cast<char>(0xf0 | (cp >> 18));
    out += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
    out += static_cast<char>(0x80 | (cp & 0x3f));
  }
}

// Decodes the inside of a string token the scanner has validated.
void decode(std::string_view inner, std::string& out) {
  out.reserve(out.size() + inner.size());
  for (std::size_t i = 0; i < inner.size(); ++i) {
    if (inner[i] != '\\') {
      out += inner[i];
      continue;
    }
    const char kind = inner[++i];
    if (kind != 'u') {
      const std::size_t simple = std::string_view("bfnrt").find(kind);
      out += simple == std::string_view::npos ? kind : "\b\f\n\r\t"[simple];
      continue;
    }
    unsigned cp = hex4(inner.data() + i + 1);
    i += 4;
    if (cp >= 0xd800 && cp <= 0xdbff) {  // high half; "\uXXXX" follows
      cp = 0x10000 + ((cp - 0xd800) << 10) +
           (hex4(inner.data() + i + 3) - 0xdc00);
      i += 6;
    }
    append_utf8(out, cp);
  }
}

std::string_view inner(const Value& string) {
  return string.text().substr(1, string.text().size() - 2);
}

bool key_is(const Value& key, std::string_view name) {
  if (!key.escaped()) return inner(key) == name;
  std::string decoded;
  decode(inner(key), decoded);
  return decoded == name;
}

}  // namespace

// ---------------------------------------------------------------- writer

void write_string(std::string& out, std::string_view text) {
  out += '"';
  std::size_t run = 0;  // start of the bytes not yet copied
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(text.data() + run, i - run);
    run = i + 1;
    if (c == '"') {
      out += "\\\"";
    } else if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      const char escape[6] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
      out.append(escape, sizeof escape);
    }
  }
  out.append(text.data() + run, text.size() - run);
  out += '"';
}

void write_number(std::string& out, double value) {
  char buf[32];  // "-d.dddddddddddddddde-308" is 24 bytes
  const auto result = std::to_chars(buf, buf + sizeof buf, value,
                                    std::chars_format::general, 17);
  out.append(buf, result.ptr);
}

void write_fixed(std::string& out, double value, int decimals) {
  char buf[400];  // DBL_MAX has 309 integer digits
  const auto result = std::to_chars(buf, buf + sizeof buf, value,
                                    std::chars_format::fixed, decimals);
  if (result.ec != std::errc{}) {
    throw std::invalid_argument("flat_json: write_fixed: " +
                                std::to_string(decimals) +
                                " decimals do not fit");
  }
  out.append(buf, result.ptr);
}

std::string number_text(double value) {
  std::string out;
  write_number(out, value);
  return out;
}

std::string& write_key(std::string& out, std::string_view name) {
  write_string(out, name);
  out += ':';
  return out;
}

// ---------------------------------------------------------------- reader

namespace detail {

void fail(const Where& where, std::string_view what) {
  std::string message(where.context);
  if (!where.key.empty()) {
    message += ": field \"";
    message += where.key;
    message += '"';
  }
  message += ": ";
  message += what;
  throw std::invalid_argument(message);
}

void fail_token(const Where& where, std::string_view expected,
                std::string_view token) {
  constexpr std::size_t kShown = 64;  // hostile tokens can be megabytes
  std::string what = "expected ";
  what += expected;
  what += ", got ";
  write_string(what, token.substr(0, kShown));
  if (token.size() > kShown) what += "...";
  fail(where, what);
}

void expect_type(const Value& value, Value::Type type, const Where& where) {
  if (value.type() == type) return;
  static constexpr std::string_view kNames[] = {
      "a string", "a number", "a boolean", "null", "an array", "an object"};
  fail_token(where, kNames[static_cast<int>(type)], value.text());
}

std::string read_string(const Value& value, const Where& where) {
  expect_type(value, Value::Type::String, where);
  if (!value.escaped()) return std::string(inner(value));
  std::string out;
  decode(inner(value), out);
  return out;
}

bool read_bool(const Value& value, const Where& where) {
  expect_type(value, Value::Type::Bool, where);
  return value.text() == "true";
}

// One cursor over validated-as-it-goes JSON text.
struct Scanner {
  const char* pos;
  const char* end;
  Where where;

  [[noreturn]] void error(std::string_view what) const { fail(where, what); }

  void skip_space() {
    while (pos < end && is_space(*pos)) ++pos;
  }
  bool at(char c) const { return pos < end && *pos == c; }
  void expect(char c, std::string_view what) {
    if (!at(c)) error(what);
    ++pos;
  }

  // At the opening quote.
  Value string() {
    const char* begin = pos++;
    bool escaped = false;
    for (;;) {
      if (pos >= end) error("unterminated string");
      const auto c = static_cast<unsigned char>(*pos++);
      if (c == '"') break;
      if (c < 0x20) error("raw control byte in a string");
      if (c != '\\') continue;
      escaped = true;
      if (pos >= end) error("unterminated string");
      const char kind = *pos++;
      if (kind == 'u') {
        const unsigned unit = unicode_escape();
        if (unit >= 0xdc00 && unit <= 0xdfff) error("unpaired surrogate");
        if (unit >= 0xd800 && unit <= 0xdbff) {
          if (end - pos < 2 || pos[0] != '\\' || pos[1] != 'u') {
            error("unpaired surrogate");
          }
          pos += 2;
          const unsigned low = unicode_escape();
          if (low < 0xdc00 || low > 0xdfff) error("unpaired surrogate");
        }
      } else if (std::string_view("\"\\/bfnrt").find(kind) ==
                 std::string_view::npos) {
        error("bad escape in a string");
      }
    }
    return Value(begin, static_cast<std::size_t>(pos - begin),
                 Value::Type::String, escaped);
  }

  // The four hex digits after "\u".
  unsigned unicode_escape() {
    if (end - pos < 4) error("short \\u escape");
    for (int i = 0; i < 4; ++i) {
      if (hex_digit(pos[i]) < 0) error("bad \\u escape");
    }
    pos += 4;
    return hex4(pos - 4);
  }

  // At '{' or '['. Calls on_field(key, value) for each object member.
  template <typename OnField>
  Value compound(int depth, OnField&& on_field) {
    if (depth >= kMaxDepth) error("nested too deeply");
    const char* begin = pos;
    const bool object = *pos == '{';
    const char close = object ? '}' : ']';
    ++pos;
    skip_space();
    if (!at(close)) {
      for (;;) {
        if (object) {
          if (!at('"')) error("expected a key");
          const Value key = string();
          skip_space();
          expect(':', "expected ':'");
          skip_space();
          on_field(key, value(depth + 1));
        } else {
          value(depth + 1);
        }
        skip_space();
        if (at(close)) break;
        expect(',', object ? "expected ',' or '}'" : "expected ',' or ']'");
        skip_space();
      }
    }
    ++pos;
    return Value(begin, static_cast<std::size_t>(pos - begin),
                 object ? Value::Type::Object : Value::Type::Array, false);
  }

  Value value(int depth) {
    if (pos >= end) error("expected a value");
    if (*pos == '"') return string();
    if (*pos == '{' || *pos == '[') {
      return compound(depth, [](const Value&, const Value&) {});
    }
    const char* begin = pos;
    while (pos < end && !is_delimiter(*pos)) ++pos;
    const std::string_view token(begin, static_cast<std::size_t>(pos - begin));
    if (token.empty()) error("expected a value");
    // A number token is checked when it is read (as<T>).
    const Value::Type type = token == "true" || token == "false"
                                 ? Value::Type::Bool
                             : token == "null" ? Value::Type::Null
                                               : Value::Type::Number;
    return Value(begin, token.size(), type, false);
  }
};

bool Elements::next(Value& out) {
  Scanner scan{pos_, end_, {"flat_json", {}}};
  scan.skip_space();
  if (scan.pos == scan.end) return false;
  if (!first_) {
    scan.expect(',', "expected ','");
    scan.skip_space();
  }
  out = scan.value(1);
  first_ = false;
  pos_ = scan.pos;
  return true;
}

}  // namespace detail

std::string Object::Field::name() const {
  return detail::read_string(key, {"flat_json", {}});
}

Object::Object(std::string_view text, std::string_view context)
    : context_(context) {
  parse(text);
}

Object::Object(const Value& value, std::string_view context)
    : context_(context) {
  detail::expect_type(value, Value::Type::Object, {context_, {}});
  parse(value.text());
}

void Object::parse(std::string_view text) {
  detail::Scanner scan{text.data(), text.data() + text.size(), {context_, {}}};
  scan.skip_space();
  if (!scan.at('{')) scan.error("expected a JSON object");
  scan.compound(0, [&](const Value& key, const Value& value) {
    const std::string decoded = key.escaped() ? Field{key, value}.name() : "";
    if (find(key.escaped() ? decoded : inner(key)) != nullptr) {
      detail::fail({context_, inner(key)}, "duplicate key");
    }
    if (size_ == kMaxFields) scan.error("more fields than an object may hold");
    fields_[size_++] = Field{key, value};
  });
  scan.skip_space();
  if (scan.pos != scan.end) scan.error("trailing characters after the object");
}

const Value* Object::find(std::string_view key) const {
  for (std::size_t i = 0; i < size_; ++i) {
    if (key_is(fields_[i].key, key)) return &fields_[i].value;
  }
  return nullptr;
}

const Value& Object::at(std::string_view key) const {
  const Value* value = find(key);
  if (value == nullptr) detail::fail({context_, key}, "missing");
  return *value;
}

// ------------------------------------------------------------- framing

std::string join_records(const std::vector<std::string>& records) {
  std::string out = "[\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    out += records[i];
    if (i + 1 < records.size()) out += ',';
    out += '\n';
  }
  out += "]\n";
  return out;
}

std::vector<std::string_view> split_records(std::string_view text,
                                            std::string_view context) {
  std::vector<std::string_view> lines;
  while (!text.empty()) {
    const std::size_t eol = text.find('\n');
    std::string_view line = text.substr(0, eol);
    text.remove_prefix(eol == std::string_view::npos ? text.size() : eol + 1);
    while (!line.empty() && is_space(line.back())) line.remove_suffix(1);
    while (!line.empty() && is_space(line.front())) line.remove_prefix(1);
    if (!line.empty()) lines.push_back(line);
  }
  const detail::Where where{context, {}};
  if (lines.size() < 2 || lines.front() != "[" || lines.back() != "]") {
    detail::fail(where, "expected a JSON array with one record per line");
  }
  lines.pop_back();
  lines.erase(lines.begin());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::string_view& line = lines[i];
    const bool last = i + 1 == lines.size();
    if (!last) {
      if (line.back() != ',') detail::fail(where, "record not followed by ','");
      line.remove_suffix(1);
    }
    if (line.empty() || line.front() != '{' || line.back() != '}') {
      detail::fail_token(where, "one object per line", line);
    }
  }
  return lines;
}

}  // namespace manytiers::json
