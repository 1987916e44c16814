// Test-side parser for the ORCH_JSON event-log line format, on the
// flat_json codec.
//
// This is the consumer contract for the "v" schema-version field on plan
// events: v1 readers accept v1 logs (and unversioned pre-v1 logs, which
// are treated as v1), and REFUSE logs stamped with a higher major
// version instead of silently misreading fields whose meaning may have
// changed. Field values are kept as raw JSON value text ("smoke" keeps
// its quotes, numbers stay unparsed) — tests compare against literals.
//
// EXPERIMENTS.md documents every event kind this parser may encounter.
#pragma once

#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "json/flat_json.hpp"

namespace manytiers::orchestrator::test {

inline constexpr std::size_t kSupportedOrchSchemaVersion = 1;

struct ParsedEvent {
  std::string type;
  std::map<std::string, std::string> fields;  // key -> raw JSON value text

  bool has(const std::string& key) const { return fields.count(key) != 0; }
  const std::string& at(const std::string& key) const {
    const auto it = fields.find(key);
    if (it == fields.end()) {
      throw std::out_of_range("event \"" + type + "\" has no field \"" + key +
                              "\"");
    }
    return it->second;
  }
};

// Parse one "ORCH_JSON {...}" line (the prefix is optional so raw Event
// lines can be fed in directly). Throws std::invalid_argument on
// structurally broken lines and on plan events with an unsupported
// major schema version.
inline ParsedEvent parse_event_line(const std::string& line) {
  std::string_view body = line;
  const std::string_view prefix = "ORCH_JSON ";
  if (body.substr(0, prefix.size()) == prefix) {
    body.remove_prefix(prefix.size());
  }
  const json::Object object(body, "ORCH_JSON");

  ParsedEvent event;
  for (const auto& field : object) {
    event.fields[field.name()] = std::string(field.value.text());
  }
  event.type = object.get<std::string>("type");
  if (event.type == "plan") {
    // Unversioned plan events predate "v" and mean v1.
    const std::size_t version =
        object.get_optional<std::size_t>("v").value_or(1);
    if (version > kSupportedOrchSchemaVersion) {
      throw std::invalid_argument(
          "unsupported ORCH_JSON schema version " + std::to_string(version) +
          " (this reader understands <= " +
          std::to_string(kSupportedOrchSchemaVersion) + ")");
    }
  }
  return event;
}

// Parse a whole event log, skipping non-ORCH_JSON lines (worker noise
// may be interleaved when the log shares a stream with stderr).
inline std::vector<ParsedEvent> parse_event_log(const std::string& text) {
  std::vector<ParsedEvent> events;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("ORCH_JSON ", 0) != 0) continue;
    events.push_back(parse_event_line(line));
  }
  return events;
}

}  // namespace manytiers::orchestrator::test
