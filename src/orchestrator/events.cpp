#include "orchestrator/events.hpp"

#include <ostream>

#include "json/flat_json.hpp"

namespace manytiers::orchestrator {

Event::Event(std::string_view type) {
  json::Writer(text_).field("type", type);  // closed by line()
}

Event& Event::field(std::string_view key, std::string_view value) {
  json::write(json::write_key(text_ += ',', key), value);
  return *this;
}

Event& Event::field(std::string_view key, const char* value) {
  return field(key, std::string_view(value));
}

Event& Event::field(std::string_view key, std::size_t value) {
  json::write(json::write_key(text_ += ',', key), value);
  return *this;
}

Event& Event::field(std::string_view key, long value) {
  json::write(json::write_key(text_ += ',', key), value);
  return *this;
}

Event& Event::field(std::string_view key, double value) {
  json::write_fixed(json::write_key(text_ += ',', key), value, 3);
  return *this;
}

std::string Event::line() const { return "ORCH_JSON " + text_ + '}'; }

EventLog::EventLog(std::ostream& os) : os_(&os) {}

void EventLog::write(Event event) {
  if (os_ == nullptr) return;
  event.field("t_ms", elapsed_ms());
  *os_ << event.line() << '\n' << std::flush;
}

double EventLog::elapsed_ms() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

}  // namespace manytiers::orchestrator
