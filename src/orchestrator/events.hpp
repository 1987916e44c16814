// Structured event log for the shard orchestrator.
//
// Every supervision decision (spawn, exit, timeout, retry, corrupt part,
// merge, final verdict) is emitted as one "ORCH_JSON {...}" line — the
// same one-object-per-line convention as BATCH_JSON / BENCH_JSON — so a
// user can `tail -f` a run and tests can assert on the exact sequence of
// decisions without scraping human-formatted text.
#pragma once

#include <chrono>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <string_view>

namespace manytiers::orchestrator {

// One event under construction. Field order is preserved; values are
// emitted as JSON strings or bare numbers (doubles with 3 decimals).
class Event {
 public:
  explicit Event(std::string_view type);

  Event& field(std::string_view key, std::string_view value);
  Event& field(std::string_view key, const char* value);
  Event& field(std::string_view key, std::size_t value);
  Event& field(std::string_view key, long value);
  Event& field(std::string_view key, double value);

  // The full log line, e.g.
  //   ORCH_JSON {"type":"spawn","shard":1,"attempt":0,"pid":4242}
  std::string line() const;

 private:
  std::string text_;  // the object so far, without its closing brace
};

// Sink for events. Construct with a stream to emit (flushed per line, so
// `tail -f` sees events as they happen); default-construct to drop them.
// Every event is stamped with "t_ms": milliseconds since the log was
// created.
class EventLog {
 public:
  EventLog() = default;                 // disabled: write() drops events
  explicit EventLog(std::ostream& os);  // not owned; must outlive the log

  void write(Event event);

  double elapsed_ms() const;

 private:
  std::ostream* os_ = nullptr;
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

}  // namespace manytiers::orchestrator
