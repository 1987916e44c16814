#include "obs/trace.hpp"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "json/flat_json.hpp"

namespace manytiers::obs {

namespace {

std::atomic<bool> g_trace_active{false};

long next_tid() {
  static std::atomic<long> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}

// Sampling divisor; relaxed for the same reason as the active flag.
std::atomic<std::uint64_t> g_sample_every{0};

// splitmix64 finalizer: a cheap, well-mixed hash so sampling by
// `hash(key) % N` keeps an unbiased 1/N of tasks even when keys are
// sequential integers (key % N would keep every N-th cell column).
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

struct Tracer::Impl {
  std::mutex mutex;
  std::string path;
  std::vector<std::string> events;
  // Cross-process timeline anchor: wall-clock epoch captured once,
  // advanced by the steady clock (immune to NTP steps mid-run).
  std::chrono::system_clock::time_point wall_anchor =
      std::chrono::system_clock::now();
  std::chrono::steady_clock::time_point steady_anchor =
      std::chrono::steady_clock::now();
  long pid = static_cast<long>(::getpid());
};

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::Impl* Tracer::impl() {
  // Leaked on purpose: the atexit flush may run after static
  // destructors, so the buffer must never be destroyed.
  static Impl* impl = new Impl;
  return impl;
}

void Tracer::start(std::string path) {
  Impl* i = impl();
  {
    std::lock_guard<std::mutex> lock(i->mutex);
    i->path = std::move(path);
  }
  static std::once_flag exit_hook;
  std::call_once(exit_hook, [] {
    std::atexit([] { Tracer::instance().flush(); });
  });
  g_trace_active.store(true, std::memory_order_relaxed);
}

bool Tracer::active() const {
  return g_trace_active.load(std::memory_order_relaxed);
}

std::uint64_t Tracer::now_us() const {
  Impl* i = impl();
  const auto wall_us = std::chrono::duration_cast<std::chrono::microseconds>(
                           i->wall_anchor.time_since_epoch())
                           .count();
  const auto steady_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - i->steady_anchor)
          .count();
  return static_cast<std::uint64_t>(wall_us + steady_us);
}

long Tracer::current_tid() {
  thread_local const long tid = next_tid();
  return tid;
}

void Tracer::push(std::string line) {
  Impl* i = impl();
  std::lock_guard<std::mutex> lock(i->mutex);
  i->events.push_back(std::move(line));
}

void Tracer::begin(std::string_view name, long tid,
                   std::string_view args_json) {
  if (!active()) return;
  std::string event;
  json::Writer writer(event);
  writer.field("name", name).field("ph", "B").field("ts", now_us())
      .field("pid", impl()->pid).field("tid", tid);
  if (!args_json.empty()) writer.key("args") += args_json;
  writer.close();
  push(std::move(event));
}

void Tracer::end(long tid) {
  if (!active()) return;
  std::string event;
  json::Writer(event).field("ph", "E").field("ts", now_us())
      .field("pid", impl()->pid).field("tid", tid).close();
  push(std::move(event));
}

void Tracer::instant(std::string_view name, long tid,
                     std::string_view args_json) {
  if (!active()) return;
  push(instant_event(name, now_us(), impl()->pid, tid, args_json));
}

void Tracer::complete(std::string_view name, std::uint64_t ts_us,
                      std::uint64_t dur_us, long pid, long tid,
                      std::string_view args_json) {
  if (!active()) return;
  push(complete_event(name, ts_us, dur_us, pid, tid, args_json));
}

void Tracer::set_process_name(std::string_view name) {
  if (!active()) return;
  push(process_name_event(impl()->pid, name));
}

void Tracer::set_sample_every(std::uint64_t n) {
  g_sample_every.store(n, std::memory_order_relaxed);
}

std::uint64_t Tracer::sample_every() const {
  return g_sample_every.load(std::memory_order_relaxed);
}

bool Tracer::sample_keep(std::uint64_t key) const {
  if (!active()) return false;
  const std::uint64_t n = g_sample_every.load(std::memory_order_relaxed);
  if (n <= 1) return true;
  return splitmix64(key) % n == 0;
}

void Tracer::flush() {
  if (!active()) return;
  Impl* i = impl();
  std::string path;
  std::vector<std::string> events;
  {
    std::lock_guard<std::mutex> lock(i->mutex);
    path = i->path;
    events = i->events;  // copy: later spans keep accumulating
  }
  if (path.empty()) return;
  write_trace_file(path, events);
}

Span::Span(std::string_view name, std::string_view args_json,
           long tid_override) {
  Tracer& tracer = Tracer::instance();
  if (!tracer.active()) return;
  tid_ = tid_override >= 0 ? tid_override : Tracer::current_tid();
  tracer.begin(name, tid_, args_json);
  emitted_ = true;
}

Span::~Span() {
  if (emitted_) Tracer::instance().end(tid_);
}

void maybe_start_trace_from_env() {
  if (Tracer::instance().active()) return;
  if (const char* path = std::getenv("MANYTIERS_TRACE")) {
    if (path[0] != '\0') Tracer::instance().start(path);
  }
}

std::string complete_event(std::string_view name, std::uint64_t ts_us,
                           std::uint64_t dur_us, long pid, long tid,
                           std::string_view args_json) {
  std::string event;
  json::Writer writer(event);
  writer.field("name", name).field("ph", "X").field("ts", ts_us)
      .field("dur", dur_us).field("pid", pid).field("tid", tid);
  if (!args_json.empty()) writer.key("args") += args_json;
  writer.close();
  return event;
}

std::string instant_event(std::string_view name, std::uint64_t ts_us, long pid,
                          long tid, std::string_view args_json) {
  std::string event;
  json::Writer writer(event);
  writer.field("name", name).field("ph", "i").field("s", "t")
      .field("ts", ts_us).field("pid", pid).field("tid", tid);
  if (!args_json.empty()) writer.key("args") += args_json;
  writer.close();
  return event;
}

std::string process_name_event(long pid, std::string_view name) {
  std::string event;
  json::Writer writer(event);
  writer.field("name", "process_name").field("ph", "M").field("pid", pid)
      .field("tid", 0);
  json::Writer(writer.key("args")).field("name", name).close();
  writer.close();
  return event;
}

std::vector<std::string> read_trace_events(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::invalid_argument("read_trace_events: cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  const std::string context = "read_trace_events: " + path;
  std::vector<std::string> events;
  for (const std::string_view line : json::split_records(text, context)) {
    const json::Object event(line, context);  // each line is one event
    events.emplace_back(line);
  }
  return events;
}

void write_trace_file(const std::string& path,
                      const std::vector<std::string>& events) {
  // Temp-file + rename: a reader (the orchestrator stitching worker
  // traces) never observes a torn array. No fsync — a trace is
  // diagnostics, not data; the durability discipline stays reserved
  // for the report files.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("write_trace_file: cannot open " + tmp);
    }
    out << json::join_records(events);
    if (!out.good()) {
      throw std::runtime_error("write_trace_file: write failed for " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("write_trace_file: rename to " + path +
                             " failed");
  }
}

}  // namespace manytiers::obs
