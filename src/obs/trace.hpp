// Chrome-trace-event tracing: RAII spans that render as a flame view in
// Perfetto (https://ui.perfetto.dev) or chrome://tracing.
//
// The trace file is a valid JSON array of trace events, one event per
// line — the flat_json record framing, which is what lets the
// orchestrator stitch several workers' files into one merged timeline
// line by line (read_trace_events / write_trace_file below). Timestamps are
// microseconds on a shared wall-clock epoch (system_clock anchor +
// steady_clock deltas), so events from different processes land on one
// coherent timeline, and every event carries the emitting process's
// real pid: a sharded run renders as one flame view with a track per
// worker process and a row per thread.
//
// Cost model mirrors the registry: a Span constructed while tracing is
// inactive is one relaxed load of a global flag and nothing else.
// Tracing is enabled with Tracer::start(path) (wired to `--trace` /
// MANYTIERS_TRACE) and the buffer is written out by flush(), which also
// runs automatically at process exit — a worker that returns from
// main() always leaves a complete, parseable trace behind.
//
// Span pairs are emitted as "B"/"E" duration events (begin at
// construction, end at destruction, same pid/tid), which is what keeps
// nested spans readable as a stack; supervisor-side lifecycle spans use
// "X" complete events with explicit track coordinates (the supervisor
// knows both endpoints when it emits). Enabling tracing never changes
// what any binary computes or reports — the byte-identity ctest holds
// a traced and an untraced batch run to identical BATCH_JSON.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "json/flat_json.hpp"

namespace manytiers::obs {

class Tracer {
 public:
  static Tracer& instance();

  // Enable tracing and remember the output path. Registers an atexit
  // flush on first use; calling start again just switches the path.
  void start(std::string path);
  bool active() const;

  // Microseconds on the shared cross-process timeline (wall-clock
  // anchored, steady-clock advanced). Valid whether or not tracing is
  // active, so callers can record timestamps they may only emit later.
  std::uint64_t now_us() const;

  // Small integer id of the calling thread (0 = first caller, usually
  // main). Threads spawned by parallel_for override this with their
  // chunk ordinal so repeated fan-outs reuse the same trace rows.
  static long current_tid();

  // Explicit event API (the RAII Span uses begin/end). All of these
  // drop the event when tracing is inactive. `args_json` must be a
  // complete JSON object ("{...}") or empty.
  void begin(std::string_view name, long tid, std::string_view args_json = {});
  void end(long tid);
  void instant(std::string_view name, long tid,
               std::string_view args_json = {});
  void complete(std::string_view name, std::uint64_t ts_us,
                std::uint64_t dur_us, long pid, long tid,
                std::string_view args_json = {});
  // Metadata: names the current process in the Perfetto track list.
  void set_process_name(std::string_view name);

  // --- Deterministic span sampling (`--trace-sample N`) ---
  //
  // Keeps roughly 1/N of per-task spans: a span keyed by a stable task
  // id is kept iff splitmix64(key) % N == 0. The decision is a pure
  // function of (key, N), so every worker process of a sharded run
  // makes the SAME keep/drop choice for the same global task — stitched
  // traces stay consistent instead of sampling different tasks per
  // worker. n == 0 or 1 disables sampling (keep everything).
  //
  // Only bulk per-task spans consult sample_keep(); lifecycle and
  // supervisor spans (worker attempts, phases, reloads) are always
  // emitted — sampling thins the 10^6-task floodplain, not the
  // structure above it.
  void set_sample_every(std::uint64_t n);
  std::uint64_t sample_every() const;
  // True when tracing is active AND this key survives the sampler.
  bool sample_keep(std::uint64_t key) const;

  // Write the buffered events to the path as a JSON array (temp file +
  // rename, so a reader never sees a torn array). Idempotent; keeps
  // the buffer so a later flush rewrites the complete file.
  void flush();

 private:
  Tracer() = default;
  void push(std::string line);

  struct Impl;
  static Impl* impl();  // lazily constructed, leaked on purpose (atexit-safe)
};

// RAII span on the current thread's track of the current process.
// `tid_override >= 0` pins the event to a specific trace row (used by
// parallel_for worker chunks).
class Span {
 public:
  explicit Span(std::string_view name, std::string_view args_json = {},
                long tid_override = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool emitted_ = false;
  long tid_ = 0;
};

namespace detail {
inline void add_fields(json::Writer&) {}
template <typename V, typename... Rest>
void add_fields(json::Writer& writer, std::string_view name, const V& value,
                const Rest&... rest) {
  writer.field(name, value);
  add_fields(writer, rest...);
}
}  // namespace detail

// A span's args object from alternating names and values, written with
// the JSON codec — trace_args("n", n, "b_max", b) is {"n":400,"b_max":6}
// — and built only while tracing is active, so an untraced call costs
// the Span's one relaxed load and returns an empty string.
template <typename... NamesAndValues>
std::string trace_args(const NamesAndValues&... fields) {
  std::string out;
  if (Tracer::instance().active()) {
    json::Writer writer(out);
    detail::add_fields(writer, fields...);
    writer.close();
  }
  return out;
}

// Enable tracing from MANYTIERS_TRACE when set and not already active —
// the hook for flagless binaries (the bench suite calls this once).
void maybe_start_trace_from_env();

// --- Event rendering (the Tracer's, and the orchestrator's own buffer) ---

// One "X" complete event; `args_json` is a JSON object or empty.
std::string complete_event(std::string_view name, std::uint64_t ts_us,
                           std::uint64_t dur_us, long pid, long tid,
                           std::string_view args_json = {});
// One thread-scoped "i" instant event.
std::string instant_event(std::string_view name, std::uint64_t ts_us, long pid,
                          long tid, std::string_view args_json = {});
// The "M" metadata event naming process `pid` in the track list.
std::string process_name_event(long pid, std::string_view name);

// --- Trace file stitching (the orchestrator's merge) ---

// Read one trace file written by Tracer::flush (or any one-event-per-
// line JSON array) and return the raw event object strings. Throws
// std::invalid_argument when the file is not a line-formatted array of
// JSON objects.
std::vector<std::string> read_trace_events(const std::string& path);

// Write raw event object strings as a valid JSON trace array.
void write_trace_file(const std::string& path,
                      const std::vector<std::string>& events);

}  // namespace manytiers::obs
