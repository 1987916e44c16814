#include "obs/registry.hpp"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "json/flat_json.hpp"

namespace manytiers::obs {

namespace detail {

std::atomic<bool> g_enabled{false};

std::size_t this_thread_shard() {
  static std::atomic<std::size_t> next{0};
  // Round-robin assignment spreads concurrent threads across shards;
  // two threads only share a line after kShards distinct threads exist.
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return slot;
}

}  // namespace detail

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

ScopedEnable::ScopedEnable(bool on) : previous_(enabled()) { set_enabled(on); }
ScopedEnable::~ScopedEnable() { set_enabled(previous_); }

std::uint64_t Counter::value() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::reset() {
  for (auto& shard : shards_) {
    shard.value.store(0, std::memory_order_relaxed);
  }
}

std::size_t histogram_bucket(double value) {
  if (!(value >= 2.0)) return 0;  // [0, 2), negatives, and NaN
  const double capped =
      std::min(value, static_cast<double>(std::uint64_t{1} << 62));
  const auto u = static_cast<std::uint64_t>(capped);
  return std::min<std::size_t>(std::bit_width(u) - 1, kHistogramBuckets - 1);
}

double histogram_bucket_floor(std::size_t b) {
  if (b == 0) return 0.0;
  return std::ldexp(1.0, static_cast<int>(b));
}

double histogram_percentile(const HistogramSnapshot& h, double q) {
  if (h.count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-quantile recording, 1-based; q = 0 still asks for the
  // first recording so an all-zero histogram answers 0, not garbage.
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(h.count))));
  std::uint64_t seen = 0;
  for (const auto& [bucket, n] : h.buckets) {
    seen += n;
    if (seen >= rank) return histogram_bucket_floor(bucket);
  }
  // count disagrees with the bucket sum (clipped input): answer from
  // the last non-empty bucket rather than inventing a value.
  return h.buckets.empty() ? 0.0
                           : histogram_bucket_floor(h.buckets.back().first);
}

std::uint64_t wall_clock_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

void Histogram::record(double value) {
  if (!enabled()) return;
  Shard& shard = shards_[detail::this_thread_shard()];
  shard.buckets[histogram_bucket(value)].fetch_add(1,
                                                   std::memory_order_relaxed);
  shard.count.fetch_add(1, std::memory_order_relaxed);
  shard.sum.fetch_add(value, std::memory_order_relaxed);
}

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard.count.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::sum() const {
  double total = 0.0;
  for (const auto& shard : shards_) {
    total += shard.sum.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<std::uint64_t> Histogram::buckets() const {
  std::vector<std::uint64_t> out(kHistogramBuckets, 0);
  for (const auto& shard : shards_) {
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      out[b] += shard.buckets[b].load(std::memory_order_relaxed);
    }
  }
  return out;
}

void Histogram::reset() {
  for (auto& shard : shards_) {
    for (auto& bucket : shard.buckets) {
      bucket.store(0, std::memory_order_relaxed);
    }
    shard.count.store(0, std::memory_order_relaxed);
    shard.sum.store(0.0, std::memory_order_relaxed);
  }
}

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

Snapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Snapshot out;
  out.pid = static_cast<long>(::getpid());
  out.t_us = wall_clock_us();
  for (const auto& [name, counter] : counters_) {
    out.counters[name] = counter->value();
  }
  for (const auto& [name, gauge] : gauges_) {
    out.gauges[name] = gauge->value();
  }
  for (const auto& [name, histogram] : histograms_) {
    HistogramSnapshot h;
    h.count = histogram->count();
    h.sum = histogram->sum();
    const auto buckets = histogram->buckets();
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      if (buckets[b] != 0) h.buckets.emplace_back(b, buckets[b]);
    }
    out.histograms[name] = std::move(h);
  }
  return out;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) counter->reset();
  for (auto& [name, gauge] : gauges_) gauge->reset();
  for (auto& [name, histogram] : histograms_) histogram->reset();
}

namespace {

// The fields every histogram record carries, in wire order.
void write_hist(json::Writer& record, const HistogramSnapshot& h) {
  record.field("count", h.count).field("sum", h.sum)
      .field("buckets", h.buckets);
}

// Appends the record {"kind":<kind>,...} with the fields `fill` writes.
template <typename Fill>
void add_record(std::vector<std::string>& records, std::string_view kind,
                const Fill& fill) {
  json::Writer record(records.emplace_back());
  fill(record.field("kind", kind));
  record.close();
}

HistogramSnapshot read_hist(const json::Object& record) {
  HistogramSnapshot h;
  h.count = record.get<std::uint64_t>("count");
  h.sum = record.get<double>("sum");
  h.buckets =
      record.get<std::vector<std::pair<std::size_t, std::uint64_t>>>("buckets");
  return h;
}

}  // namespace

std::string snapshot_to_json(const Snapshot& snapshot) {
  std::vector<std::string> records;
  if (snapshot.pid != 0 || snapshot.t_us != 0) {
    // Provenance stamps lead the sidecar; hand-built (unstamped)
    // snapshots serialize exactly as before the stamps existed.
    add_record(records, "meta", [&](json::Writer& r) {
      r.field("pid", snapshot.pid).field("t_us", snapshot.t_us);
    });
  }
  for (const auto& [name, value] : snapshot.counters) {
    add_record(records, "counter", [&](json::Writer& r) {
      r.field("name", name).field("value", value);
    });
  }
  for (const auto& [name, value] : snapshot.gauges) {
    add_record(records, "gauge", [&](json::Writer& r) {
      r.field("name", name).field("value", value);
    });
  }
  for (const auto& [name, h] : snapshot.histograms) {
    add_record(records, "hist",
               [&](json::Writer& r) { write_hist(r.field("name", name), h); });
  }
  return json::join_records(records);
}

Snapshot parse_snapshot(std::string_view text) {
  constexpr std::string_view kContext = "parse_snapshot";
  Snapshot out;
  for (const std::string_view line : json::split_records(text, kContext)) {
    const json::Object record(line, kContext);
    const std::string kind = record.get<std::string>("kind");
    if (kind == "meta") {
      out.pid = record.get<long>("pid");
      out.t_us = record.get<std::uint64_t>("t_us");
      continue;
    }
    const std::string name = record.get<std::string>("name");
    if (kind == "counter") {
      out.counters[name] += record.get<std::uint64_t>("value");
    } else if (kind == "gauge") {
      out.gauges[name] += record.get<std::int64_t>("value");
    } else if (kind == "hist") {
      out.histograms[name] = read_hist(record);
    } else {
      throw std::invalid_argument("parse_snapshot: unknown record kind \"" +
                                  kind + "\"");
    }
  }
  return out;
}

Snapshot merge_snapshots(const std::vector<Snapshot>& parts) {
  Snapshot out;
  for (const auto& part : parts) {
    // pid stays 0: the merge spans processes. The merged capture time is
    // the latest part's, i.e. when the last contributor was observed.
    out.t_us = std::max(out.t_us, part.t_us);
    for (const auto& [name, value] : part.counters) {
      out.counters[name] += value;
    }
    for (const auto& [name, value] : part.gauges) {
      out.gauges[name] += value;
    }
    for (const auto& [name, h] : part.histograms) {
      HistogramSnapshot& dst = out.histograms[name];
      dst.count += h.count;
      dst.sum += h.sum;
      // Merge the sparse bucket lists, keeping ascending order.
      std::map<std::size_t, std::uint64_t> merged(dst.buckets.begin(),
                                                  dst.buckets.end());
      for (const auto& [b, n] : h.buckets) merged[b] += n;
      dst.buckets.assign(merged.begin(), merged.end());
    }
  }
  return out;
}

// --- Streaming time-series ---

std::string time_series_to_json(const std::vector<DeltaTick>& ticks) {
  std::vector<std::string> records;
  for (const auto& tick : ticks) {
    // Every record ends with its tick's stamp.
    const auto stamp = [&tick](json::Writer& r) {
      r.field("pid", tick.pid).field("seq", tick.seq).field("t_us", tick.t_us);
    };
    add_record(records, "tick", stamp);
    for (const auto& [name, delta] : tick.counters) {
      add_record(records, "cdelta", [&](json::Writer& r) {
        stamp(r.field("name", name).field("delta", delta));
      });
    }
    for (const auto& [name, value] : tick.gauges) {
      add_record(records, "glevel", [&](json::Writer& r) {
        stamp(r.field("name", name).field("value", value));
      });
    }
    for (const auto& [name, h] : tick.histograms) {
      add_record(records, "hdelta", [&](json::Writer& r) {
        write_hist(r.field("name", name), h);
        stamp(r);
      });
    }
  }
  return json::join_records(records);
}

std::vector<DeltaTick> parse_time_series(std::string_view text) {
  constexpr std::string_view kContext = "parse_time_series";
  std::vector<DeltaTick> out;
  for (const std::string_view line : json::split_records(text, kContext)) {
    const json::Object record(line, kContext);
    const std::string kind = record.get<std::string>("kind");
    const long pid = record.get<long>("pid");
    const std::uint64_t seq = record.get<std::uint64_t>("seq");
    const std::uint64_t t_us = record.get<std::uint64_t>("t_us");
    if (kind == "tick") {
      DeltaTick tick;
      tick.pid = pid;
      tick.seq = seq;
      tick.t_us = t_us;
      out.push_back(std::move(tick));
      continue;
    }
    // Every per-metric record belongs to the "tick" record that opened
    // its tick; the writer keeps them contiguous, so a mismatch means a
    // corrupted or hand-spliced stream.
    if (out.empty() || out.back().pid != pid || out.back().seq != seq) {
      throw std::invalid_argument("parse_time_series: record outside its "
                                  "tick: " + std::string(line));
    }
    DeltaTick& tick = out.back();
    const std::string name = record.get<std::string>("name");
    if (kind == "cdelta") {
      tick.counters[name] += record.get<std::uint64_t>("delta");
    } else if (kind == "glevel") {
      tick.gauges[name] = record.get<std::int64_t>("value");
    } else if (kind == "hdelta") {
      tick.histograms[name] = read_hist(record);
    } else {
      throw std::invalid_argument("parse_time_series: unknown record kind \"" +
                                  kind + "\"");
    }
  }
  return out;
}

std::vector<DeltaTick> merge_time_series(
    const std::vector<std::vector<DeltaTick>>& streams) {
  std::vector<DeltaTick> out;
  for (const auto& stream : streams) {
    out.insert(out.end(), stream.begin(), stream.end());
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const DeltaTick& a, const DeltaTick& b) {
                     if (a.t_us != b.t_us) return a.t_us < b.t_us;
                     if (a.pid != b.pid) return a.pid < b.pid;
                     return a.seq < b.seq;
                   });
  return out;
}

Snapshot time_series_total(const std::vector<DeltaTick>& ticks) {
  Snapshot out;
  // Latest gauge level per (pid, name); "latest" is timeline position,
  // which within one process is also seq order.
  std::map<std::pair<long, std::string>, std::int64_t> gauge_levels;
  for (const auto& tick : ticks) {
    // Single-stream totals keep their pid; a merged timeline reads 0
    // like merge_snapshots output.
    out.pid = (&tick == &ticks.front() || out.pid == tick.pid) ? tick.pid : 0;
    out.t_us = std::max(out.t_us, tick.t_us);
    for (const auto& [name, delta] : tick.counters) {
      out.counters[name] += delta;
    }
    for (const auto& [name, value] : tick.gauges) {
      gauge_levels[{tick.pid, name}] = value;
    }
    for (const auto& [name, h] : tick.histograms) {
      HistogramSnapshot& dst = out.histograms[name];
      dst.count += h.count;
      dst.sum += h.sum;
      std::map<std::size_t, std::uint64_t> merged(dst.buckets.begin(),
                                                  dst.buckets.end());
      for (const auto& [b, n] : h.buckets) merged[b] += n;
      dst.buckets.assign(merged.begin(), merged.end());
    }
  }
  for (const auto& [key, value] : gauge_levels) {
    out.gauges[key.second] += value;
  }
  return out;
}

}  // namespace manytiers::obs
