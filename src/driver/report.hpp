// Consolidated batch reports: the machine-diffable output of run_grid.
//
// A report is a sequence of "BATCH_JSON {...}" lines (one JSON object per
// line, same convention as the benches' BENCH_JSON) holding the grid
// signature, one record per cell with its capture envelope, and an
// optional timing record, written and read with the flat_json codec.
// Capture values round-trip exactly, so two reports of the same grid can
// be compared bit-for-bit — that is what the golden regression test and
// tools/bench_diff.py rely on. A garbled field throws on read.
//
// Sharding: a shard's report carries partial envelopes (each cell covers
// only the parameter points the shard owned). merge_shards folds a
// complete shard set back into the unsharded report; min/max are exactly
// associative and commutative, so the merge is bit-identical to a
// single-process run regardless of the shard count.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "driver/grid.hpp"
#include "util/table.hpp"

namespace manytiers::driver {

// A cell's capture envelope over its parameter points (the paper's
// §4.3.2 robustness methodology: the worst and best capture observed
// across the swept range). Indexed by bundle count - 1.
struct Envelope {
  std::vector<double> min_capture;
  std::vector<double> max_capture;
  std::size_t points = 0;  // parameter points folded in
};

// Schema v2 (optional, --per-point): one record per evaluated parameter
// point, keyed by the point's global index within its cell, so a diff
// can name *which* parameter point regressed instead of only the
// envelope. Points are stored in ascending index order.
struct PointCapture {
  std::size_t point = 0;        // parameter point index, 0..points_per_cell-1
  std::vector<double> capture;  // the capture series, length max_bundles
};

struct CellResult {
  GridCell cell;
  // Envelope over the parameter points this run owned; points == 0 (an
  // untouched cell of a shard) keeps +/-inf sentinels in min/max.
  Envelope sweep;
  double wall_ms = 0.0;  // summed task wall time; never compared bitwise
  std::vector<PointCapture> detail;  // per-point capture, schema v2 only
};

struct BatchReport {
  std::string grid_name;
  std::string signature;
  std::size_t max_bundles = 0;
  std::size_t points_per_cell = 0;  // of the FULL grid, not this shard
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  std::size_t threads = 0;
  bool per_point = false;  // schema v2: cells carry per-point detail
  double wall_ms = 0.0;
  std::vector<CellResult> cells;  // every grid cell, enumeration order
};

// A zero-point envelope: +/-inf sentinels that min/max folds replace on
// the first real point. The neutral element of merge_shards.
Envelope empty_envelope(std::size_t max_bundles);

// Render / parse the BATCH_JSON line format. `include_timing` off drops
// the per-cell and total wall-clock fields, producing a byte-stable
// artifact (the golden report is written this way). Reports with
// per_point set additionally emit one "point" record per evaluated
// parameter point after each cell record.
void write_report(std::ostream& os, const BatchReport& report,
                  bool include_timing = true);
std::string report_to_string(const BatchReport& report,
                             bool include_timing = true);
BatchReport read_report(std::istream& is);

// Fold a complete shard set (every shard_index 0..K-1 exactly once, all
// with matching signatures) into the unsharded report. Throws on
// mismatched signatures, duplicate or missing shards, or per-cell point
// counts that do not add up to the full grid.
BatchReport merge_shards(const std::vector<BatchReport>& shards);

// Integrity check for one shard's partial report — the orchestrator's
// corrupt-part detector, run on every worker output before it is
// accepted. Verifies the part claims the expected grid (signature,
// max_bundles, points_per_cell), carries the expected shard
// coordinates, lists every grid cell in enumeration order, and covers
// exactly the parameter points shard `index` of `count` owns under the
// round-robin task split. Throws std::invalid_argument with the reason.
void validate_part(const BatchReport& part, const ExperimentGrid& grid,
                   std::size_t shard_index, std::size_t shard_count);

// Capture-vs-bundles table of one dataset's cells (rows follow the
// grid's strategy order) — the shape of the paper's Figs. 8 and 9. Only
// meaningful for fully-evaluated reports; sweep cells show the envelope
// minimum, matching the paper's worst-case robustness plots.
util::TextTable capture_table(const BatchReport& report,
                              workload::DatasetKind dataset);

}  // namespace manytiers::driver
