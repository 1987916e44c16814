#include "driver/report.hpp"

#include <algorithm>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "json/flat_json.hpp"

namespace manytiers::driver {

namespace {

constexpr std::string_view kLinePrefix = "BATCH_JSON ";
constexpr std::string_view kContext = "batch report";

}  // namespace

Envelope empty_envelope(std::size_t max_bundles) {
  Envelope sweep;
  sweep.min_capture.assign(max_bundles,
                           std::numeric_limits<double>::infinity());
  sweep.max_capture.assign(max_bundles,
                           -std::numeric_limits<double>::infinity());
  return sweep;
}

void write_report(std::ostream& os, const BatchReport& report,
                  bool include_timing) {
  std::string line(kLinePrefix);
  json::Writer grid(line);
  grid.field("type", "grid")
      .field("name", report.grid_name)
      .field("signature", report.signature)
      .field("max_bundles", report.max_bundles)
      .field("points_per_cell", report.points_per_cell)
      .field("shard_index", report.shard_index)
      .field("shard_count", report.shard_count);
  // Schema v2 marker only when enabled, so v1 output stays byte-identical
  // (the golden reports predate the field).
  if (report.per_point) grid.field("per_point", 1);
  os << grid.field("cells", report.cells.size()).close() << '\n';
  for (const auto& cell : report.cells) {
    line = kLinePrefix;
    json::Writer record(line);
    record.field("type", "cell")
        .field("key", cell_key(cell.cell))
        .field("points", cell.sweep.points);
    // Untouched shard cells hold +/-inf sentinels; serialize them as
    // empty arrays so the file stays strict JSON.
    const std::vector<double> none;
    const bool untouched = cell.sweep.points == 0;
    record.field("min", untouched ? none : cell.sweep.min_capture)
        .field("max", untouched ? none : cell.sweep.max_capture);
    if (include_timing) record.field("wall_ms", cell.wall_ms);
    os << record.close() << '\n';
    // Schema v2: per-point records directly after their cell, ascending
    // point index — the order the unsharded fold produces, and the order
    // merge_shards restores, keeping merged output byte-identical.
    for (const auto& point : cell.detail) {
      line = kLinePrefix;
      os << json::Writer(line)
                .field("type", "point")
                .field("cell", cell_key(cell.cell))
                .field("point", point.point)
                .field("capture", point.capture)
                .close()
         << '\n';
    }
  }
  if (include_timing) {
    line = kLinePrefix;
    os << json::Writer(line)
              .field("type", "timing")
              .field("wall_ms", report.wall_ms)
              .field("threads", report.threads)
              .close()
       << '\n';
  }
}

std::string report_to_string(const BatchReport& report, bool include_timing) {
  std::ostringstream os;
  write_report(os, report, include_timing);
  return os.str();
}

BatchReport read_report(std::istream& is) {
  BatchReport report;
  bool saw_grid = false;
  std::size_t declared_cells = 0;
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind(kLinePrefix, 0) != 0) continue;  // tolerate other output
    const json::Object record(
        std::string_view(line).substr(kLinePrefix.size()), kContext);
    const std::string type = record.get<std::string>("type");
    if (type == "grid") {
      if (saw_grid) {
        throw std::invalid_argument("batch report: duplicate grid record");
      }
      saw_grid = true;
      report.grid_name = record.get<std::string>("name");
      report.signature = record.get<std::string>("signature");
      report.max_bundles = record.get<std::size_t>("max_bundles");
      report.points_per_cell = record.get<std::size_t>("points_per_cell");
      report.shard_index = record.get<std::size_t>("shard_index");
      report.shard_count = record.get<std::size_t>("shard_count");
      report.per_point =
          record.get_optional<std::size_t>("per_point").value_or(0) != 0;
      declared_cells = record.get<std::size_t>("cells");
    } else if (type == "cell") {
      if (!saw_grid) {
        throw std::invalid_argument(
            "batch report: cell record before grid record");
      }
      CellResult cell;
      cell.cell = parse_cell_key(record.get<std::string>("key"));
      cell.sweep.points = record.get<std::size_t>("points");
      if (cell.sweep.points == 0) {
        cell.sweep = empty_envelope(report.max_bundles);
      } else {
        cell.sweep.min_capture = record.get<std::vector<double>>("min");
        cell.sweep.max_capture = record.get<std::vector<double>>("max");
        if (cell.sweep.min_capture.size() != report.max_bundles ||
            cell.sweep.max_capture.size() != report.max_bundles) {
          throw std::invalid_argument(
              "batch report: cell envelope length does not match max_bundles");
        }
      }
      cell.wall_ms = record.get_optional<double>("wall_ms").value_or(0.0);
      report.cells.push_back(std::move(cell));
    } else if (type == "point") {
      if (report.cells.empty()) {
        throw std::invalid_argument(
            "batch report: point record before any cell record");
      }
      CellResult& cell = report.cells.back();
      if (record.get<std::string>("cell") != cell_key(cell.cell)) {
        throw std::invalid_argument(
            "batch report: point record names a different cell than the "
            "one preceding it");
      }
      PointCapture point;
      point.point = record.get<std::size_t>("point");
      point.capture = record.get<std::vector<double>>("capture");
      if (point.capture.size() != report.max_bundles) {
        throw std::invalid_argument(
            "batch report: point capture length does not match max_bundles");
      }
      if (!cell.detail.empty() && cell.detail.back().point >= point.point) {
        throw std::invalid_argument(
            "batch report: point records out of order in cell \"" +
            cell_key(cell.cell) + "\"");
      }
      cell.detail.push_back(std::move(point));
    } else if (type == "timing") {
      report.wall_ms = record.get<double>("wall_ms");
      report.threads = record.get<std::size_t>("threads");
    } else {
      throw std::invalid_argument("batch report: unknown record type \"" +
                                  type + "\"");
    }
  }
  if (!saw_grid) {
    throw std::invalid_argument("batch report: no grid record found");
  }
  if (report.cells.size() != declared_cells) {
    throw std::invalid_argument("batch report: expected " +
                                std::to_string(declared_cells) +
                                " cell records, found " +
                                std::to_string(report.cells.size()));
  }
  for (const auto& cell : report.cells) {
    // A v2 report must carry exactly one point record per evaluated
    // point (a torn write loses trailing points silently otherwise);
    // a v1 report must carry none.
    const std::size_t expected = report.per_point ? cell.sweep.points : 0;
    if (cell.detail.size() != expected) {
      throw std::invalid_argument(
          "batch report: cell \"" + cell_key(cell.cell) + "\" has " +
          std::to_string(cell.detail.size()) + " point records, expected " +
          std::to_string(expected));
    }
  }
  return report;
}

BatchReport merge_shards(const std::vector<BatchReport>& shards) {
  if (shards.empty()) {
    throw std::invalid_argument("merge_shards: no shard reports");
  }
  const BatchReport& first = shards.front();
  std::vector<bool> seen(shards.size(), false);
  for (const auto& shard : shards) {
    if (shard.signature != first.signature) {
      throw std::invalid_argument(
          "merge_shards: shard signatures differ (mixed grids?)");
    }
    if (shard.shard_count != shards.size()) {
      throw std::invalid_argument(
          "merge_shards: shard_count " + std::to_string(shard.shard_count) +
          " does not match the " + std::to_string(shards.size()) +
          " reports provided");
    }
    if (shard.shard_index >= shards.size() || seen[shard.shard_index]) {
      throw std::invalid_argument("merge_shards: duplicate or out-of-range "
                                  "shard index " +
                                  std::to_string(shard.shard_index));
    }
    seen[shard.shard_index] = true;
    if (shard.per_point != first.per_point) {
      throw std::invalid_argument(
          "merge_shards: mixed schema versions (some shards carry "
          "per-point detail, some do not)");
    }
    if (shard.cells.size() != first.cells.size()) {
      throw std::invalid_argument("merge_shards: shard cell counts differ");
    }
    for (std::size_t c = 0; c < shard.cells.size(); ++c) {
      if (!(shard.cells[c].cell == first.cells[c].cell)) {
        throw std::invalid_argument("merge_shards: shard cell order differs");
      }
    }
  }
  BatchReport merged;
  merged.grid_name = first.grid_name;
  merged.signature = first.signature;
  merged.max_bundles = first.max_bundles;
  merged.points_per_cell = first.points_per_cell;
  merged.shard_index = 0;
  merged.shard_count = 1;
  merged.per_point = first.per_point;
  merged.cells.reserve(first.cells.size());
  for (std::size_t c = 0; c < first.cells.size(); ++c) {
    CellResult cell;
    cell.cell = first.cells[c].cell;
    cell.sweep = empty_envelope(merged.max_bundles);
    for (const auto& shard : shards) {
      const auto& part = shard.cells[c].sweep;
      cell.wall_ms += shard.cells[c].wall_ms;
      cell.detail.insert(cell.detail.end(), shard.cells[c].detail.begin(),
                         shard.cells[c].detail.end());
      if (part.points == 0) continue;
      for (std::size_t b = 0; b < merged.max_bundles; ++b) {
        cell.sweep.min_capture[b] =
            std::min(cell.sweep.min_capture[b], part.min_capture[b]);
        cell.sweep.max_capture[b] =
            std::max(cell.sweep.max_capture[b], part.max_capture[b]);
      }
      cell.sweep.points += part.points;
    }
    // Restore ascending point order across the shard interleave; a
    // duplicate index means two shards both claimed the same point.
    std::sort(cell.detail.begin(), cell.detail.end(),
              [](const PointCapture& a, const PointCapture& b) {
                return a.point < b.point;
              });
    for (std::size_t i = 1; i < cell.detail.size(); ++i) {
      if (cell.detail[i].point == cell.detail[i - 1].point) {
        throw std::invalid_argument(
            "merge_shards: duplicate point " +
            std::to_string(cell.detail[i].point) + " in cell \"" +
            cell_key(cell.cell) + "\"");
      }
    }
    if (cell.sweep.points != merged.points_per_cell) {
      throw std::invalid_argument(
          "merge_shards: cell \"" + cell_key(cell.cell) + "\" covers " +
          std::to_string(cell.sweep.points) + " of " +
          std::to_string(merged.points_per_cell) +
          " points (incomplete shard set)");
    }
    merged.cells.push_back(std::move(cell));
  }
  // Wall clock of a distributed run is the slowest shard; threads vary
  // per host, so keep the first shard's count as representative.
  for (const auto& shard : shards) {
    merged.wall_ms = std::max(merged.wall_ms, shard.wall_ms);
  }
  merged.threads = first.threads;
  return merged;
}

void validate_part(const BatchReport& part, const ExperimentGrid& grid,
                   std::size_t shard_index, std::size_t shard_count) {
  const auto cells = enumerate_cells(grid);
  const std::size_t n_points = points_per_cell(grid);
  if (part.signature != grid_signature(grid)) {
    throw std::invalid_argument("part: signature mismatch (expected grid \"" +
                                grid.name + "\")");
  }
  if (part.shard_index != shard_index || part.shard_count != shard_count) {
    throw std::invalid_argument(
        "part: claims shard " + std::to_string(part.shard_index) + "/" +
        std::to_string(part.shard_count) + ", expected " +
        std::to_string(shard_index) + "/" + std::to_string(shard_count));
  }
  if (part.max_bundles != grid.max_bundles ||
      part.points_per_cell != n_points) {
    throw std::invalid_argument("part: grid dimensions mismatch");
  }
  if (part.cells.size() != cells.size()) {
    throw std::invalid_argument("part: expected " +
                                std::to_string(cells.size()) +
                                " cells, found " +
                                std::to_string(part.cells.size()));
  }
  for (std::size_t c = 0; c < cells.size(); ++c) {
    if (!(part.cells[c].cell == cells[c])) {
      throw std::invalid_argument("part: cell order differs at \"" +
                                  cell_key(part.cells[c].cell) + "\"");
    }
    // Exact ownership under the round-robin split: shard k of K owns
    // global task g iff g mod K == k.
    std::size_t owned = 0;
    for (std::size_t p = 0; p < n_points; ++p) {
      if ((c * n_points + p) % shard_count == shard_index) ++owned;
    }
    const auto& sweep = part.cells[c].sweep;
    if (sweep.points != owned) {
      throw std::invalid_argument(
          "part: cell \"" + cell_key(cells[c]) + "\" covers " +
          std::to_string(sweep.points) + " points, shard owns " +
          std::to_string(owned));
    }
    if (sweep.min_capture.size() != grid.max_bundles ||
        sweep.max_capture.size() != grid.max_bundles) {
      throw std::invalid_argument("part: envelope length mismatch in \"" +
                                  cell_key(cells[c]) + "\"");
    }
    for (std::size_t b = 0; owned > 0 && b < grid.max_bundles; ++b) {
      if (!(sweep.min_capture[b] <= sweep.max_capture[b])) {
        throw std::invalid_argument("part: inverted envelope in \"" +
                                    cell_key(cells[c]) + "\"");
      }
    }
    if (part.per_point) {
      // Schema v2 integrity: the detail must list exactly the owned
      // points and fold back to the envelope the part claims.
      if (part.cells[c].detail.size() != owned) {
        throw std::invalid_argument(
            "part: cell \"" + cell_key(cells[c]) + "\" carries " +
            std::to_string(part.cells[c].detail.size()) +
            " point records, shard owns " + std::to_string(owned));
      }
      auto folded = empty_envelope(grid.max_bundles);
      for (const auto& point : part.cells[c].detail) {
        if (point.point >= n_points ||
            (c * n_points + point.point) % shard_count != shard_index) {
          throw std::invalid_argument(
              "part: cell \"" + cell_key(cells[c]) + "\" lists point " +
              std::to_string(point.point) + " the shard does not own");
        }
        if (point.capture.size() != grid.max_bundles) {
          throw std::invalid_argument(
              "part: point capture length mismatch in \"" +
              cell_key(cells[c]) + "\"");
        }
        for (std::size_t b = 0; b < grid.max_bundles; ++b) {
          const double capture = point.capture[b] + 0.0;  // -0.0 canon
          folded.min_capture[b] = std::min(folded.min_capture[b], capture);
          folded.max_capture[b] = std::max(folded.max_capture[b], capture);
        }
      }
      for (std::size_t b = 0; owned > 0 && b < grid.max_bundles; ++b) {
        if (folded.min_capture[b] != sweep.min_capture[b] ||
            folded.max_capture[b] != sweep.max_capture[b]) {
          throw std::invalid_argument(
              "part: per-point detail does not fold to the claimed "
              "envelope in \"" + cell_key(cells[c]) + "\"");
        }
      }
    }
  }
}

util::TextTable capture_table(const BatchReport& report,
                              workload::DatasetKind dataset) {
  std::vector<std::string> headers{"Strategy"};
  for (std::size_t b = 1; b <= report.max_bundles; ++b) {
    headers.push_back("B=" + std::to_string(b));
  }
  util::TextTable table(std::move(headers));
  for (const auto& cell : report.cells) {
    if (cell.cell.dataset != dataset) continue;
    table.add_row(std::string(pricing::to_string(cell.cell.strategy)),
                  cell.sweep.min_capture, 3);
  }
  return table;
}

}  // namespace manytiers::driver
