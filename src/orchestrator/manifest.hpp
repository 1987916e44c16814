// Durable run manifest: the orchestrator's crash-safety record.
//
// Written (atomically, via util::write_file_durable) into the work dir
// when a run starts and rewritten at every supervision milestone (shard
// spawned / done / failed), so a SIGKILLed orchestrator leaves behind
// everything a `--resume` needs:
//
//   * the run identity (grid name + full grid signature + worker count)
//     — resume refuses a work dir whose manifest disagrees with the
//     options it was given, because shard ownership depends on all of
//     them;
//   * per-shard progress — how many attempts were spawned (so a resumed
//     run never reuses an attempt's part/log/heartbeat paths, even if
//     an orphaned worker from the dead run is still writing to them),
//     how many failures consumed the retry budget, and the last known
//     state.
//
// The manifest is advisory about *completion*: resume trusts only part
// files that re-validate through validate_part, so a manifest that says
// "done" next to a torn part still triggers a re-run. The format is the
// repo's one-object-per-line convention ("ORCH_MANIFEST {...}"), written
// and read with the flat_json codec.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace manytiers::orchestrator {

struct ShardManifest {
  std::string state = "open";  // "open" | "done" | "failed"
  std::size_t spawned = 0;     // attempts started (names part/log files)
  std::size_t failures = 0;    // retry budget consumed
};

struct Manifest {
  std::string grid;
  std::string signature;  // grid_signature() with overrides applied
  std::size_t workers = 0;
  std::vector<ShardManifest> shards;  // exactly `workers` entries
};

// Serialize / parse the ORCH_MANIFEST line format. parse_manifest throws
// std::invalid_argument on malformed input (missing run record, shard
// count mismatch, unknown state strings, garbled fields).
std::string manifest_to_string(const Manifest& manifest);
Manifest parse_manifest(std::string_view text);

// Durable save (temp file + fsync + rename) and load. load_manifest
// throws std::runtime_error when the file cannot be read and
// std::invalid_argument when it does not parse.
void save_manifest(const std::string& path, const Manifest& manifest);
Manifest load_manifest(const std::string& path);

}  // namespace manytiers::orchestrator
