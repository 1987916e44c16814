#include "orchestrator/manifest.hpp"

#include <sstream>
#include <stdexcept>

#include "json/flat_json.hpp"
#include "util/file.hpp"

namespace manytiers::orchestrator {

namespace {

constexpr std::string_view kLinePrefix = "ORCH_MANIFEST ";
constexpr std::string_view kContext = "manifest";

}  // namespace

std::string manifest_to_string(const Manifest& manifest) {
  std::string out;
  out += kLinePrefix;
  json::Writer(out)
      .field("type", "run")
      .field("grid", manifest.grid)
      .field("signature", manifest.signature)
      .field("workers", manifest.workers)
      .close() += '\n';
  for (std::size_t k = 0; k < manifest.shards.size(); ++k) {
    const ShardManifest& shard = manifest.shards[k];
    out += kLinePrefix;
    json::Writer(out)
        .field("type", "shard")
        .field("shard", k)
        .field("state", shard.state)
        .field("spawned", shard.spawned)
        .field("failures", shard.failures)
        .close() += '\n';
  }
  return out;
}

Manifest parse_manifest(std::string_view text) {
  Manifest manifest;
  bool saw_run = false;
  std::istringstream is{std::string(text)};
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind(kLinePrefix, 0) != 0) continue;
    const json::Object record(
        std::string_view(line).substr(kLinePrefix.size()), kContext);
    const std::string type = record.get<std::string>("type");
    if (type == "run") {
      if (saw_run) {
        throw std::invalid_argument("manifest: duplicate run record");
      }
      saw_run = true;
      manifest.grid = record.get<std::string>("grid");
      manifest.signature = record.get<std::string>("signature");
      manifest.workers = record.get<std::size_t>("workers");
    } else if (type == "shard") {
      if (!saw_run) {
        throw std::invalid_argument(
            "manifest: shard record before run record");
      }
      const std::size_t index = record.get<std::size_t>("shard");
      if (index != manifest.shards.size()) {
        throw std::invalid_argument(
            "manifest: shard records out of order (got " +
            std::to_string(index) + ", expected " +
            std::to_string(manifest.shards.size()) + ")");
      }
      ShardManifest shard;
      shard.state = record.get<std::string>("state");
      if (shard.state != "open" && shard.state != "done" &&
          shard.state != "failed") {
        throw std::invalid_argument("manifest: unknown shard state \"" +
                                    shard.state + "\"");
      }
      // Strict counters: a garbled spawned count read as 0 would let a
      // resumed run reuse an earlier attempt's part/log paths.
      shard.spawned = record.get<std::size_t>("spawned");
      shard.failures = record.get<std::size_t>("failures");
      manifest.shards.push_back(std::move(shard));
    } else {
      throw std::invalid_argument("manifest: unknown record type \"" + type +
                                  "\"");
    }
  }
  if (!saw_run) {
    throw std::invalid_argument("manifest: no run record found");
  }
  if (manifest.shards.size() != manifest.workers) {
    throw std::invalid_argument(
        "manifest: run declares " + std::to_string(manifest.workers) +
        " workers but carries " + std::to_string(manifest.shards.size()) +
        " shard records");
  }
  return manifest;
}

void save_manifest(const std::string& path, const Manifest& manifest) {
  util::write_file_durable(path, manifest_to_string(manifest));
}

Manifest load_manifest(const std::string& path) {
  return parse_manifest(util::read_file(path));
}

}  // namespace manytiers::orchestrator
