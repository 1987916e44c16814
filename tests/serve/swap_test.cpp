// Snapshot-swap concurrency, the TSan leg's serve test: reader threads
// hammer queries over real connections while a background admin thread
// keeps reloading with different seeds. Every response must be
// internally consistent — its payload must match the one canonical
// answer for the epoch it claims, so a torn read (prices from one
// snapshot, epoch tag from another) fails the byte comparison. Runs in
// the `serve` ctest label wired into check.sh's TSan leg.
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve_test_util.hpp"

namespace manytiers::serve {
namespace {

using testing::temp_socket_path;
using testing::tiny_grid;

TEST(SnapshotSwap, ConcurrentReadersNeverSeeTornEpochs) {
  const std::string path = temp_socket_path("swap");
  ServerOptions options;
  options.unix_path = path;
  Server server(tiny_grid(), options);
  server.start();

  constexpr int kReaders = 4;
  constexpr int kQueriesPerReader = 200;
  constexpr int kReloads = 8;

  // epoch -> canonical schedule payload for that epoch. Filled on first
  // sight, byte-compared ever after.
  std::mutex canon_mutex;
  std::map<std::uint64_t, std::string> canonical;
  std::atomic<bool> failed{false};

  const std::string schedule_payload = serialize_request([] {
    Request request;
    request.id = 1;
    request.kind = QueryKind::Schedule;
    request.market = "EU ISP/ced/linear";
    request.strategy = "Profit-weighted";
    request.bundles = 2;
    return request;
  }());

  // Every reader answers once before the first reload starts and once
  // after the last reload returns, so at least two epochs are seen by
  // construction, however the scheduler interleaves the rest.
  std::atomic<int> readers_started{0};
  std::atomic<bool> reloads_done{false};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Client client = Client::connect_unix(path);
      for (int i = 0; !failed.load(); ++i) {
        const bool last = i + 1 >= kQueriesPerReader && reloads_done.load();
        const std::string raw = client.call_raw(schedule_payload);
        if (i == 0) readers_started.fetch_add(1);
        Response response;
        try {
          response = parse_response(raw);
        } catch (const std::exception& e) {
          ADD_FAILURE() << "reader " << r << ": unparseable response: "
                        << e.what();
          failed.store(true);
          return;
        }
        if (!response.ok) {
          ADD_FAILURE() << "reader " << r << ": " << response.error;
          failed.store(true);
          return;
        }
        // The payload carries the epoch; every payload claiming epoch E
        // must be byte-identical to the first one that claimed E.
        const std::lock_guard<std::mutex> lock(canon_mutex);
        const auto [it, inserted] = canonical.emplace(response.epoch, raw);
        if (!inserted && it->second != raw) {
          ADD_FAILURE() << "reader " << r << ": two distinct payloads for "
                        << "epoch " << response.epoch << ":\n  " << it->second
                        << "\n  " << raw;
          failed.store(true);
          return;
        }
        if (last) return;
      }
    });
  }

  std::thread reloader([&] {
    while (readers_started.load() < kReaders && !failed.load()) {
      std::this_thread::yield();
    }
    Client client = Client::connect_unix(path);
    for (int i = 0; i < kReloads && !failed.load(); ++i) {
      Request request;
      request.id = 1000 + i;
      request.kind = QueryKind::Reload;
      // A different seed each time: successive epochs answer with
      // different bytes, so cross-epoch mixing cannot hide.
      request.seed = 100 + i;
      const Response response = client.call(request);
      if (!response.ok) {
        ADD_FAILURE() << "reload " << i << ": " << response.error;
        failed.store(true);
        break;
      }
      EXPECT_EQ(response.epoch, std::uint64_t(i) + 2);
    }
    reloads_done.store(true);
  });

  for (auto& t : readers) t.join();
  reloader.join();
  server.stop();

  ASSERT_FALSE(failed.load());
  EXPECT_EQ(server.epoch(), std::uint64_t(kReloads) + 1);
  // Distinct epochs answered with distinct *prices* — the epoch field
  // alone would make payloads differ trivially, so compare the capture
  // token: different seeds must actually change the schedule, otherwise
  // the torn-read check above proves nothing.
  std::vector<std::string> captures;
  for (const auto& [epoch, payload] : canonical) {
    captures.push_back(parse_response(payload).capture_text);
  }
  for (std::size_t i = 1; i < captures.size(); ++i) {
    EXPECT_NE(captures[i - 1], captures[i]);
  }
  // Readers saw the epoch before the first reload and the one after the
  // last.
  EXPECT_GE(canonical.size(), 2u)
      << "readers never observed more than one epoch";
}

// The server-side snapshot accessor races with reloads too (the daemon
// main thread reads it for lifecycle lines); pin it under TSan.
TEST(SnapshotSwap, AccessorRacesWithReloadCleanly) {
  const std::string path = temp_socket_path("swap_accessor");
  ServerOptions options;
  options.unix_path = path;
  Server server(tiny_grid(), options);
  server.start();

  std::atomic<bool> stop{false};
  std::thread poller([&] {
    while (!stop.load()) {
      const auto snapshot = server.snapshot();
      EXPECT_GE(snapshot->epoch, 1u);
      EXPECT_EQ(snapshot->markets.size(), 1u);
    }
  });
  Client client = Client::connect_unix(path);
  for (int i = 0; i < 4; ++i) {
    Request request;
    request.kind = QueryKind::Reload;
    request.seed = 500 + i;
    ASSERT_TRUE(client.call(request).ok);
  }
  stop.store(true);
  poller.join();
  server.stop();
  EXPECT_EQ(server.epoch(), 5u);
}

}  // namespace
}  // namespace manytiers::serve
