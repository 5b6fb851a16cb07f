// Fleet-tier concurrency: rebuild-under-fire across TWO shards at once,
// and migration staging racing foreground traffic -- the fleet's lock
// hierarchy (fleet map lock over per-shard store locks over stripe
// shard locks) exercised from many threads.  Built to run under TSan:
// every cross-thread protocol the fleet adds (governed rebuild passes
// from two rebuilder threads arbitrated by one fair-share governor,
// chunk-state CAS invalidation between a migrator and writers, the
// shared-stage / exclusive-commit cutover) runs here with verification
// on, so a data race OR a served-byte divergence fails the test.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "fleet/fleet.hpp"
#include "io/workload_driver.hpp"

namespace pdl::fleet {
namespace {

constexpr std::uint32_t kBlockBytes = 64;
constexpr std::uint64_t kSeed = 0xC0C0;

[[nodiscard]] ShardSpec make_shard(std::uint32_t v, std::uint32_t k,
                                   core::CodecKind codec,
                                   std::uint32_t iterations = 1) {
  auto array = api::Array::create({.num_disks = v, .stripe_size = k}, {},
                                  {.codec = codec});
  EXPECT_TRUE(array.ok()) << array.status().to_string();
  return ShardSpec{.array = std::move(array).value(),
                   .iterations = iterations};
}

TEST(FleetConcurrent, RebuildUnderFireAcrossTwoShards) {
  std::vector<ShardSpec> shards;
  shards.push_back(make_shard(9, 4, core::CodecKind::kXorParity, 2));
  shards.push_back(make_shard(9, 4, core::CodecKind::kReedSolomonPQ, 1));
  FleetOptions options{.block_bytes = kBlockBytes};
  // Fair-share: the two rebuilder threads contend for one budget and
  // the governor arbitrates between the shards.
  options.governor.policy = GovernorPolicy::kFairShare;
  options.governor.rebuild_bytes_per_sec = 64.0 * 1024 * 1024;
  options.governor.burst_bytes = 256 * 1024;
  auto created = Fleet::create(std::move(shards), options);
  ASSERT_TRUE(created.ok()) << created.status().to_string();
  Fleet& fleet = created.value();
  const std::uint64_t n = fleet.num_blocks();
  ASSERT_TRUE(io::fill_canonical(fleet, 0, n, kSeed).ok());

  // One disk down in EACH shard, both replaced: both shards have
  // rebuildable work at the same time.
  ASSERT_TRUE(fleet.fail_disk(0, 3).ok());
  ASSERT_TRUE(fleet.fail_disk(1, 6).ok());
  ASSERT_TRUE(fleet.replace_disk(0, 3).ok());
  ASSERT_TRUE(fleet.replace_disk(1, 6).ok());

  // Two rebuilder threads (one per shard) race a verifying workload.
  std::vector<std::thread> rebuilders;
  std::atomic<bool> rebuild_failed{false};
  for (std::uint32_t s = 0; s < 2; ++s)
    rebuilders.emplace_back([&fleet, &rebuild_failed, s] {
      auto outcome = fleet.rebuild(s);
      if (!outcome.ok()) rebuild_failed.store(true);
    });

  io::WorkloadOptions workload;
  workload.num_threads = 3;
  workload.ops_per_thread = 2000;
  workload.read_fraction = 0.7;
  workload.seed = kSeed;
  workload.verify_reads = true;
  io::WorkloadDriver driver(fleet, workload);
  const io::WorkloadStats stats = driver.run();

  for (std::thread& t : rebuilders) t.join();
  ASSERT_FALSE(rebuild_failed.load());

  // Both shards healed under fire; every byte is canonical again.
  EXPECT_TRUE(fleet.healthy());
  EXPECT_EQ(stats.verify_failures, 0u);
  EXPECT_EQ(stats.errors, 0u);
  std::vector<std::uint8_t> buf(kBlockBytes), expected(kBlockBytes);
  for (std::uint64_t block = 0; block < n; ++block) {
    ASSERT_TRUE(fleet.read(block, buf).ok());
    io::canonical_fill(block, kSeed, expected);
    ASSERT_EQ(buf, expected) << "block " << block;
  }

  // Both shards drew from the one budget, and the serving path fed the
  // governor's foreground observation.
  EXPECT_GT(fleet.governor().shard_stats(0).granted_bytes, 0u);
  EXPECT_GT(fleet.governor().shard_stats(1).granted_bytes, 0u);
  EXPECT_GT(fleet.governor().stats().foreground_bytes, 0u);
}

TEST(FleetConcurrent, MigrationStagingRacesForegroundTraffic) {
  std::vector<ShardSpec> shards;
  shards.push_back(make_shard(9, 4, core::CodecKind::kXorParity, 2));
  shards.push_back(make_shard(9, 4, core::CodecKind::kXorParity, 1));
  auto created = Fleet::create(std::move(shards),
                               {.block_bytes = kBlockBytes,
                                .migration_chunk_blocks = 8});
  ASSERT_TRUE(created.ok()) << created.status().to_string();
  Fleet& fleet = created.value();
  const std::uint64_t n = fleet.num_blocks();
  ASSERT_TRUE(io::fill_canonical(fleet, 0, n, kSeed).ok());

  auto attached =
      fleet.attach_shard(make_shard(17, 5, core::CodecKind::kXorParity, 1));
  ASSERT_TRUE(attached.ok());
  const std::uint64_t count =
      std::min<std::uint64_t>(64, fleet.shard(attached.value())
                                      .num_logical_units());
  ASSERT_TRUE(fleet.start_migration(0, count, attached.value()).ok());

  // Workload threads write canonical content (same seed), so whatever
  // interleaving wins, the final bytes are canonical -- any divergence
  // the cutover could introduce is caught by the sweep below.
  std::thread traffic([&fleet] {
    io::WorkloadOptions workload;
    workload.num_threads = 3;
    workload.ops_per_thread = 1500;
    workload.read_fraction = 0.5;
    workload.seed = kSeed;
    workload.verify_reads = true;
    io::WorkloadDriver driver(fleet, workload);
    const io::WorkloadStats stats = driver.run();
    EXPECT_EQ(stats.verify_failures, 0u);
    EXPECT_EQ(stats.errors, 0u);
  });

  // Two migrator threads claim chunks concurrently (CAS arbitration).
  std::vector<std::thread> migrators;
  std::atomic<bool> migrate_failed{false};
  for (int m = 0; m < 2; ++m)
    migrators.emplace_back([&fleet, &migrate_failed] {
      for (int pass = 0; pass < 200; ++pass) {
        auto copied = fleet.migrate_some(8);
        if (!copied.ok()) {
          migrate_failed.store(true);
          return;
        }
        if (copied.value() == 0) std::this_thread::yield();
      }
    });
  for (std::thread& t : migrators) t.join();
  traffic.join();
  ASSERT_FALSE(migrate_failed.load());

  auto report = fleet.complete_migration();
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_EQ(report.value().source_checksum, report.value().target_checksum);

  // Post-cutover sweep: everything canonical, moved range included.
  std::vector<std::uint8_t> buf(kBlockBytes), expected(kBlockBytes);
  for (std::uint64_t block = 0; block < n; ++block) {
    ASSERT_TRUE(fleet.read(block, buf).ok());
    io::canonical_fill(block, kSeed, expected);
    ASSERT_EQ(buf, expected) << "block " << block;
  }
}

}  // namespace
}  // namespace pdl::fleet
