// Online shard addition and extent migration: the fleet's
// shared-stage / exclusive-commit protocol for moving a block range to
// a new shard while the range keeps serving reads and writes from the
// authoritative source side.  The suite pins:
//
//   * the happy path -- attach, plan, chunked staging, checksum-verified
//     exclusive cutover, route flip, byte-for-byte content preservation;
//   * write-during-migration invalidation: a foreground write inside the
//     range dirties its chunk, the migrator re-copies it, and the bytes
//     served after cutover are the LAST written ones (zero served-byte
//     divergence);
//   * a concurrent writer hammering the range through the whole
//     migration, with a final differential sweep against the writer's
//     own record;
//   * migration out of a DEGRADED source shard (staging reads
//     reconstruct on the fly);
//   * cancel (reservation released, routing untouched) and the
//     validation matrix of start_migration;
//   * add_shard's automatic rebalancing plan and expand()'s end-to-end
//     drive.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include "fleet/fleet.hpp"
#include "io/workload_driver.hpp"

namespace pdl::fleet {
namespace {

constexpr std::uint32_t kBlockBytes = 64;
constexpr std::uint64_t kSeed = 0x316;

[[nodiscard]] ShardSpec make_shard(std::uint32_t v, std::uint32_t k,
                                   core::CodecKind codec,
                                   std::uint32_t iterations = 1) {
  auto array = api::Array::create({.num_disks = v, .stripe_size = k}, {},
                                  {.codec = codec});
  EXPECT_TRUE(array.ok()) << array.status().to_string();
  return ShardSpec{.array = std::move(array).value(),
                   .iterations = iterations};
}

[[nodiscard]] Fleet make_fleet() {
  std::vector<ShardSpec> shards;
  shards.push_back(make_shard(9, 4, core::CodecKind::kXorParity, 2));
  shards.push_back(make_shard(9, 4, core::CodecKind::kReedSolomonPQ, 1));
  auto fleet = Fleet::create(std::move(shards),
                             {.block_bytes = kBlockBytes,
                              .migration_chunk_blocks = 8});
  EXPECT_TRUE(fleet.ok()) << fleet.status().to_string();
  return std::move(fleet).value();
}

void expect_canonical(Fleet& fleet, std::uint64_t first, std::uint64_t last,
                      std::uint64_t seed) {
  std::vector<std::uint8_t> buf(kBlockBytes), expected(kBlockBytes);
  for (std::uint64_t block = first; block < last; ++block) {
    ASSERT_TRUE(fleet.read(block, buf).ok()) << "block " << block;
    io::canonical_fill(block, seed, expected);
    ASSERT_EQ(buf, expected) << "block " << block;
  }
}

TEST(FleetMigration, MovesExtentWithChecksumIdenticalCutover) {
  Fleet fleet = make_fleet();
  const std::uint64_t n = fleet.num_blocks();
  ASSERT_TRUE(io::fill_canonical(fleet, 0, n, kSeed).ok());

  auto attached =
      fleet.attach_shard(make_shard(9, 4, core::CodecKind::kXorParity, 1));
  ASSERT_TRUE(attached.ok()) << attached.status().to_string();
  const std::uint32_t target = attached.value();
  EXPECT_EQ(fleet.num_shards(), 3u);
  EXPECT_EQ(fleet.num_blocks(), n);  // headroom, not address space

  // Move a range straddling the shard 0 / shard 1 boundary.
  const std::uint64_t first = fleet.shard(0).num_logical_units() - 10;
  const std::uint64_t count = 20;
  ASSERT_TRUE(fleet.start_migration(first, count, target).ok());

  MigrationProgress progress = fleet.migration_progress();
  EXPECT_TRUE(progress.active);
  EXPECT_EQ(progress.first_block, first);
  EXPECT_EQ(progress.num_blocks, count);
  EXPECT_EQ(progress.target_shard, target);
  EXPECT_EQ(progress.copied_blocks, 0u);

  // Stage in small passes; reads stay on the source throughout.
  std::uint64_t staged = 0;
  for (;;) {
    auto copied = fleet.migrate_some(6);
    ASSERT_TRUE(copied.ok()) << copied.status().to_string();
    if (copied.value() == 0) break;
    staged += copied.value();
    expect_canonical(fleet, first, first + count, kSeed);
  }
  EXPECT_EQ(staged, count);
  EXPECT_EQ(fleet.migration_progress().copied_blocks, count);

  auto report = fleet.complete_migration();
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_EQ(report.value().first_block, first);
  EXPECT_EQ(report.value().num_blocks, count);
  EXPECT_EQ(report.value().blocks_moved, count);
  EXPECT_EQ(report.value().target_shard, target);
  // The cutover evidence: both sides hashed identically.
  EXPECT_EQ(report.value().source_checksum, report.value().target_checksum);
  EXPECT_FALSE(fleet.migration_progress().active);

  // Routing flipped: every moved block now lives on the target.
  for (std::uint64_t block = first; block < first + count; ++block) {
    auto route = fleet.route_of(block);
    ASSERT_TRUE(route.ok());
    EXPECT_EQ(route.value().shard, target) << "block " << block;
  }
  // And every byte of the whole space still reads canonical.
  expect_canonical(fleet, 0, n, kSeed);
}

TEST(FleetMigration, WritesDuringMigrationInvalidateAndRecopy) {
  Fleet fleet = make_fleet();
  const std::uint64_t n = fleet.num_blocks();
  ASSERT_TRUE(io::fill_canonical(fleet, 0, n, kSeed).ok());

  auto attached =
      fleet.attach_shard(make_shard(9, 4, core::CodecKind::kXorParity, 1));
  ASSERT_TRUE(attached.ok());
  const std::uint64_t first = 4;
  const std::uint64_t count = 24;
  ASSERT_TRUE(fleet.start_migration(first, count, attached.value()).ok());

  // Stage everything clean...
  for (;;) {
    auto copied = fleet.migrate_some(1 << 16);
    ASSERT_TRUE(copied.ok());
    if (copied.value() == 0) break;
  }
  // ...then write NEW content into the staged range: the affected
  // chunks must be invalidated, not silently cut over stale.
  constexpr std::uint64_t kNewSeed = 0xBEEF;
  std::vector<std::uint8_t> buf(kBlockBytes);
  for (std::uint64_t block = first; block < first + 9; ++block) {
    io::canonical_fill(block, kNewSeed, buf);
    ASSERT_TRUE(fleet.write(block, buf).ok());
  }
  EXPECT_GT(fleet.migration_progress().dirty_chunks, 0u);

  auto report = fleet.complete_migration();
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_GT(report.value().chunks_recopied, 0u);
  EXPECT_EQ(report.value().source_checksum, report.value().target_checksum);

  // The target serves the LAST written bytes.
  expect_canonical(fleet, first, first + 9, kNewSeed);
  expect_canonical(fleet, first + 9, first + count, kSeed);
}

TEST(FleetMigration, ConcurrentWriterSeesZeroDivergence) {
  Fleet fleet = make_fleet();
  const std::uint64_t n = fleet.num_blocks();
  ASSERT_TRUE(io::fill_canonical(fleet, 0, n, kSeed).ok());

  auto attached =
      fleet.attach_shard(make_shard(17, 5, core::CodecKind::kXorParity, 1));
  ASSERT_TRUE(attached.ok());
  const std::uint64_t first = 8;
  const std::uint64_t count = 48;
  ASSERT_TRUE(fleet.start_migration(first, count, attached.value()).ok());

  // One writer hammers random blocks (inside and outside the range)
  // with per-round content while the migrator stages chunk by chunk.
  constexpr std::uint64_t kWriterSeed = 0xD00D;
  std::atomic<bool> stop{false};
  std::vector<std::uint32_t> last_round(n, 0);  // 0 = still kSeed content
  std::thread writer([&] {
    std::mt19937_64 rng(7);
    std::vector<std::uint8_t> block(kBlockBytes);
    std::uint32_t round = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::uint64_t target = rng() % n;
      io::canonical_fill(target ^ (kWriterSeed + round), kWriterSeed, block);
      ASSERT_TRUE(fleet.write(target, block).ok());
      last_round[target] = round;  // single writer: plain stores are safe
      ++round;
    }
  });

  // Drain in small passes while the writer keeps dirtying chunks; a
  // bounded number of passes is enough -- complete_migration re-copies
  // whatever is still dirty under the exclusive lock.
  for (int pass = 0; pass < 400; ++pass) {
    auto copied = fleet.migrate_some(4);
    ASSERT_TRUE(copied.ok());
    if (copied.value() == 0 &&
        fleet.migration_progress().dirty_chunks == 0)
      break;
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();

  auto report = fleet.complete_migration();
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_EQ(report.value().source_checksum, report.value().target_checksum);

  // Differential sweep: every block serves exactly what the writer's
  // record says it should -- no block lost a write to the cutover.
  std::vector<std::uint8_t> buf(kBlockBytes), expected(kBlockBytes);
  for (std::uint64_t block = 0; block < n; ++block) {
    ASSERT_TRUE(fleet.read(block, buf).ok());
    if (last_round[block] == 0)
      io::canonical_fill(block, kSeed, expected);
    else
      io::canonical_fill(block ^ (kWriterSeed + last_round[block]),
                         kWriterSeed, expected);
    ASSERT_EQ(buf, expected) << "block " << block;
  }
}

TEST(FleetMigration, DegradedSourceMigratesThroughReconstruction) {
  Fleet fleet = make_fleet();
  const std::uint64_t n = fleet.num_blocks();
  ASSERT_TRUE(io::fill_canonical(fleet, 0, n, kSeed).ok());

  // Fail a disk in shard 0 and migrate OUT of it while degraded: the
  // staging reads reconstruct from survivors.
  ASSERT_TRUE(fleet.fail_disk(0, 1).ok());
  auto attached =
      fleet.attach_shard(make_shard(9, 4, core::CodecKind::kXorParity, 1));
  ASSERT_TRUE(attached.ok());
  const std::uint64_t count = 16;
  ASSERT_TRUE(fleet.start_migration(0, count, attached.value()).ok());
  for (;;) {
    auto copied = fleet.migrate_some(1 << 16);
    ASSERT_TRUE(copied.ok()) << copied.status().to_string();
    if (copied.value() == 0) break;
  }
  auto report = fleet.complete_migration();
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_EQ(report.value().source_checksum, report.value().target_checksum);

  // The moved blocks now serve DIRECTLY from the healthy target.
  std::vector<std::uint8_t> buf(kBlockBytes);
  for (std::uint64_t block = 0; block < count; ++block) {
    io::ReadReceipt receipt;
    ASSERT_TRUE(fleet.read(block, buf, &receipt).ok());
    EXPECT_EQ(receipt.kind, api::ReadPlan::Kind::kDirect);
  }
  expect_canonical(fleet, 0, n, kSeed);
}

TEST(FleetMigration, CancelReleasesTheReservation) {
  Fleet fleet = make_fleet();
  auto attached =
      fleet.attach_shard(make_shard(9, 4, core::CodecKind::kXorParity, 1));
  ASSERT_TRUE(attached.ok());
  const std::uint64_t capacity =
      fleet.shard(attached.value()).num_logical_units();

  EXPECT_EQ(fleet.cancel_migration().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(fleet.start_migration(0, capacity, attached.value()).ok());
  auto copied = fleet.migrate_some(4);
  ASSERT_TRUE(copied.ok());
  const auto before = fleet.extents();
  ASSERT_TRUE(fleet.cancel_migration().ok());
  EXPECT_FALSE(fleet.migration_progress().active);
  // Routing untouched, and the FULL capacity is reservable again --
  // the cancelled migration's landing zone was rolled back.
  EXPECT_EQ(fleet.extents().size(), before.size());
  ASSERT_TRUE(fleet.start_migration(0, capacity, attached.value()).ok());
  ASSERT_TRUE(fleet.cancel_migration().ok());
}

TEST(FleetMigration, StartValidationMatrix) {
  Fleet fleet = make_fleet();
  const std::uint64_t n = fleet.num_blocks();
  EXPECT_EQ(fleet.migrate_some(1).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(fleet.complete_migration().status().code(),
            StatusCode::kFailedPrecondition);

  // Range already routed to the target shard.
  EXPECT_EQ(fleet.start_migration(0, 4, 0).code(),
            StatusCode::kFailedPrecondition);
  // Unknown shard / zero blocks / out of range.
  EXPECT_EQ(fleet.start_migration(0, 4, 99).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fleet.start_migration(0, 0, 1).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fleet.start_migration(n - 2, 4, 0).code(),
            StatusCode::kOutOfRange);
  // Target too small for the range.
  auto attached =
      fleet.attach_shard(make_shard(9, 4, core::CodecKind::kXorParity, 1));
  ASSERT_TRUE(attached.ok());
  const std::uint64_t capacity =
      fleet.shard(attached.value()).num_logical_units();
  ASSERT_LT(capacity, n);
  EXPECT_EQ(fleet.start_migration(0, capacity + 1, attached.value()).code(),
            StatusCode::kFailedPrecondition);
  // Only one migration at a time.
  ASSERT_TRUE(fleet.start_migration(0, 4, attached.value()).ok());
  EXPECT_EQ(fleet.start_migration(8, 4, attached.value()).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(fleet.cancel_migration().ok());
}

TEST(FleetMigration, AddShardPlansTheTailAndExpandDrivesItHome) {
  Fleet fleet = make_fleet();
  const std::uint64_t n = fleet.num_blocks();
  ASSERT_TRUE(io::fill_canonical(fleet, 0, n, kSeed).ok());

  const std::uint32_t shards_before = fleet.num_shards();
  ASSERT_TRUE(
      fleet.expand(make_shard(9, 4, core::CodecKind::kReedSolomonPQ, 1))
          .ok());
  EXPECT_EQ(fleet.num_shards(), shards_before + 1);
  EXPECT_FALSE(fleet.migration_progress().active);
  EXPECT_EQ(fleet.num_blocks(), n);

  // The tail of the space now routes to the new shard (fair share,
  // bounded by the new shard's capacity)...
  auto tail = fleet.route_of(n - 1);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail.value().shard, shards_before);
  // ...and every byte survived the rebalance.
  expect_canonical(fleet, 0, n, kSeed);
}

}  // namespace
}  // namespace pdl::fleet
