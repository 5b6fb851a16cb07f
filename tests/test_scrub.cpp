// The scrub path's two drivers: StripeStore's cursor-driven scrub
// slices (unpaced) and the fleet tier's governed scrub.  The suite
// pins:
//
//   * scrub_some advances a round-robin cursor in slices whose report
//     counts exactly the instances swept; a full scrub() covers every
//     stripe instance once;
//   * a scrub cycle detects and heals seeded on-media rot, leaving the
//     media checksum-identical to the pre-rot oracle;
//   * scrub cycles looping beside a verifying read/write workload heal
//     seeded rot under XOR and RS with no read ever seeing wrong bytes
//     and every instance's parity consistent afterwards;
//   * Fleet::scrub_some charges the shared RebuildGovernor as scrub
//     (scrub_grants / scrub_granted_bytes move, and only for the
//     scrubbed shard); scrub_all sweeps every integrity shard and
//     heals rot through the fleet front door;
//   * shards without integrity scrub as empty reports.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "api/array.hpp"
#include "fleet/fleet.hpp"
#include "fleet/governor.hpp"
#include "io/disk_backend.hpp"
#include "io/stripe_store.hpp"
#include "io/workload_driver.hpp"

namespace pdl::io {
namespace {

constexpr std::uint32_t kV = 17;
constexpr std::uint32_t kK = 5;
constexpr std::uint32_t kUnitBytes = 64;
constexpr std::uint32_t kIterations = 2;
constexpr std::uint64_t kSeed = 0x5C12B;

Result<StripeStore> make_store(
    bool integrity, core::CodecKind codec = core::CodecKind::kXorParity) {
  auto array = api::Array::create(
      {kV, kK}, {}, {.codec = codec, .integrity = integrity});
  EXPECT_TRUE(array.ok()) << array.status().to_string();
  if (!array.ok()) return array.status();
  return StripeStore::create(
      std::move(array).value(),
      {.unit_bytes = kUnitBytes, .iterations = kIterations}, nullptr);
}

std::uint64_t instances_of(const StripeStore& store) {
  return static_cast<std::uint64_t>(store.array().num_stripes()) *
         store.iterations();
}

void rot_unit(StripeStore& store, Physical p) {
  const std::uint64_t byte =
      static_cast<std::uint64_t>(p.offset) * store.unit_bytes();
  std::uint8_t media = 0;
  ASSERT_TRUE(store.backend().read(p.disk, byte, {&media, 1}).ok());
  media ^= 0x08;
  ASSERT_TRUE(store.backend().write(p.disk, byte, {&media, 1}).ok());
}

TEST(Scrub, SlicesCountInstancesAndAFullCycleCoversAll) {
  auto store = make_store(true);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(
      fill_canonical(*store, 0, store->num_logical_units(), kSeed).ok());

  const auto slice = store->scrub_some(5);
  ASSERT_TRUE(slice.ok());
  EXPECT_EQ(slice->instances, 5u);
  EXPECT_EQ(slice->mismatches, 0u);
  EXPECT_EQ(store->integrity_stats().scrubbed, 5u);

  const auto cycle = store->scrub();
  ASSERT_TRUE(cycle.ok());
  EXPECT_EQ(cycle->instances, instances_of(*store));
  EXPECT_EQ(store->integrity_stats().scrubbed, 5u + instances_of(*store));
}

TEST(Scrub, CycleHealsRotChecksumIdentical) {
  auto store = make_store(true);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(
      fill_canonical(*store, 0, store->num_logical_units(), kSeed).ok());
  const auto oracle = store->checksum_disks();
  ASSERT_TRUE(oracle.ok());

  rot_unit(*store, store->array().map(0));
  rot_unit(*store, store->array().map(store->num_logical_units() - 1));

  const auto cycle = store->scrub();
  ASSERT_TRUE(cycle.ok());
  EXPECT_EQ(cycle->mismatches, 2u);
  EXPECT_EQ(cycle->healed, 2u);
  EXPECT_EQ(cycle->unhealable, 0u);

  const auto after = store->checksum_disks();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *oracle);
  const auto again = store->scrub();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->mismatches, 0u);
}

TEST(Scrub, NonIntegrityStoreYieldsEmptyReports) {
  auto store = make_store(false);
  ASSERT_TRUE(store.ok());
  const auto report = store->scrub_some(8);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->instances, 0u);

  const auto cycle = store->scrub();
  ASSERT_TRUE(cycle.ok());
  EXPECT_EQ(cycle->instances, 0u);
}

TEST(Scrub, CyclesBesideForegroundTrafficHealRot) {
  for (const core::CodecKind codec :
       {core::CodecKind::kXorParity, core::CodecKind::kReedSolomonPQ}) {
    SCOPED_TRACE(core::codec_kind_name(codec));
    auto store = make_store(true, codec);
    ASSERT_TRUE(store.ok());
    const std::uint64_t n = store->num_logical_units();
    ASSERT_TRUE(fill_canonical(*store, 0, n, kSeed).ok());
    // Four units a quarter of the address space apart, so no two share
    // a stripe instance and XOR can heal each one.
    for (std::uint64_t q = 0; q < 4; ++q)
      rot_unit(*store, store->array().map(q * n / 4));

    std::atomic<bool> done{false};
    std::uint64_t failed_cycles = 0;
    std::thread scrubber([&] {
      do {
        const auto cycle = store->scrub();
        if (!cycle.ok() || cycle->unhealable != 0) ++failed_cycles;
      } while (!done);
    });
    WorkloadDriver driver(*store, {.num_threads = 4,
                                   .ops_per_thread = 4000,
                                   .read_fraction = 0.7,
                                   .seed = kSeed,
                                   .verify_reads = true});
    const WorkloadStats stats = driver.run();
    done = true;
    scrubber.join();

    EXPECT_EQ(failed_cycles, 0u);
    EXPECT_EQ(stats.verify_failures, 0u);
    EXPECT_EQ(stats.errors, 0u);
    EXPECT_GE(store->integrity_stats().healed, 4u);
    const auto inconsistent = store->verify_stripes();
    ASSERT_TRUE(inconsistent.ok());
    EXPECT_EQ(*inconsistent, 0u);
  }
}

// ------------------------------------------------------- fleet scrub

/// A shard over an explicit MemoryBackend whose raw pointer the test
/// keeps: media rot is seeded through it directly (the substrate under
/// the store), never by mutating shard state through the fleet.
[[nodiscard]] fleet::ShardSpec make_shard(std::uint32_t v, std::uint32_t k,
                                          bool integrity,
                                          DiskBackend** backend_out) {
  auto array = api::Array::create(
      {.num_disks = v, .stripe_size = k}, {},
      {.codec = core::CodecKind::kXorParity, .integrity = integrity});
  EXPECT_TRUE(array.ok()) << array.status().to_string();
  auto backend = make_memory_backend();
  if (backend_out) *backend_out = backend.get();
  return fleet::ShardSpec{.array = std::move(array).value(),
                          .iterations = 1,
                          .backend = std::move(backend)};
}

void rot_media(DiskBackend& backend, Physical p, std::uint32_t unit_bytes) {
  const std::uint64_t byte =
      static_cast<std::uint64_t>(p.offset) * unit_bytes;
  std::uint8_t media = 0;
  ASSERT_TRUE(backend.read(p.disk, byte, {&media, 1}).ok());
  media ^= 0x08;
  ASSERT_TRUE(backend.write(p.disk, byte, {&media, 1}).ok());
}

TEST(FleetScrub, GovernedScrubChargesTheGovernorAsScrub) {
  std::vector<fleet::ShardSpec> shards;
  shards.push_back(make_shard(9, 4, true, nullptr));
  shards.push_back(make_shard(9, 4, true, nullptr));
  auto fleet = fleet::Fleet::create(std::move(shards), {.block_bytes = 64});
  ASSERT_TRUE(fleet.ok()) << fleet.status().to_string();
  ASSERT_TRUE(fill_canonical(*fleet, 0, fleet->num_blocks(), kSeed).ok());

  std::uint64_t blocked = ~0ull;
  const auto report = fleet->scrub_some(0, 4, &blocked);
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_EQ(report->instances, 4u);
  EXPECT_EQ(blocked, 0u);

  // Charged to shard 0 as SCRUB grants; shard 1 untouched, and nothing
  // was booked as rebuild work anywhere.
  const fleet::GovernorStats charged = fleet->governor().shard_stats(0);
  EXPECT_GT(charged.scrub_grants, 0u);
  EXPECT_GT(charged.scrub_granted_bytes, 0u);
  // A fully-swept slice consumes its whole worst-case estimate (the
  // fleet prices every instance at the max stripe footprint).
  EXPECT_EQ(charged.refunded_bytes, 0u);
  EXPECT_EQ(fleet->governor().shard_stats(1).scrub_granted_bytes, 0u);

  EXPECT_EQ(fleet->scrub_some(99, 1).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FleetScrub, ScrubAllSweepsEveryShardAndHealsRot) {
  std::array<DiskBackend*, 2> media = {};
  std::vector<fleet::ShardSpec> shards;
  shards.push_back(make_shard(9, 4, true, &media[0]));
  shards.push_back(make_shard(13, 4, true, &media[1]));
  auto fleet = fleet::Fleet::create(std::move(shards), {.block_bytes = 64});
  ASSERT_TRUE(fleet.ok()) << fleet.status().to_string();
  ASSERT_TRUE(fill_canonical(*fleet, 0, fleet->num_blocks(), kSeed).ok());

  // Rot one unit in each shard, behind the stores' backs.
  for (std::uint32_t s = 0; s < fleet->num_shards(); ++s)
    rot_media(*media[s], fleet->shard(s).array().map(0), 64);

  const auto sweep = fleet->scrub_all();
  ASSERT_TRUE(sweep.ok()) << sweep.status().to_string();
  std::uint64_t expected_instances = 0;
  for (std::uint32_t s = 0; s < fleet->num_shards(); ++s)
    expected_instances += instances_of(fleet->shard(s));
  EXPECT_EQ(sweep->instances, expected_instances);
  EXPECT_EQ(sweep->mismatches, 2u);
  EXPECT_EQ(sweep->healed, 2u);
  EXPECT_EQ(sweep->unhealable, 0u);

  // Healed in place: every block reads canonical through the front
  // door with no fresh detections.
  std::vector<std::uint8_t> buf(64), expected(64);
  for (std::uint64_t block = 0; block < fleet->num_blocks(); ++block) {
    ASSERT_TRUE(fleet->read(block, buf).ok()) << "block " << block;
    canonical_fill(block, kSeed, expected);
    ASSERT_EQ(buf, expected) << "block " << block;
  }
}

TEST(FleetScrub, NonIntegrityShardScrubsAsEmpty) {
  std::vector<fleet::ShardSpec> shards;
  shards.push_back(make_shard(9, 4, false, nullptr));
  auto fleet = fleet::Fleet::create(std::move(shards), {.block_bytes = 64});
  ASSERT_TRUE(fleet.ok());
  const auto report = fleet->scrub_some(0, 4, nullptr);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->instances, 0u);
  EXPECT_EQ(fleet->governor().shard_stats(0).scrub_grants, 0u);

  const auto sweep = fleet->scrub_all();
  ASSERT_TRUE(sweep.ok());
  EXPECT_EQ(sweep->instances, 0u);
}

}  // namespace
}  // namespace pdl::io
