// The end-to-end integrity layer of io::StripeStore: per-unit CRC32C
// checksums verified on every read path.  The suite pins:
//
//   * a store without api::ArrayOptions::integrity is inert -- no
//     counters move, scrub is an empty report;
//   * healthy reads verify and count; seeded on-media rot (written
//     behind the store's back) is detected on read, served canonically
//     anyway (codec reconstruction), healed IN PLACE, and the media
//     ends checksum-identical to the pre-rot oracle;
//   * degraded reads verify every survivor: rot in a survivor of a
//     degraded stripe is caught (never silently decoded into the
//     "reconstructed" unit) and healed when the erasure budget covers
//     lost + rotted;
//   * rot past the codec's tolerance surfaces kChecksumMismatch -- the
//     store refuses to serve bytes it cannot vouch for;
//   * units never written carry the stored-zero "unverified" sentinel
//     and are adopted (given fresh CRCs) by scrub, exactly once;
//   * verify_stripes (the parity re-encode audit) flags rotted
//     instances before healing and none after;
//   * the integrity flag round-trips api::Array serialization, and a
//     file-backed store's checksum region round-trips reopen;
//   * fail/replace/rebuild refreshes the replacement's CRCs (rebuilt
//     bytes verify; the rebuilt disk is checksum-identical).

#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "api/array.hpp"
#include "io/disk_backend.hpp"
#include "io/stripe_store.hpp"
#include "io/workload_driver.hpp"

namespace pdl::io {
namespace {

constexpr std::uint32_t kV = 17;
constexpr std::uint32_t kK = 5;
constexpr std::uint32_t kUnitBytes = 64;
constexpr std::uint32_t kIterations = 2;
constexpr std::uint64_t kSeed = 0xC4C5;

Result<StripeStore> make_store(core::CodecKind codec, bool integrity,
                               std::unique_ptr<DiskBackend> backend = {}) {
  auto array = api::Array::create({kV, kK}, {},
                                  {.codec = codec, .integrity = integrity});
  EXPECT_TRUE(array.ok()) << array.status().to_string();
  if (!array.ok()) return array.status();
  return StripeStore::create(
      std::move(array).value(),
      {.unit_bytes = kUnitBytes, .iterations = kIterations},
      std::move(backend));
}

/// Flips one bit of `p`'s on-media unit behind the store's back: the
/// store's CRC cache still vouches for the original bytes, so the next
/// read of this unit must detect the mismatch.
void rot_unit(StripeStore& store, Physical p) {
  const std::uint64_t byte =
      static_cast<std::uint64_t>(p.offset) * store.unit_bytes();
  std::uint8_t media = 0;
  ASSERT_TRUE(store.backend().read(p.disk, byte, {&media, 1}).ok());
  media ^= 0x40;
  ASSERT_TRUE(store.backend().write(p.disk, byte, {&media, 1}).ok());
}

void expect_canonical(StripeStore& store, std::uint64_t logical) {
  std::vector<std::uint8_t> unit(store.unit_bytes());
  std::vector<std::uint8_t> expected(store.unit_bytes());
  ASSERT_TRUE(store.read(logical, unit).ok()) << "logical " << logical;
  canonical_fill(logical, kSeed, expected);
  EXPECT_EQ(unit, expected) << "logical " << logical;
}

TEST(Integrity, NonIntegrityStoreIsInert) {
  auto store = make_store(core::CodecKind::kXorParity, false);
  ASSERT_TRUE(store.ok());
  EXPECT_FALSE(store->integrity());
  ASSERT_TRUE(
      fill_canonical(*store, 0, store->num_logical_units(), kSeed).ok());
  expect_canonical(*store, 0);

  const IntegrityStats stats = store->integrity_stats();
  EXPECT_EQ(stats.verified, 0u);
  EXPECT_EQ(stats.mismatches, 0u);
  EXPECT_EQ(stats.healed, 0u);
  EXPECT_EQ(stats.adopted, 0u);

  const auto report = store->scrub();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->instances, 0u);
}

TEST(Integrity, HealthyReadsVerifyAndCount) {
  auto store = make_store(core::CodecKind::kXorParity, true);
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE(store->integrity());
  ASSERT_TRUE(
      fill_canonical(*store, 0, store->num_logical_units(), kSeed).ok());
  for (std::uint64_t logical = 0; logical < store->num_logical_units();
       ++logical)
    expect_canonical(*store, logical);

  const IntegrityStats stats = store->integrity_stats();
  EXPECT_GE(stats.verified, store->num_logical_units());
  EXPECT_EQ(stats.mismatches, 0u);
  EXPECT_EQ(stats.healed, 0u);
  EXPECT_EQ(stats.unhealable, 0u);
}

TEST(Integrity, OnMediaRotIsDetectedHealedInPlace) {
  auto store = make_store(core::CodecKind::kXorParity, true);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(
      fill_canonical(*store, 0, store->num_logical_units(), kSeed).ok());
  const auto oracle = store->checksum_disks();
  ASSERT_TRUE(oracle.ok());

  const std::uint64_t logical = store->num_logical_units() / 2;
  rot_unit(*store, store->array().map(logical));

  // The read serves canonical bytes anyway: detect, reconstruct through
  // the codec, heal the media, retry.
  expect_canonical(*store, logical);
  IntegrityStats stats = store->integrity_stats();
  // One rotten unit counts once: the read that finds it counts it, and
  // the heal that follows re-verifies the instance without counting it
  // again.
  EXPECT_EQ(stats.mismatches, 1u);
  EXPECT_EQ(stats.healed, 1u);
  EXPECT_EQ(stats.unhealable, 0u);
  const std::uint64_t detections = stats.mismatches;

  // The heal rewrote the unit: a second read verifies cleanly (the
  // detection counter is stable) and the media is byte-identical to
  // before the corruption.
  expect_canonical(*store, logical);
  stats = store->integrity_stats();
  EXPECT_EQ(stats.mismatches, detections);
  const auto after = store->checksum_disks();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *oracle);
}

TEST(Integrity, DegradedReadVerifiesSurvivorsAndHeals) {
  // Reed-Solomon P+Q: one disk lost AND one survivor rotted is still
  // within the two-erasure budget -- the degraded read must catch the
  // rotted survivor (not decode garbage) and serve canonical bytes.
  auto store = make_store(core::CodecKind::kReedSolomonPQ, true);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(
      fill_canonical(*store, 0, store->num_logical_units(), kSeed).ok());

  const layout::DiskId failed = 0;
  ASSERT_TRUE(store->fail_disk(failed).ok());
  // A logical whose unit lived on the failed disk now reads degraded.
  std::uint64_t degraded_logical = store->num_logical_units();
  for (std::uint64_t logical = 0; logical < store->num_logical_units();
       ++logical)
    if (store->array().map(logical).disk == failed) {
      degraded_logical = logical;
      break;
    }
  ASSERT_LT(degraded_logical, store->num_logical_units());

  std::array<Physical, 64> survivors;
  const auto plan = store->array().locate(degraded_logical, survivors);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->kind, api::ReadPlan::Kind::kDegraded);
  ASSERT_GT(plan->num_survivors, 0u);
  rot_unit(*store, survivors[0]);

  expect_canonical(*store, degraded_logical);
  const IntegrityStats stats = store->integrity_stats();
  EXPECT_EQ(stats.mismatches, 1u);
  EXPECT_EQ(stats.healed, 1u);
  EXPECT_EQ(stats.unhealable, 0u);
}

TEST(Integrity, RotBeyondTheCodecBudgetSurfaces) {
  // XOR tolerates one erasure; rot TWO units of one stripe and the
  // store must refuse the read (kChecksumMismatch), never serve bytes
  // it cannot vouch for.
  auto store = make_store(core::CodecKind::kXorParity, true);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(
      fill_canonical(*store, 0, store->num_logical_units(), kSeed).ok());

  const std::uint64_t logical = 0;
  const Physical own = store->array().map(logical);
  const auto ref = store->array().logical_ref(logical);
  std::array<api::Array::StripeUnitStatus, 64> units;
  const auto width = store->array().stripe_units(ref.stripe, units);
  ASSERT_TRUE(width.ok());
  // logical 0 lives at iteration 0, so stripe_units' iteration-0 homes
  // are the right physicals to rot.
  ASSERT_EQ(ref.iteration, 0u);
  rot_unit(*store, own);
  for (std::uint32_t u = 0; u < *width; ++u)
    if (!(units[u].unit.disk == own.disk &&
          units[u].unit.offset == own.offset)) {
      rot_unit(*store, units[u].unit);
      break;
    }

  std::vector<std::uint8_t> unit(store->unit_bytes());
  const Status status = store->read(logical, unit);
  EXPECT_EQ(status.code(), StatusCode::kChecksumMismatch);
  // Two rotten units, each counted once: the read finds its own unit,
  // the heal finds the other and gives up.
  const IntegrityStats stats = store->integrity_stats();
  EXPECT_EQ(stats.mismatches, 2u);
  EXPECT_EQ(stats.unhealable, 1u);
}

TEST(Integrity, TransientFlipCountsOnceAndHealsNothing) {
  // A flip in the read buffer, not on media: the read that sees it
  // counts one mismatch, and the heal finds the media clean.
  auto fault = std::make_unique<FaultInjectionBackend>(
      make_memory_backend(), FaultInjectionOptions{.seed = kSeed});
  FaultInjectionBackend* fault_ptr = fault.get();
  auto store = make_store(core::CodecKind::kReedSolomonPQ, true,
                          std::move(fault));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(
      fill_canonical(*store, 0, store->num_logical_units(), kSeed).ok());
  const std::uint64_t next_read[] = {fault_ptr->stats().reads + 1};
  fault_ptr->arm_rot_on_reads(next_read);

  expect_canonical(*store, 5);
  expect_canonical(*store, 5);
  const IntegrityStats stats = store->integrity_stats();
  EXPECT_EQ(fault_ptr->stats().injected_bit_flips, 1u);
  EXPECT_EQ(stats.mismatches, 1u);
  EXPECT_EQ(stats.healed, 0u);
  EXPECT_EQ(stats.unhealable, 0u);
}

TEST(Integrity, ScrubAdoptsUnverifiedUnitsExactlyOnce) {
  // Fill only the first half of the address space: everything never
  // written still carries the stored-zero "unverified" sentinel.  A
  // scrub cycle adopts those units (fresh CRCs, no mismatch); a second
  // cycle finds nothing left to adopt.
  auto store = make_store(core::CodecKind::kXorParity, true);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(
      fill_canonical(*store, 0, store->num_logical_units() / 2, kSeed).ok());

  const auto first = store->scrub();
  ASSERT_TRUE(first.ok());
  const IntegrityStats after_first = store->integrity_stats();
  EXPECT_GT(after_first.adopted, 0u);
  EXPECT_EQ(after_first.mismatches, 0u);
  EXPECT_EQ(first->mismatches, 0u);

  const auto second = store->scrub();
  ASSERT_TRUE(second.ok());
  const IntegrityStats after_second = store->integrity_stats();
  EXPECT_EQ(after_second.adopted, after_first.adopted);
  EXPECT_EQ(after_second.mismatches, 0u);
}

TEST(Integrity, VerifyStripesFlagsRotThenScrubClearsIt) {
  auto store = make_store(core::CodecKind::kReedSolomonPQ, true);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(
      fill_canonical(*store, 0, store->num_logical_units(), kSeed).ok());
  const auto clean = store->verify_stripes();
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(*clean, 0u);

  rot_unit(*store, store->array().map(3));
  const auto rotted = store->verify_stripes();
  ASSERT_TRUE(rotted.ok());
  EXPECT_EQ(*rotted, 1u);

  const auto report = store->scrub();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->mismatches, 1u);
  EXPECT_EQ(report->healed, 1u);
  const auto healed = store->verify_stripes();
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(*healed, 0u);
}

TEST(Integrity, FlagRoundTripsArraySerialization) {
  auto with = api::Array::create({kV, kK}, {}, {.integrity = true});
  ASSERT_TRUE(with.ok());
  EXPECT_TRUE(with->integrity());
  auto reopened = api::Array::deserialize(with->serialize());
  ASSERT_TRUE(reopened.ok()) << reopened.status().to_string();
  EXPECT_TRUE(reopened->integrity());

  auto without = api::Array::create({kV, kK}, {}, {});
  ASSERT_TRUE(without.ok());
  EXPECT_FALSE(without->integrity());
  auto reopened_plain = api::Array::deserialize(without->serialize());
  ASSERT_TRUE(reopened_plain.ok());
  EXPECT_FALSE(reopened_plain->integrity());
}

TEST(Integrity, ChecksumRegionRoundTripsFileReopen) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("pdl_integrity_reopen_" +
       std::to_string(static_cast<unsigned long>(::getpid())));
  std::string array_text;
  {
    auto store = make_store(core::CodecKind::kXorParity, true,
                            make_file_backend({.directory = dir.string()}));
    ASSERT_TRUE(store.ok()) << store.status().to_string();
    ASSERT_TRUE(
        fill_canonical(*store, 0, store->num_logical_units(), kSeed).ok());
    array_text = store->array().serialize();
    ASSERT_TRUE(store->sync().ok());
  }
  {
    auto array = api::Array::deserialize(array_text);
    ASSERT_TRUE(array.ok());
    auto store = StripeStore::create(
        std::move(array).value(),
        {.unit_bytes = kUnitBytes, .iterations = kIterations},
        make_file_backend({.directory = dir.string()}));
    ASSERT_TRUE(store.ok()) << store.status().to_string();

    // Reopened CRCs verify every unit with zero false mismatches...
    for (std::uint64_t logical = 0; logical < store->num_logical_units();
         ++logical)
      expect_canonical(*store, logical);
    IntegrityStats stats = store->integrity_stats();
    EXPECT_GT(stats.verified, 0u);
    EXPECT_EQ(stats.mismatches, 0u);
    EXPECT_EQ(stats.adopted, 0u);

    // ...and still catch rot seeded AFTER the reopen (the detection
    // authority is the persisted region, reloaded into the cache).
    rot_unit(*store, store->array().map(1));
    expect_canonical(*store, 1);
    stats = store->integrity_stats();
    EXPECT_EQ(stats.mismatches, 1u);
    EXPECT_EQ(stats.healed, 1u);
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(Integrity, RebuildRefreshesReplacementCrcs) {
  auto store = make_store(core::CodecKind::kXorParity, true);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(
      fill_canonical(*store, 0, store->num_logical_units(), kSeed).ok());
  const auto oracle = store->checksum_disks();
  ASSERT_TRUE(oracle.ok());

  const layout::DiskId failed = kV / 2;
  ASSERT_TRUE(store->fail_disk(failed).ok());
  ASSERT_TRUE(store->replace_disk(failed).ok());
  ASSERT_TRUE(store->rebuild().ok());
  EXPECT_TRUE(store->array().healthy());

  // Every rebuilt byte verifies against a FRESH checksum (a stale CRC
  // region would flag every rebuilt unit as rotted)...
  for (std::uint64_t logical = 0; logical < store->num_logical_units();
       ++logical)
    expect_canonical(*store, logical);
  const IntegrityStats stats = store->integrity_stats();
  EXPECT_EQ(stats.mismatches, 0u);

  // ...the parity audit is clean, and the rebuilt disk is
  // checksum-identical to its pre-failure contents.
  const auto inconsistent = store->verify_stripes();
  ASSERT_TRUE(inconsistent.ok());
  EXPECT_EQ(*inconsistent, 0u);
  const auto rebuilt = store->checksum_disk(failed);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(*rebuilt, (*oracle)[failed]);
}

}  // namespace
}  // namespace pdl::io
