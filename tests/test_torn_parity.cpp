// Regression suite for the torn-parity RMW window.  A small write's
// parity maintenance can land PARTIALLY (some stripes writes succeed,
// some fail); the store compensates by rolling the landed writes back,
// and before this suite's bugfix a FAILED compensation simply returned
// the original error -- leaving parity silently inconsistent with data,
// so a later degraded read or rebuild decode would fabricate bytes.
// The store now marks the stripe instance "torn", surfaces
// kParityInconsistent, refuses every parity-trusting operation on the
// instance, and heals (full re-encode) on the next full-knowledge write.
// With the stripe cache on, a fold's batch can tear the same way; the
// next write to the instance or the next flush re-encodes it, landing
// every absorbed write.
//
// The scripted fault injector forces the exact double-fault
// interleavings deterministically: the base execute_batch issues a
// batch's requests strictly in order, so lifetime write ordinals
// identify "the data write of the Nth store.write()" precisely.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "api/array.hpp"
#include "io/disk_backend.hpp"
#include "io/stripe_store.hpp"
#include "io/workload_driver.hpp"

namespace pdl::io {
namespace {

constexpr std::uint32_t kUnitBytes = 40;
constexpr std::uint32_t kIterations = 2;
constexpr std::uint64_t kSeed = 0x70A1;

struct TornFixture {
  std::unique_ptr<StripeStore> store;
  FaultInjectionBackend* faults = nullptr;  ///< owned by the store

  /// num_disks=9, stripe_size=4 (complete-ish catalog pick), dedicated
  /// sparing: every unit write while healthy is an RMW touching
  /// 1 + num_parity units (or, with `cache` on, an absorbed write).
  static TornFixture create(core::CodecKind codec,
                            std::vector<std::uint64_t> fail_write_ops,
                            const StripeCacheOptions& cache = {}) {
    TornFixture f;
    auto array = api::Array::create({.num_disks = 9, .stripe_size = 4}, {},
                                    {.codec = codec});
    EXPECT_TRUE(array.ok()) << array.status().to_string();
    if (!array.ok()) return f;
    auto fault_backend = std::make_unique<FaultInjectionBackend>(
        make_memory_backend(),
        FaultInjectionOptions{.fail_write_ops = std::move(fail_write_ops)});
    f.faults = fault_backend.get();
    auto store = StripeStore::create(
        std::move(array).value(),
        {.unit_bytes = kUnitBytes, .iterations = kIterations, .cache = cache},
        std::move(fault_backend));
    EXPECT_TRUE(store.ok()) << store.status().to_string();
    if (store.ok())
      f.store = std::make_unique<StripeStore>(std::move(store).value());
    return f;
  }
};

/// Writes-per-unit while healthy: data + every parity.
std::uint64_t writes_per_unit(const StripeStore& store) {
  return 1 + store.array().num_parity_units();
}

/// Ordinal script that makes the FIRST batch after `base` writes
/// double-fault.  Every RMW commits one batch -- data, then each parity
/// -- and a failed batch rolls back the landed units in the same order.
/// Under XOR the batch is [data, P], so failing ordinals {base+2,
/// base+3} means "data landed, P failed, data rollback failed".  Under
/// RS the batch is [data, P, Q], so {base+3, base+4} means "data and P
/// landed, Q failed, data rollback failed".  A cache fold of one
/// absorbed write commits the same shape.
std::vector<std::uint64_t> double_fault_script(core::CodecKind codec,
                                               std::uint64_t base) {
  if (codec == core::CodecKind::kXorParity) return {base + 2, base + 3};
  return {base + 3, base + 4};
}

void expect_canonical(StripeStore& store, std::uint64_t logical,
                      const char* context) {
  std::vector<std::uint8_t> unit(store.unit_bytes());
  std::vector<std::uint8_t> expected(store.unit_bytes());
  ASSERT_TRUE(store.read(logical, unit).ok()) << context;
  canonical_fill(logical, kSeed, expected);
  EXPECT_EQ(unit, expected) << context;
}

void run_double_fault_marks_torn(core::CodecKind codec) {
  auto f = TornFixture::create(codec, {});
  ASSERT_TRUE(f.store);
  StripeStore& store = *f.store;
  const std::uint64_t n = store.num_logical_units();
  ASSERT_TRUE(fill_canonical(store, 0, n, kSeed).ok());
  const std::uint64_t per_unit = writes_per_unit(store);

  // Re-create with the scripted faults positioned right after the fill.
  auto scripted = TornFixture::create(
      codec, double_fault_script(codec, n * per_unit));
  ASSERT_TRUE(scripted.store);
  StripeStore& s = *scripted.store;
  ASSERT_TRUE(fill_canonical(s, 0, n, kSeed).ok());
  EXPECT_EQ(s.torn_parity_instances(), 0u);

  // The double-fault write: partial stripe write AND failed compensation.
  const std::uint64_t victim = 0;
  std::vector<std::uint8_t> fresh(s.unit_bytes(), 0xA5);
  const Status torn_write = s.write(victim, fresh);
  EXPECT_EQ(torn_write.code(), StatusCode::kParityInconsistent)
      << torn_write.to_string();
  EXPECT_EQ(s.torn_parity_instances(), 1u);
  const auto ref = s.array().logical_ref(victim);
  EXPECT_TRUE(s.parity_torn(ref.stripe, ref.iteration));
  EXPECT_FALSE(s.parity_torn(ref.stripe, ref.iteration + 1))
      << "the tear must be per stripe INSTANCE, not per stripe";

  // Healthy (direct) reads never trust parity: still served.
  std::vector<std::uint8_t> unit(s.unit_bytes());
  EXPECT_TRUE(s.read(victim, unit).ok());

  // Degraded reads on the torn instance are refused -- the decode would
  // otherwise fabricate bytes from inconsistent parity.
  std::array<Physical, 64> survivors;
  const auto plan = s.array().locate(victim, survivors);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(s.fail_disk(plan->target.disk).ok());
  const Status degraded = s.read(victim, unit);
  EXPECT_EQ(degraded.code(), StatusCode::kParityInconsistent)
      << degraded.to_string();

  // read_batch refuses the torn unit with the same typed status but
  // keeps serving its batchmates.
  const std::uint64_t logicals[2] = {victim, victim + 1};
  std::vector<std::uint8_t> out(2 * s.unit_bytes());
  Status statuses[2];
  (void)s.read_batch(logicals, out, statuses, {});
  EXPECT_EQ(statuses[0].code(), StatusCode::kParityInconsistent);
  EXPECT_TRUE(statuses[1].ok()) << statuses[1].to_string();

  // A rebuild step that would decode data THROUGH the torn parity is
  // refused with the same typed status (not silently corrupted).
  ASSERT_TRUE(s.replace_disk(plan->target.disk).ok());
  const auto outcome = s.rebuild();
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kParityInconsistent)
      << outcome.status().to_string();

  // A reconstruct-write on the torn + degraded instance is unhealable.
  const Status unhealable = s.write(victim, fresh);
  EXPECT_EQ(unhealable.code(), StatusCode::kParityInconsistent);
}

TEST(TornParity, DoubleFaultMarksTornAndBlocksParityTrustingOpsXor) {
  run_double_fault_marks_torn(core::CodecKind::kXorParity);
}

TEST(TornParity, DoubleFaultMarksTornAndBlocksParityTrustingOpsRs) {
  run_double_fault_marks_torn(core::CodecKind::kReedSolomonPQ);
}

void run_rmw_heals_torn_instance(core::CodecKind codec) {
  auto probe = TornFixture::create(codec, {});
  ASSERT_TRUE(probe.store);
  const std::uint64_t n = probe.store->num_logical_units();
  ASSERT_TRUE(fill_canonical(*probe.store, 0, n, kSeed).ok());
  const std::uint64_t per_unit = writes_per_unit(*probe.store);

  auto f = TornFixture::create(codec,
                               double_fault_script(codec, n * per_unit));
  ASSERT_TRUE(f.store);
  StripeStore& s = *f.store;
  ASSERT_TRUE(fill_canonical(s, 0, n, kSeed).ok());

  const std::uint64_t victim = 0;
  std::vector<std::uint8_t> unit(s.unit_bytes());
  canonical_fill(victim, kSeed, unit);
  EXPECT_EQ(s.write(victim, unit).code(), StatusCode::kParityInconsistent);
  EXPECT_EQ(s.torn_parity_instances(), 1u);

  // The next RMW has every data unit at hand, so it doubles as the
  // heal: full parity re-encode, tear cleared, receipt reporting the
  // peer reads that fed it.
  WriteReceipt receipt;
  const Status healed = s.write(victim, unit, &receipt);
  ASSERT_TRUE(healed.ok()) << healed.to_string();
  EXPECT_EQ(s.torn_parity_instances(), 0u);
  EXPECT_EQ(receipt.num_writes, 1 + s.array().num_parity_units());

  // Parity is consistent again: every degraded decode of the stripe
  // serves canonical bytes.
  std::array<Physical, 64> survivors;
  const auto plan = s.array().locate(victim, survivors);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(s.fail_disk(plan->target.disk).ok());
  expect_canonical(s, victim, "degraded read after heal");
  if (codec == core::CodecKind::kReedSolomonPQ) {
    // Two concurrent failures: the healed stripe must decode through
    // BOTH parities.
    const DiskId second = (plan->target.disk + 1) % s.array().num_disks();
    ASSERT_TRUE(s.fail_disk(second).ok());
    expect_canonical(s, victim, "double-degraded read after heal");
  }
}

TEST(TornParity, RmwWriteHealsTornInstanceXor) {
  run_rmw_heals_torn_instance(core::CodecKind::kXorParity);
}

TEST(TornParity, RmwWriteHealsTornInstanceRs) {
  run_rmw_heals_torn_instance(core::CodecKind::kReedSolomonPQ);
}

TEST(TornParity, SingleFaultCompensationStillRestoresConsistency) {
  // One failed write with a SUCCESSFUL compensation must NOT tear the
  // stripe: the rollback restores the pre-write state exactly, so a
  // degraded read still serves the old canonical bytes.
  auto probe = TornFixture::create(core::CodecKind::kReedSolomonPQ, {});
  ASSERT_TRUE(probe.store);
  const std::uint64_t n = probe.store->num_logical_units();
  ASSERT_TRUE(fill_canonical(*probe.store, 0, n, kSeed).ok());
  const std::uint64_t per_unit = writes_per_unit(*probe.store);

  // Fail only the Q write of the first post-fill RMW ([data, P, Q]):
  // both rollback writes (data and P, from their old bytes) succeed.
  auto f = TornFixture::create(core::CodecKind::kReedSolomonPQ,
                               {n * per_unit + 3});
  ASSERT_TRUE(f.store);
  StripeStore& s = *f.store;
  ASSERT_TRUE(fill_canonical(s, 0, n, kSeed).ok());

  const std::uint64_t victim = 0;
  std::vector<std::uint8_t> fresh(s.unit_bytes(), 0x5A);
  const Status partial = s.write(victim, fresh);
  EXPECT_EQ(partial.code(), StatusCode::kIoError) << partial.to_string();
  EXPECT_EQ(s.torn_parity_instances(), 0u);

  // Old bytes everywhere, parity consistent: degraded decode through
  // either parity still serves the canonical pre-write content.
  expect_canonical(s, victim, "direct read after rollback");
  std::array<Physical, 64> survivors;
  const auto plan = s.array().locate(victim, survivors);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(s.fail_disk(plan->target.disk).ok());
  expect_canonical(s, victim, "degraded read after rollback");
}

// ---------------------------------------------- the re-encode's torn paths

/// The unit every case below tears, and a data peer in its stripe
/// instance (stripe 0 holds logicals 0 .. k_d-1 under both codecs).
constexpr std::uint64_t kVictim = 0;
constexpr std::uint64_t kPeer = 1;

/// Cache options that absorb every write (an instance is hot from its
/// first note), fold only on size triggers and explicit flushes, and
/// cache no read payloads, so every read below touches media.
constexpr StripeCacheOptions kAbsorbAll{.enabled = true,
                                        .read_cache_bytes = 0,
                                        .hot_threshold = 1,
                                        .flush_interval_us = 0};

/// A filled store (cache off) whose first write after the fill, to
/// kVictim, tore its stripe instance.  A fault-free probe counts the
/// fill's write ordinals.
TornFixture torn_victim(core::CodecKind codec) {
  auto probe = TornFixture::create(codec, {});
  if (!probe.store) return probe;
  const std::uint64_t n = probe.store->num_logical_units();
  EXPECT_TRUE(fill_canonical(*probe.store, 0, n, kSeed).ok());
  auto f = TornFixture::create(
      codec, double_fault_script(codec, probe.faults->stats().writes));
  if (!f.store) return f;
  EXPECT_TRUE(fill_canonical(*f.store, 0, n, kSeed).ok());
  const std::vector<std::uint8_t> fresh(f.store->unit_bytes(), 0xA5);
  EXPECT_EQ(f.store->write(kVictim, fresh).code(),
            StatusCode::kParityInconsistent);
  return f;
}

/// Whether two logicals share a stripe instance.
bool same_instance(const StripeStore& s, std::uint64_t a, std::uint64_t b) {
  const auto ra = s.array().logical_ref(a);
  const auto rb = s.array().logical_ref(b);
  return ra.stripe == rb.stripe && ra.iteration == rb.iteration;
}

/// The disk currently holding `logical`.
DiskId home_disk(const StripeStore& s, std::uint64_t logical) {
  std::array<Physical, 64> survivors;
  const auto plan = s.array().locate(logical, survivors);
  EXPECT_TRUE(plan.ok() && plan->kind == api::ReadPlan::Kind::kDirect);
  return plan.ok() ? plan->target.disk : 0;
}

void expect_read(StripeStore& s, std::uint64_t logical,
                 const std::vector<std::uint8_t>& expected,
                 api::ReadPlan::Kind kind, const char* context) {
  std::vector<std::uint8_t> unit(s.unit_bytes());
  ReadReceipt receipt;
  const Status read = s.read(logical, unit, &receipt);
  ASSERT_TRUE(read.ok()) << context << ": " << read.to_string();
  EXPECT_EQ(receipt.kind, kind) << context;
  EXPECT_EQ(unit, expected) << context;
}

/// Reads `logical` through a decode (its own disk failed), then replaces
/// and rebuilds that disk.
void expect_degraded(StripeStore& s, std::uint64_t logical,
                     const std::vector<std::uint8_t>& expected,
                     const char* context) {
  const DiskId disk = home_disk(s, logical);
  ASSERT_TRUE(s.fail_disk(disk).ok()) << context;
  expect_read(s, logical, expected, api::ReadPlan::Kind::kDegraded, context);
  ASSERT_TRUE(s.replace_disk(disk).ok()) << context;
  const auto rebuilt = s.rebuild();
  ASSERT_TRUE(rebuilt.ok()) << context << ": " << rebuilt.status().to_string();
}

enum class HealBy { kWrite, kFlush };

void run_torn_fold_heals(core::CodecKind codec, HealBy heal_by) {
  auto probe = TornFixture::create(codec, {}, kAbsorbAll);
  ASSERT_TRUE(probe.store);
  const std::uint64_t n = probe.store->num_logical_units();
  ASSERT_TRUE(fill_canonical(*probe.store, 0, n, kSeed).ok());
  ASSERT_TRUE(probe.store->flush_cache().ok());

  // The first fold after fill + flush commits [data, P(, Q)] for one
  // absorbed write -- an RMW's shape -- so the RMW script tears it.
  auto f = TornFixture::create(
      codec, double_fault_script(codec, probe.faults->stats().writes),
      kAbsorbAll);
  ASSERT_TRUE(f.store);
  StripeStore& s = *f.store;
  ASSERT_TRUE(fill_canonical(s, 0, n, kSeed).ok());
  ASSERT_TRUE(s.flush_cache().ok());
  ASSERT_TRUE(same_instance(s, kVictim, kPeer));

  const std::vector<std::uint8_t> first(s.unit_bytes(), 0xA5);
  ASSERT_TRUE(s.write(kVictim, first).ok());
  EXPECT_EQ(s.hotness_stats().dirty_instances, 1u);
  const Status torn = s.flush_cache();
  EXPECT_EQ(torn.code(), StatusCode::kParityInconsistent) << torn.to_string();
  EXPECT_EQ(s.torn_parity_instances(), 1u);
  EXPECT_EQ(s.hotness_stats().dirty_instances, 1u)
      << "a torn fold keeps its dirty entry for the re-encode";

  // The write joins the absorbed one and both land in one re-encode; a
  // flush re-encodes the absorbed write alone, and the healed instance
  // then absorbs and folds the second write like any other.
  const std::vector<std::uint8_t> second(s.unit_bytes(), 0x3C);
  if (heal_by == HealBy::kWrite) {
    const Status healed = s.write(kPeer, second);
    ASSERT_TRUE(healed.ok()) << healed.to_string();
  } else {
    const Status healed = s.flush_cache();
    ASSERT_TRUE(healed.ok()) << healed.to_string();
  }
  EXPECT_EQ(s.torn_parity_instances(), 0u);
  EXPECT_EQ(s.hotness_stats().dirty_instances, 0u);
  if (heal_by == HealBy::kFlush) {
    ASSERT_TRUE(s.write(kPeer, second).ok());
    ASSERT_TRUE(s.flush_cache().ok());
  }

  const auto inconsistent = s.verify_stripes();
  ASSERT_TRUE(inconsistent.ok()) << inconsistent.status().to_string();
  EXPECT_EQ(*inconsistent, 0u);
  expect_read(s, kVictim, first, api::ReadPlan::Kind::kDirect, "first");
  expect_read(s, kPeer, second, api::ReadPlan::Kind::kDirect, "second");
  expect_degraded(s, kVictim, first, "first, degraded");
  expect_degraded(s, kPeer, second, "second, degraded");
}

TEST(TornParity, TornFoldHealedByWriteXor) {
  run_torn_fold_heals(core::CodecKind::kXorParity, HealBy::kWrite);
}

TEST(TornParity, TornFoldHealedByWriteRs) {
  run_torn_fold_heals(core::CodecKind::kReedSolomonPQ, HealBy::kWrite);
}

TEST(TornParity, TornFoldHealedByFlushXor) {
  run_torn_fold_heals(core::CodecKind::kXorParity, HealBy::kFlush);
}

TEST(TornParity, TornFoldHealedByFlushRs) {
  run_torn_fold_heals(core::CodecKind::kReedSolomonPQ, HealBy::kFlush);
}

/// A torn RS instance with parity ordinal `lost` (0 = P, 1 = Q) on a
/// failed disk: the RMW re-encodes both parities and stores the
/// survivor beside the data; rebuild then re-creates the lost one from
/// data, so a survivor stored under the wrong ordinal shows.
void run_heal_through_surviving_parity(std::uint32_t lost) {
  auto f = torn_victim(core::CodecKind::kReedSolomonPQ);
  ASSERT_TRUE(f.store);
  StripeStore& s = *f.store;
  ASSERT_EQ(s.torn_parity_instances(), 1u);
  std::array<Physical, 64> peers;
  const auto healthy = s.array().plan_write(kVictim, peers);
  ASSERT_TRUE(healthy.ok());
  ASSERT_EQ(healthy->num_parities, 2u);
  const DiskId parity_disk = healthy->parity_targets[lost].disk;
  ASSERT_TRUE(s.fail_disk(parity_disk).ok());

  const std::vector<std::uint8_t> fresh(s.unit_bytes(), 0x6B);
  WriteReceipt receipt;
  const Status healed = s.write(kVictim, fresh, &receipt);
  ASSERT_TRUE(healed.ok()) << healed.to_string();
  EXPECT_EQ(s.torn_parity_instances(), 0u);
  EXPECT_EQ(receipt.num_writes, 2u) << "the data unit and one parity";

  ASSERT_TRUE(s.replace_disk(parity_disk).ok());
  const auto rebuilt = s.rebuild();
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().to_string();
  const auto inconsistent = s.verify_stripes();
  ASSERT_TRUE(inconsistent.ok()) << inconsistent.status().to_string();
  EXPECT_EQ(*inconsistent, 0u);
  expect_read(s, kVictim, fresh, api::ReadPlan::Kind::kDirect, "healed");
}

TEST(TornParity, RmwHealsTornInstanceWithPLostRs) {
  run_heal_through_surviving_parity(0);
}

TEST(TornParity, RmwHealsTornInstanceWithQLostRs) {
  run_heal_through_surviving_parity(1);
}

/// A torn instance that also lost a data peer cannot be re-encoded from
/// data: the RMW is refused and the instance stays torn.
void run_torn_with_lost_peer_refuses(core::CodecKind codec) {
  auto f = torn_victim(codec);
  ASSERT_TRUE(f.store);
  StripeStore& s = *f.store;
  ASSERT_EQ(s.torn_parity_instances(), 1u);
  ASSERT_TRUE(same_instance(s, kVictim, kPeer));
  ASSERT_TRUE(s.fail_disk(home_disk(s, kPeer)).ok());
  std::array<Physical, 64> peers;
  const auto plan = s.array().plan_write(kVictim, peers);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->kind, api::WritePlan::Kind::kReadModifyWrite);

  const std::vector<std::uint8_t> fresh(s.unit_bytes(), 0x6B);
  const Status refused = s.write(kVictim, fresh);
  EXPECT_EQ(refused.code(), StatusCode::kParityInconsistent)
      << refused.to_string();
  EXPECT_EQ(s.torn_parity_instances(), 1u);
}

TEST(TornParity, TornInstanceWithLostPeerRefusesRmwXor) {
  run_torn_with_lost_peer_refuses(core::CodecKind::kXorParity);
}

TEST(TornParity, TornInstanceWithLostPeerRefusesRmwRs) {
  run_torn_with_lost_peer_refuses(core::CodecKind::kReedSolomonPQ);
}

/// A torn instance whose stripe lost a data unit cannot be rebuilt: its
/// decode would trust the torn parity.  The rest of the failed disk must
/// still be rebuilt around it.
void run_torn_stripe_leaves_rest_of_rebuild(core::CodecKind codec) {
  auto f = torn_victim(codec);
  ASSERT_TRUE(f.store);
  StripeStore& s = *f.store;
  ASSERT_EQ(s.torn_parity_instances(), 1u);
  const DiskId disk = home_disk(s, kVictim);
  ASSERT_TRUE(s.fail_disk(disk).ok());
  ASSERT_TRUE(s.replace_disk(disk).ok());

  // The first pass rebuilds every other stripe and reports how many.
  // Then the torn stripe's step is all that is left, and every later
  // call says so rather than applying or re-planning it.
  const auto first = s.rebuild_some(~0ull);
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  EXPECT_GT(*first, 0u);
  const auto outcome = s.rebuild();
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kParityInconsistent)
      << outcome.status().to_string();
  const auto retry = s.rebuild_some(1);
  ASSERT_FALSE(retry.ok());
  EXPECT_EQ(retry.status().code(), StatusCode::kParityInconsistent);
  EXPECT_EQ(s.torn_parity_instances(), 1u);

  const std::uint32_t torn_stripe = s.array().logical_ref(kVictim).stripe;
  std::vector<std::uint8_t> expected(s.unit_bytes());
  std::uint64_t outside = 0;
  for (std::uint64_t logical = 0; logical < s.num_logical_units();
       ++logical) {
    if (s.array().logical_ref(logical).stripe == torn_stripe) continue;
    canonical_fill(logical, kSeed, expected);
    expect_read(s, logical, expected, api::ReadPlan::Kind::kDirect,
                "outside the torn stripe");
    ++outside;
  }
  EXPECT_EQ(outside, s.num_logical_units() -
                         kIterations * s.array().stripe_data_units(torn_stripe));
}

TEST(TornParity, TornStripeLeavesRestOfRebuildXor) {
  run_torn_stripe_leaves_rest_of_rebuild(core::CodecKind::kXorParity);
}

TEST(TornParity, TornStripeLeavesRestOfRebuildRs) {
  run_torn_stripe_leaves_rest_of_rebuild(core::CodecKind::kReedSolomonPQ);
}

}  // namespace
}  // namespace pdl::io
