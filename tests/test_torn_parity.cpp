// Regression suite for the torn-parity RMW window.  A small write's
// parity maintenance can land PARTIALLY (some stripes writes succeed,
// some fail); the store compensates by rolling the landed writes back,
// and before this suite's bugfix a FAILED compensation simply returned
// the original error -- leaving parity silently inconsistent with data,
// so a later degraded read or rebuild decode would fabricate bytes.
// The store now marks the stripe instance "torn", surfaces
// kParityInconsistent, refuses every parity-trusting operation on the
// instance, and heals (full re-encode) on the next full-knowledge write.
//
// The scripted fault injector forces the exact double-fault
// interleavings deterministically: the base execute_batch issues a
// batch's requests strictly in order, so lifetime write ordinals
// identify "the data write of the Nth store.write()" precisely.

#include <gtest/gtest.h>

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
  /// 1 + num_parity units.
  static TornFixture create(core::CodecKind codec,
                            std::vector<std::uint64_t> fail_write_ops) {
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
        {.unit_bytes = kUnitBytes, .iterations = kIterations},
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

/// Ordinal script that makes the FIRST write after `fill` double-fault.
/// Every RMW commits one batch -- data, then each parity -- and a failed
/// batch rolls back the landed units in the same order.  Under XOR the
/// batch is [data, P], so failing ordinals {base+2, base+3} means "data
/// landed, P failed, data rollback failed".  Under RS the batch is
/// [data, P, Q], so {base+3, base+4} means "data and P landed, Q failed,
/// data rollback failed".
std::vector<std::uint64_t> double_fault_script(core::CodecKind codec,
                                               std::uint64_t fill_units,
                                               std::uint64_t per_unit) {
  const std::uint64_t base = fill_units * per_unit;
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
      codec, double_fault_script(codec, n, per_unit));
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
                               double_fault_script(codec, n, per_unit));
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

}  // namespace
}  // namespace pdl::io
