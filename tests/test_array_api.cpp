// pdl::api::Array front-door tests: creation and the typed error model,
// address ops against the reference mappers, the online failure/rebuild
// state machine, persistence, and the headline differential suite proving
// that Array::locate under failures resolves exactly the survivor sets a
// brute-force oracle computes from the layout (across >= 3 constructions
// and 1-2 failed disks, in both dedicated-replacement and
// distributed-sparing modes, plus a Reed-Solomon array), with one check
// that the scenario simulator reads exactly those disks.

#include "api/array.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "layout/mapping.hpp"
#include "layout/raid.hpp"
#include "layout/ring_layout.hpp"
#include "layout/serialize.hpp"
#include "sim/fault_timeline.hpp"
#include "sim/rebuild_scheduler.hpp"
#include "sim/scenario.hpp"

namespace pdl::api {
namespace {

using core::ArraySpec;
using core::Construction;

// ----------------------------------------------------------- construction

TEST(ArrayCreate, BuildsAndExposesProvenance) {
  const auto array = Array::create({.num_disks = 17, .stripe_size = 5});
  ASSERT_TRUE(array.ok()) << array.status().to_string();
  EXPECT_EQ(array->num_disks(), 17u);
  EXPECT_GT(array->units_per_disk(), 0u);
  EXPECT_GT(array->data_units_per_iteration(), 0u);
  EXPECT_FALSE(array->description().empty());
  EXPECT_TRUE(array->healthy());
  EXPECT_EQ(array->sparing(), SparingMode::kNone);
  EXPECT_EQ(array->spared_layout(), nullptr);
}

TEST(ArrayCreate, InvalidSpecIsTypedError) {
  const auto array = Array::create({.num_disks = 4, .stripe_size = 5});
  ASSERT_FALSE(array.ok());
  EXPECT_EQ(array.status().code(), StatusCode::kInvalidArgument);
}

TEST(ArrayCreate, StripesWiderThan64AreRejected) {
  // The online state machine keeps one 64-bit lost mask per stripe.
  const auto created = Array::create({.num_disks = 70, .stripe_size = 70});
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument);

  const auto adopted = Array::adopt(layout::raid5_layout(70, 70));
  ASSERT_FALSE(adopted.ok());
  EXPECT_EQ(adopted.status().code(), StatusCode::kInvalidArgument);
}

TEST(ArrayCreate, NoFitIsUnsupported) {
  const auto array = Array::create({.num_disks = 100, .stripe_size = 5},
                                   {.unit_budget = 10});
  ASSERT_FALSE(array.ok());
  EXPECT_EQ(array.status().code(), StatusCode::kUnsupported);

  // Specs whose complete design C(v, k) overflows 64 bits: never an
  // exception out of the Result call -- a typed no-fit, or a valid
  // layout from another route.
  for (const core::ArraySpec spec :
       {core::ArraySpec{.num_disks = 1000, .stripe_size = 20},
        core::ArraySpec{.num_disks = 500, .stripe_size = 20}}) {
    std::optional<Result<Array>> created;
    EXPECT_NO_THROW(created.emplace(Array::create(spec)))
        << "v=" << spec.num_disks;
    ASSERT_TRUE(created.has_value());
    if (created->ok()) {
      EXPECT_EQ((*created)->num_disks(), spec.num_disks);
      EXPECT_GT((*created)->units_per_disk(), 0u);
    } else {
      EXPECT_EQ(created->status().code(), StatusCode::kUnsupported)
          << created->status().to_string();
    }
  }
}

TEST(ArrayCreate, PinnedConstructionIsHonored) {
  const auto array =
      Array::create({.num_disks = 17, .stripe_size = 5}, {},
                    {.construction = Construction::kRingLayout});
  ASSERT_TRUE(array.ok()) << array.status().to_string();
  EXPECT_EQ(array->construction(), Construction::kRingLayout);

  // Ring layout does not apply at (33, 5).
  const auto inapplicable =
      Array::create({.num_disks = 33, .stripe_size = 5}, {},
                    {.construction = Construction::kRingLayout});
  ASSERT_FALSE(inapplicable.ok());
  EXPECT_EQ(inapplicable.status().code(), StatusCode::kUnsupported);
}

TEST(ArrayCreate, DistributedSparingNeedsRoomForData) {
  const auto too_small =
      Array::create({.num_disks = 9, .stripe_size = 2}, {},
                    {.sparing = SparingMode::kDistributed});
  ASSERT_FALSE(too_small.ok());
  EXPECT_EQ(too_small.status().code(), StatusCode::kInvalidArgument);

  const auto spared =
      Array::create({.num_disks = 17, .stripe_size = 5}, {},
                    {.sparing = SparingMode::kDistributed});
  ASSERT_TRUE(spared.ok());
  EXPECT_EQ(spared->sparing(), SparingMode::kDistributed);
  ASSERT_NE(spared->spared_layout(), nullptr);
  EXPECT_EQ(spared->spare_positions().size(),
            spared->layout().num_stripes());
}

TEST(ArrayCreate, RemovalStripesTooShortForParityAndSpareAreUnsupported) {
  // Disk removal at (9, 4) leaves 2-unit stripes: room for P and Q, which
  // ArrayDecodeSets.ZeroDataStripesReadNothing keeps legal, but not for a
  // spare as well.
  const auto array =
      Array::create({9, 4}, {},
                    {.sparing = SparingMode::kDistributed,
                     .construction = Construction::kRemoval,
                     .codec = core::CodecKind::kReedSolomonPQ});
  ASSERT_FALSE(array.ok());
  EXPECT_EQ(array.status().code(), StatusCode::kUnsupported)
      << array.status().to_string();
}

TEST(ArrayCreate, PinnedRemovalUnderReedSolomonWithSparingIsOkOrTyped) {
  // Every pinned removal layout under RS with distributed sparing either
  // builds an array that survives two failures, or says why it cannot.
  for (std::uint32_t v = 4; v <= 40; ++v)
    for (std::uint32_t k = 3; k <= 8 && k <= v; ++k) {
      SCOPED_TRACE("v=" + std::to_string(v) + " k=" + std::to_string(k));
      auto array =
          Array::create({v, k}, {},
                        {.sparing = SparingMode::kDistributed,
                         .construction = Construction::kRemoval,
                         .codec = core::CodecKind::kReedSolomonPQ});
      if (!array.ok()) {
        EXPECT_TRUE(array.status().code() == StatusCode::kUnsupported ||
                    array.status().code() == StatusCode::kInvalidArgument)
            << array.status().to_string();
        continue;
      }
      for (const layout::Stripe& stripe : array->layout().stripes())
        ASSERT_GE(stripe.units.size(), 3u);  // P, Q and the spare
      ASSERT_TRUE(array->fail_disk(0).ok());
      ASSERT_TRUE(array->rebuild().ok());
      ASSERT_TRUE(array->fail_disk(1).ok());
      EXPECT_FALSE(array->data_loss());
      ASSERT_TRUE(array->replace_disk(0).ok());
      ASSERT_TRUE(array->replace_disk(1).ok());
      ASSERT_TRUE(array->rebuild().ok());
      EXPECT_TRUE(array->healthy());
    }
}

// ------------------------------------------------------------- address ops

TEST(ArrayAddress, MapAgreesWithAddressMapper) {
  const auto array = Array::create({.num_disks = 16, .stripe_size = 4});
  ASSERT_TRUE(array.ok());
  const layout::AddressMapper reference(array->layout());
  ASSERT_EQ(array->data_units_per_iteration(),
            reference.data_units_per_iteration());
  for (std::uint64_t logical = 0;
       logical < 2 * reference.data_units_per_iteration(); ++logical) {
    EXPECT_EQ(array->map(logical), reference.map(logical));
    EXPECT_EQ(array->parity_of(logical), reference.parity_of(logical));
  }
}

TEST(ArrayAddress, SparedNumberingSkipsSpareUnits) {
  const auto array =
      Array::create({.num_disks = 17, .stripe_size = 5}, {},
                    {.sparing = SparingMode::kDistributed});
  ASSERT_TRUE(array.ok());
  const layout::AddressMapper reference(array->layout(),
                                        array->spare_positions());
  ASSERT_EQ(array->data_units_per_iteration(),
            reference.data_units_per_iteration());
  // Each stripe contributes k-2 data units (one parity, one spare).
  EXPECT_EQ(array->data_units_per_iteration(),
            array->layout().num_stripes() * (5u - 2u));
  for (std::uint64_t logical = 0;
       logical < reference.data_units_per_iteration(); ++logical) {
    EXPECT_EQ(array->map(logical), reference.map(logical));
  }
  // No data unit maps onto a spare slot.
  for (std::uint32_t s = 0; s < array->layout().num_stripes(); ++s) {
    const auto& st = array->layout().stripes()[s];
    const auto& spare = st.units[array->spare_positions()[s]];
    EXPECT_EQ(array->mapper().logical_at({spare.disk, spare.offset}),
              layout::CompiledMapper::kSpare);
  }
}

TEST(ArrayAddress, MapBatchMatchesScalarAndChecksSpan) {
  const auto array = Array::create({.num_disks = 13, .stripe_size = 4});
  ASSERT_TRUE(array.ok());
  std::vector<std::uint64_t> logicals;
  for (std::uint64_t l = 0; l < 100; ++l) logicals.push_back(l * 37 + 5);
  std::vector<Physical> out(logicals.size());
  ASSERT_TRUE(array->map_batch(logicals, out).ok());
  for (std::size_t i = 0; i < logicals.size(); ++i)
    EXPECT_EQ(out[i], array->map(logicals[i]));

  std::vector<Physical> tiny(3);
  const Status too_small = array->map_batch(logicals, tiny);
  ASSERT_FALSE(too_small.ok());
  EXPECT_EQ(too_small.code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------ state transitions

TEST(ArrayState, FailReplaceRebuildRoundTrip) {
  auto array_result = Array::create({.num_disks = 16, .stripe_size = 4});
  ASSERT_TRUE(array_result.ok());
  Array& array = *array_result;

  EXPECT_EQ(array.fail_disk(99).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(array.fail_disk(3).ok());
  EXPECT_EQ(array.fail_disk(3).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(array.disk_state(3).value(), DiskState::kFailed);
  EXPECT_EQ(array.num_failed(), 1u);
  EXPECT_EQ(array.lost_units(), array.units_per_disk());
  EXPECT_FALSE(array.data_loss());

  // Without a replacement every rebuild is blocked in dedicated mode.
  const auto blocked_plan = array.plan_rebuild();
  ASSERT_TRUE(blocked_plan.ok());
  EXPECT_TRUE(blocked_plan->steps.empty());
  EXPECT_EQ(blocked_plan->blocked, array.lost_units());

  ASSERT_TRUE(array.replace_disk(3).ok());
  EXPECT_EQ(array.disk_state(3).value(), DiskState::kRebuilding);
  const auto plan = array.plan_rebuild();
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->steps.size(), array.units_per_disk());
  EXPECT_EQ(plan->blocked, 0u);
  // Every step writes the failed disk's replacement; reads spread over the
  // survivors.
  for (const RebuildStep& step : plan->steps) {
    EXPECT_FALSE(step.to_spare);
    EXPECT_EQ(step.target.disk, 3u);
  }

  const auto outcome = array.rebuild();
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->applied, array.units_per_disk());
  EXPECT_EQ(outcome->blocked, 0u);
  EXPECT_TRUE(array.healthy());
  EXPECT_EQ(array.disk_state(3).value(), DiskState::kHealthy);
}

TEST(ArrayState, StaleStepsAreRejected) {
  auto array_result = Array::create({.num_disks = 9, .stripe_size = 3});
  ASSERT_TRUE(array_result.ok());
  Array& array = *array_result;
  ASSERT_TRUE(array.fail_disk(0).ok());
  ASSERT_TRUE(array.replace_disk(0).ok());
  const auto plan = array.plan_rebuild();
  ASSERT_TRUE(plan.ok());
  ASSERT_FALSE(plan->steps.empty());
  const RebuildStep step = plan->steps.front();
  ASSERT_TRUE(array.apply_rebuild_step(step).ok());
  // Applying the same step twice is a stale-step error.
  EXPECT_EQ(array.apply_rebuild_step(step).code(),
            StatusCode::kFailedPrecondition);
}

TEST(ArrayState, DoubleFailureIsDataLoss) {
  // RAID5 at k = v: every stripe spans all disks, so any two failures
  // lose every stripe.
  auto array_result = Array::create({.num_disks = 5, .stripe_size = 5});
  ASSERT_TRUE(array_result.ok());
  Array& array = *array_result;
  ASSERT_TRUE(array.fail_disk(1).ok());
  ASSERT_TRUE(array.fail_disk(2).ok());
  EXPECT_TRUE(array.data_loss());
  EXPECT_EQ(array.stripes_lost(), array.layout().num_stripes());
  EXPECT_EQ(array.lost_units(), 0u);  // nothing recoverable remains

  // A unit homed on a failed disk is gone; a unit on a surviving disk of
  // the same (unrecoverable) stripe still serves directly, exactly like
  // the simulator.
  std::uint64_t gone = 0, direct = 0;
  std::vector<Physical> survivors(array.max_stripe_size());
  for (std::uint64_t l = 0; l < array.data_units_per_iteration(); ++l) {
    const bool on_failed =
        array.map(l).disk == 1 || array.map(l).disk == 2;
    const auto read = array.locate(l, survivors);
    ASSERT_TRUE(read.ok());
    if (on_failed) {
      EXPECT_EQ(read->kind, ReadPlan::Kind::kUnrecoverable);
      const auto write = array.plan_write(l, survivors);
      ASSERT_TRUE(write.ok());
      EXPECT_EQ(write->kind, WritePlan::Kind::kUnrecoverable);
      ++gone;
    } else {
      EXPECT_EQ(read->kind, ReadPlan::Kind::kDirect);
      ++direct;
    }
  }
  EXPECT_GT(gone, 0u);
  EXPECT_GT(direct, 0u);

  const auto plan = array.plan_rebuild();
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->steps.empty());
  EXPECT_EQ(plan->unrecoverable, array.layout().num_stripes());
}

TEST(ArrayState, DegradedWritePlansResolveParityPeers) {
  auto array_result = Array::create({.num_disks = 13, .stripe_size = 4});
  ASSERT_TRUE(array_result.ok());
  Array& array = *array_result;
  const std::uint32_t k = 4;

  // Healthy: read-modify-write touches the data unit and its parity.
  std::vector<Physical> peers(array.max_stripe_size());
  auto write = array.plan_write(0, peers);
  ASSERT_TRUE(write.ok());
  EXPECT_EQ(write->kind, WritePlan::Kind::kReadModifyWrite);
  EXPECT_EQ(write->data, array.map(0));
  EXPECT_EQ(write->parity_targets[0], array.parity_of(0));

  // Fail the data unit's disk: the write folds into parity through the
  // k-2 surviving data peers.
  ASSERT_TRUE(array.fail_disk(array.map(0).disk).ok());
  write = array.plan_write(0, peers);
  ASSERT_TRUE(write.ok());
  ASSERT_EQ(write->kind, WritePlan::Kind::kReconstructWrite);
  EXPECT_EQ(write->num_peer_reads, k - 2);
  EXPECT_EQ(write->parity_targets[0], array.parity_of(0));

  // A logical whose parity (but not data) died gets an unprotected write.
  const std::uint32_t failed = array.map(0).disk;
  bool checked_unprotected = false;
  for (std::uint64_t l = 0; l < array.data_units_per_iteration(); ++l) {
    if (array.parity_of(l).disk == failed && array.map(l).disk != failed) {
      write = array.plan_write(l, peers);
      ASSERT_TRUE(write.ok());
      EXPECT_EQ(write->kind, WritePlan::Kind::kUnprotectedWrite);
      EXPECT_EQ(write->data, array.map(l));
      checked_unprotected = true;
      break;
    }
  }
  EXPECT_TRUE(checked_unprotected);
}

TEST(ArrayState, WritePlanWithoutPeerSpansCountsPeers) {
  // The fixture above: 13 disks, k = 4, logical 0's data disk failed.
  auto array_result = Array::create({.num_disks = 13, .stripe_size = 4});
  ASSERT_TRUE(array_result.ok());
  Array& array = *array_result;
  ASSERT_TRUE(array.fail_disk(array.map(0).disk).ok());

  // Empty spans count a reconstruct-write's peers and list none; the
  // rest of the plan is the listing call's.
  std::vector<Physical> peers(array.max_stripe_size());
  std::vector<std::uint32_t> index(array.max_stripe_size());
  std::uint64_t reconstructs = 0;
  for (std::uint64_t l = 0; l < array.data_units_per_iteration(); ++l) {
    const auto listed = array.plan_write(l, peers, index);
    const auto counted = array.plan_write(l, {});
    ASSERT_TRUE(listed.ok());
    ASSERT_TRUE(counted.ok()) << counted.status().to_string();
    EXPECT_EQ(counted->kind, listed->kind) << "logical " << l;
    EXPECT_EQ(counted->num_peer_reads, listed->num_peer_reads);
    ASSERT_EQ(counted->num_parities, listed->num_parities);
    for (std::uint32_t j = 0; j < listed->num_parities; ++j) {
      EXPECT_EQ(counted->parity_targets[j], listed->parity_targets[j]);
      EXPECT_EQ(counted->parity_index[j], listed->parity_index[j]);
    }
    ASSERT_EQ(counted->num_erased, listed->num_erased);
    for (std::uint32_t e = 0; e < listed->num_erased; ++e)
      EXPECT_EQ(counted->erased_index[e], listed->erased_index[e]);
    if (listed->kind == WritePlan::Kind::kReconstructWrite) ++reconstructs;
  }
  EXPECT_GT(reconstructs, 0u);
}

TEST(ArrayState, DistributedSparingRebuildsWithoutReplacement) {
  auto array_result =
      Array::create({.num_disks = 17, .stripe_size = 5}, {},
                    {.sparing = SparingMode::kDistributed});
  ASSERT_TRUE(array_result.ok());
  Array& array = *array_result;

  ASSERT_TRUE(array.fail_disk(0).ok());
  const std::uint64_t lost = array.lost_units();
  ASSERT_GT(lost, 0u);

  const auto plan = array.plan_rebuild();
  ASSERT_TRUE(plan.ok());
  // Stripes whose own spare sat on disk 0 (or whose spare disk died) fall
  // back to in-place and are blocked until a replacement arrives; the rest
  // rebuild straight into spares on surviving disks.
  EXPECT_EQ(plan->steps.size() + plan->blocked, lost);
  for (const RebuildStep& step : plan->steps) {
    EXPECT_TRUE(step.to_spare);
    EXPECT_NE(step.target.disk, 0u);
  }

  const auto outcome = array.rebuild();
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->applied + outcome->blocked, lost);

  // Rebuilt units now serve from their spare homes: locate resolves them
  // as direct reads on surviving disks.  (applied also covers rebuilt
  // parity units, so redirected data units are a subset of it.)
  std::vector<Physical> survivors(array.max_stripe_size());
  std::uint64_t redirected = 0, still_degraded = 0, on_disk0 = 0;
  for (std::uint64_t l = 0; l < array.data_units_per_iteration(); ++l) {
    if (array.map(l).disk != 0) continue;
    ++on_disk0;
    const auto read = array.locate(l, survivors);
    ASSERT_TRUE(read.ok());
    if (read->kind == ReadPlan::Kind::kDirect) {
      EXPECT_NE(read->target.disk, 0u);
      EXPECT_NE(read->target, array.map(l));  // moved off its home slot
      ++redirected;
    } else {
      EXPECT_EQ(read->kind, ReadPlan::Kind::kDegraded);  // blocked stripe
      ++still_degraded;
    }
  }
  EXPECT_GT(redirected, 0u);
  EXPECT_EQ(redirected + still_degraded, on_disk0);
  EXPECT_LE(redirected, outcome->applied);
  // Unredirected data units belong to blocked stripes (their spare was on
  // the failed disk); blocked also covers stripes whose lost unit was
  // parity.
  EXPECT_LE(still_degraded, outcome->blocked);
}

// -------------------------------------------------------------- persistence

TEST(ArrayPersistence, RoundTripsPlainAndSpared) {
  const auto original = Array::create({.num_disks = 13, .stripe_size = 4});
  ASSERT_TRUE(original.ok());
  const auto restored = Array::deserialize(original->serialize());
  ASSERT_TRUE(restored.ok()) << restored.status().to_string();
  EXPECT_EQ(restored->construction(), Construction::kExternal);
  EXPECT_EQ(restored->num_disks(), original->num_disks());
  EXPECT_EQ(restored->data_units_per_iteration(),
            original->data_units_per_iteration());
  for (std::uint64_t l = 0; l < original->data_units_per_iteration(); ++l)
    EXPECT_EQ(restored->map(l), original->map(l));

  const auto spared =
      Array::create({.num_disks = 17, .stripe_size = 5}, {},
                    {.sparing = SparingMode::kDistributed});
  ASSERT_TRUE(spared.ok());
  const std::string path = ::testing::TempDir() + "/pdl_array_test.txt";
  ASSERT_TRUE(spared->save(path).ok());
  const auto reloaded = Array::load(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().to_string();
  EXPECT_EQ(reloaded->sparing(), SparingMode::kDistributed);
  EXPECT_EQ(reloaded->spare_positions(), spared->spare_positions());
  EXPECT_EQ(reloaded->data_units_per_iteration(),
            spared->data_units_per_iteration());
  std::remove(path.c_str());
}

TEST(ArrayPersistence, CodecSurvivesSerializeRoundTrip) {
  const auto rs =
      Array::create({.num_disks = 9, .stripe_size = 4}, {},
                    {.codec = core::CodecKind::kReedSolomonPQ});
  ASSERT_TRUE(rs.ok()) << rs.status().to_string();
  const std::string text = rs->serialize();
  EXPECT_EQ(text.rfind("pdl-array-codec rs", 0), 0u)
      << "serialized form must carry the codec header: " << text.substr(0, 40);
  const auto restored = Array::deserialize(text);
  ASSERT_TRUE(restored.ok()) << restored.status().to_string();
  EXPECT_EQ(restored->codec_kind(), core::CodecKind::kReedSolomonPQ);
  EXPECT_EQ(restored->num_parity_units(), 2u);
  EXPECT_EQ(restored->data_units_per_iteration(),
            rs->data_units_per_iteration());
  for (std::uint64_t l = 0; l < rs->data_units_per_iteration(); ++l)
    EXPECT_EQ(restored->map(l), rs->map(l));

  // XOR arrays keep the legacy (headerless) form, so files written by
  // earlier versions and by this one stay mutually readable.
  const auto xor_array = Array::create({.num_disks = 9, .stripe_size = 4});
  ASSERT_TRUE(xor_array.ok());
  EXPECT_EQ(xor_array->serialize().rfind("pdl-array-codec", 0),
            std::string::npos);
  EXPECT_EQ(Array::deserialize("pdl-array-codec lrc\npdl-layout 1 1\n")
                .status()
                .code(),
            StatusCode::kParseError);
}

TEST(ArrayState, ReedSolomonSurvivesTwoFailuresAndPlansBothParities) {
  auto array = Array::create({.num_disks = 17, .stripe_size = 5}, {},
                             {.codec = core::CodecKind::kReedSolomonPQ});
  ASSERT_TRUE(array.ok()) << array.status().to_string();
  EXPECT_EQ(array->num_parity_units(), 2u);

  // Healthy plans carry both parity targets in ordinal order (P then Q).
  std::array<Physical, 64> peers;
  const auto healthy_plan = array->plan_write(0, peers);
  ASSERT_TRUE(healthy_plan.ok());
  EXPECT_EQ(healthy_plan->kind, WritePlan::Kind::kReadModifyWrite);
  EXPECT_EQ(healthy_plan->num_parities, 2u);
  EXPECT_EQ(healthy_plan->parity_index[0], 0u);
  EXPECT_EQ(healthy_plan->parity_index[1], 1u);

  // Two failed disks: where XOR declares loss, RS still resolves every
  // logical (locate never reports kUnrecoverable, plan_write never
  // kUnrecoverable), and the erased set it reports stays within two.
  ASSERT_TRUE(array->fail_disk(0).ok());
  ASSERT_TRUE(array->fail_disk(8).ok());
  EXPECT_FALSE(array->data_loss());
  std::array<Physical, 64> survivors;
  std::array<std::uint32_t, 64> survivor_idx;
  for (std::uint64_t l = 0; l < array->data_units_per_iteration(); ++l) {
    const auto plan =
        array->locate(l, survivors, {survivor_idx.data(), 64});
    ASSERT_TRUE(plan.ok());
    ASSERT_NE(plan->kind, ReadPlan::Kind::kUnrecoverable) << "logical " << l;
    if (plan->kind == ReadPlan::Kind::kDegraded) {
      EXPECT_GE(plan->num_erased, 1u);
      EXPECT_LE(plan->num_erased, 2u);
      EXPECT_EQ(plan->num_survivors + plan->num_erased,
                plan->num_data + 2u);
    }
    const auto wplan = array->plan_write(l, peers);
    ASSERT_TRUE(wplan.ok());
    EXPECT_NE(wplan->kind, WritePlan::Kind::kUnrecoverable)
        << "logical " << l;
  }

  // A third failure is finally beyond the code.
  ASSERT_TRUE(array->fail_disk(4).ok());
  EXPECT_TRUE(array->data_loss());
}

TEST(ArrayPersistence, MalformedInputsAreTypedErrors) {
  EXPECT_EQ(Array::deserialize("garbage\n").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(Array::load("/nonexistent/pdl_array").status().code(),
            StatusCode::kIoError);
  // A spare map colliding with parity is rejected by adopt_spared too.
  layout::Layout l(3, 1);
  l.append_stripe({0, 1, 2}, 0);
  EXPECT_EQ(
      Array::adopt_spared(layout::SparedLayout{l, {0}}).status().code(),
      StatusCode::kInvalidArgument);
}

// ---------------------------------------------------- differential suite
//
// Array::locate under failures against an oracle computed by brute force
// from the layout alone.  A logical's unit is found through the layout's
// occupancy at its physical home; the stripe's content units are all its
// units but the spare slot; a survivor is a content unit on a disk that
// has not failed; a degraded read reads every surviving data unit, then
// surviving parities in ordinal order (P, then the extra parities
// walking cyclically from the parity position past the spare) until it
// holds num_data units; and a read of a lost unit is unrecoverable once
// more than num_parity_units() content units of its stripe are lost.  The sweep
// runs every logical of every construction the planner ranks at (17, 5),
// in both sparing modes, under one and two failures, plus RAID5 at (8, 8)
// and one Reed-Solomon array.  One wiring check then runs the scenario
// simulator, which serves requests through locate: a one-request run
// touches exactly the oracle's disks.

struct DiffCase {
  ArraySpec spec;
  ArrayOptions options;
  std::vector<layout::DiskId> failed;
};

struct OracleRead {
  ReadPlan::Kind kind = ReadPlan::Kind::kDirect;
  std::vector<Physical> units;  ///< the target, or the survivors (sorted)
};

bool physical_less(const Physical& a, const Physical& b) {
  return a.disk != b.disk ? a.disk < b.disk : a.offset < b.offset;
}

OracleRead oracle_read(const Array& array, std::uint64_t logical,
                       const std::vector<layout::DiskId>& failed) {
  const auto is_failed = [&failed](layout::DiskId disk) {
    return std::find(failed.begin(), failed.end(), disk) != failed.end();
  };
  const Physical home = array.map(logical);
  const layout::Occupant& occupant =
      array.layout().at(home.disk, static_cast<std::uint32_t>(home.offset));
  const layout::Stripe& stripe = array.layout().stripes()[occupant.stripe];
  const auto& spares = array.spare_positions();

  const auto width = static_cast<std::uint32_t>(stripe.units.size());
  const auto is_spare = [&](std::uint32_t p) {
    return !spares.empty() && p == spares[occupant.stripe];
  };
  std::vector<std::uint32_t> parities = {stripe.parity_pos};
  for (std::uint32_t step = 1;
       parities.size() < array.num_parity_units() && step < width; ++step)
    if (!is_spare((stripe.parity_pos + step) % width))
      parities.push_back((stripe.parity_pos + step) % width);
  const auto is_parity = [&](std::uint32_t p) {
    return std::find(parities.begin(), parities.end(), p) != parities.end();
  };

  OracleRead read;
  std::uint32_t lost = 0;
  std::uint32_t content = 0;
  for (std::uint32_t p = 0; p < width; ++p) {
    if (is_spare(p)) continue;
    ++content;
    const layout::StripeUnit& unit = stripe.units[p];
    if (is_failed(unit.disk)) {
      ++lost;
    } else if (p != occupant.pos && !is_parity(p)) {
      read.units.push_back({unit.disk, unit.offset});
    }
  }
  const std::uint32_t num_data = content - array.num_parity_units();
  for (const std::uint32_t p : parities) {
    if (read.units.size() >= num_data) break;
    const layout::StripeUnit& unit = stripe.units[p];
    if (!is_failed(unit.disk)) read.units.push_back({unit.disk, unit.offset});
  }
  if (!is_failed(home.disk)) {
    read.units = {home};
  } else if (lost > array.num_parity_units()) {
    read.kind = ReadPlan::Kind::kUnrecoverable;
    read.units.clear();
  } else {
    read.kind = ReadPlan::Kind::kDegraded;
    std::sort(read.units.begin(), read.units.end(), physical_less);
  }
  return read;
}

std::string describe(const DiffCase& test_case) {
  std::string text =
      (test_case.options.construction
           ? core::construction_name(*test_case.options.construction)
           : std::string("planner's choice")) +
      " v=" + std::to_string(test_case.spec.num_disks) +
      " k=" + std::to_string(test_case.spec.stripe_size) +
      " failures=" + std::to_string(test_case.failed.size());
  if (test_case.options.sparing == SparingMode::kDistributed)
    text += " (distributed sparing)";
  if (test_case.options.codec == core::CodecKind::kReedSolomonPQ)
    text += " (rs)";
  return text;
}

/// Adds a bit per ReadPlan::Kind the oracle produced to `kinds`.
void run_differential_case(const DiffCase& test_case, unsigned& kinds) {
  SCOPED_TRACE(describe(test_case));
  auto array = Array::create(test_case.spec, {}, test_case.options);
  ASSERT_TRUE(array.ok()) << array.status().to_string();
  for (const layout::DiskId disk : test_case.failed)
    ASSERT_TRUE(array->fail_disk(disk).ok());

  std::vector<Physical> survivors(array->max_stripe_size());
  for (std::uint64_t l = 0; l < array->data_units_per_iteration(); ++l) {
    SCOPED_TRACE("logical " + std::to_string(l));
    const OracleRead want = oracle_read(*array, l, test_case.failed);
    kinds |= 1u << static_cast<unsigned>(want.kind);
    const auto read = array->locate(l, survivors);
    ASSERT_TRUE(read.ok()) << read.status().to_string();
    ASSERT_EQ(read->kind, want.kind);
    std::vector<Physical> got;
    if (read->kind == ReadPlan::Kind::kDirect) got = {read->target};
    if (read->kind == ReadPlan::Kind::kDegraded) {
      got.assign(survivors.begin(), survivors.begin() + read->num_survivors);
      std::sort(got.begin(), got.end(), physical_less);
    }
    EXPECT_EQ(got, want.units);
  }
}

TEST(ArrayDifferential, LocateMatchesOracleSurvivorSets) {
  // Every construction the planner ranks at (17, 5) -- ring layout,
  // removal, stairway, and the BIBD routes when the catalog provides one
  // -- plus RAID5 at (8, 8), under one and two failures, both sparing
  // modes; and Reed-Solomon P+Q at (17, 5) losing a third disk.
  std::vector<DiffCase> cases;
  const ArraySpec spec{.num_disks = 17, .stripe_size = 5};
  std::size_t constructions = 0;
  for (const auto& plan : engine::Engine::global().rank_plans(spec)) {
    if (plan.units_per_disk > 500) continue;
    ++constructions;
    for (const SparingMode sparing :
         {SparingMode::kNone, SparingMode::kDistributed}) {
      const ArrayOptions options{.sparing = sparing,
                                 .construction = plan.construction};
      cases.push_back({spec, options, {0}});
      cases.push_back({spec, options, {0, 8}});
    }
  }
  EXPECT_GE(constructions, 3u) << "the sweep must cover >= 3 constructions";
  cases.push_back({{.num_disks = 8, .stripe_size = 8},
                   {.construction = Construction::kRaid5},
                   {2}});
  cases.push_back(
      {spec, {.codec = core::CodecKind::kReedSolomonPQ}, {0, 8, 2}});

  unsigned kinds = 0;
  for (const DiffCase& test_case : cases)
    run_differential_case(test_case, kinds);
  EXPECT_EQ(kinds, 0b111u) << "direct, degraded and unrecoverable reads";
}

TEST(ArrayDifferential, ScenarioReadTouchesTheOracleDisks) {
  // The wiring check: a read served by the scenario simulator, after two
  // failures whose rebuilds never start, accesses one disk per unit the
  // oracle names (none for unrecoverable data, which is counted unserved).
  auto array = Array::create({.num_disks = 17, .stripe_size = 5});
  ASSERT_TRUE(array.ok());
  const std::vector<layout::DiskId> failed = {0, 8};
  const sim::ScenarioSimulator simulator(
      *array, {.disk = {}, .rebuild_depth = 1, .rebuild_delay_ms = 1e12});
  const auto timeline = sim::FaultTimeline::scripted({{0.0, 0}, {1.0, 8}});
  const auto scheduler = sim::make_fifo_scheduler();

  unsigned kinds = 0;
  for (std::uint64_t l = 0; l < array->data_units_per_iteration(); l += 7) {
    SCOPED_TRACE("logical " + std::to_string(l));
    const OracleRead want = oracle_read(*array, l, failed);
    kinds |= 1u << static_cast<unsigned>(want.kind);
    const sim::Request request{.arrival_ms = 100.0, .logical = l,
                               .is_write = false};
    const auto result =
        simulator.run(timeline, std::span(&request, 1), *scheduler);
    std::vector<std::uint64_t> accessed(array->num_disks(), 0);
    std::vector<std::uint64_t> expected(array->num_disks(), 0);
    for (std::uint32_t d = 0; d < array->num_disks(); ++d)
      accessed[d] = result.disk_accesses[d] -
                    result.rebuild_reads_per_disk[d] -
                    result.rebuild_writes_per_disk[d];
    for (const Physical& unit : want.units) ++expected[unit.disk];
    EXPECT_EQ(accessed, expected);
    EXPECT_EQ(result.unserved_reads,
              want.kind == ReadPlan::Kind::kUnrecoverable ? 1u : 0u);
  }
  EXPECT_EQ(kinds, 0b111u) << "direct, degraded and unrecoverable reads";
}

// After rebuilding into distributed spares, reads follow the redirects --
// and the simulator agrees: the same scripted failure served through a
// post-rebuild scenario produces accesses only on surviving disks.
TEST(ArrayDifferential, RedirectedUnitsStayConsistentWithGeometry) {
  auto array_result =
      Array::create({.num_disks = 17, .stripe_size = 5}, {},
                    {.sparing = SparingMode::kDistributed});
  ASSERT_TRUE(array_result.ok());
  Array& array = *array_result;
  ASSERT_TRUE(array.fail_disk(0).ok());
  ASSERT_TRUE(array.rebuild().ok());

  std::vector<Physical> survivors(array.max_stripe_size());
  for (std::uint64_t l = 0; l < array.data_units_per_iteration(); ++l) {
    const auto read = array.locate(l, survivors);
    ASSERT_TRUE(read.ok());
    if (read->kind != ReadPlan::Kind::kDirect) continue;
    if (array.map(l).disk != 0) continue;
    // The redirect must land on the stripe's own spare unit.
    const auto& spared = *array.spared_layout();
    const std::uint64_t inverse =
        array.mapper().logical_at(array.map(l));
    ASSERT_EQ(inverse, l);
    bool found = false;
    for (std::uint32_t s = 0; s < spared.layout.num_stripes() && !found;
         ++s) {
      const auto& spare_unit =
          spared.layout.stripes()[s].units[spared.spare_pos[s]];
      found = Physical{spare_unit.disk, spare_unit.offset} == read->target;
    }
    EXPECT_TRUE(found) << "logical " << l;
  }
}


// ----------------------------------------------------- minimal decode sets
//
// plan_rebuild and locate list only the survivors a decode reads: every
// surviving data unit, then surviving parities in ordinal order (P
// before Q) until num_data units are listed.  The survivors left unread
// join the erased set.  Checked against Array::stripe_units, which lists
// a stripe's content units in codec order with their lost flags.

/// One decode's reads against the rule.  `all_reads` accumulates, per
/// disk, the reads the decode would make with every survivor read.
void expect_minimal_decode(const Array& array, std::uint32_t stripe,
                           std::uint32_t target_index,
                           std::span<const Physical> reads,
                           std::span<const std::uint32_t> read_index,
                           std::uint32_t num_erased,
                           std::vector<std::uint32_t>& all_reads) {
  std::array<Array::StripeUnitStatus, 64> units;
  const auto width = array.stripe_units(stripe, units);
  ASSERT_TRUE(width.ok());
  const std::uint32_t num_data = array.stripe_data_units(stripe);
  std::vector<std::uint32_t> want;  // surviving data, then parities
  std::uint32_t survivors = 0;
  for (std::uint32_t u = 0; u < *width; ++u) {
    if (u == target_index || units[u].lost) continue;
    ++survivors;
    ++all_reads[units[u].unit.disk];
    if (u < num_data || want.size() < num_data) want.push_back(u);
  }
  EXPECT_EQ(reads.size(), std::min(num_data, survivors));
  EXPECT_EQ(reads.size() + num_erased, *width);
  ASSERT_EQ(read_index.size(), reads.size());
  std::vector<std::uint32_t> got(read_index.begin(), read_index.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, want);
  for (std::size_t i = 0; i < reads.size(); ++i)
    EXPECT_EQ(reads[i], units[read_index[i]].unit);
}

/// Every survivor of a decode of `pos`, in position order: the read set
/// before decodes listed only the units they use (no spare redirects yet,
/// so a unit is lost exactly when its disk failed).
std::vector<Physical> every_survivor(const Array& array,
                                     std::uint32_t stripe,
                                     std::uint32_t pos) {
  const layout::Stripe& st = array.layout().stripes()[stripe];
  const auto& spares = array.spare_positions();
  std::vector<Physical> units;
  for (std::uint32_t p = 0; p < st.units.size(); ++p) {
    if (p == pos || (!spares.empty() && p == spares[stripe])) continue;
    if (array.disk_states()[st.units[p].disk] == DiskState::kFailed) continue;
    units.push_back({st.units[p].disk, st.units[p].offset});
  }
  return units;
}

/// Checks every rebuild step and every degraded read of `array` under
/// `failed`; returns the plan's total reads.
std::uint64_t check_decode_sets(const Array& base,
                                const std::vector<layout::DiskId>& failed) {
  Array array = base;
  for (const layout::DiskId disk : failed) {
    EXPECT_TRUE(array.fail_disk(disk).ok());
    EXPECT_TRUE(array.replace_disk(disk).ok());
  }
  const bool xor_parity = array.num_parity_units() == 1;
  std::vector<std::uint32_t> all_reads(array.num_disks(), 0);
  const auto plan = array.plan_rebuild();
  EXPECT_TRUE(plan.ok());
  if (!plan.ok()) return 0;
  std::uint64_t total = 0;
  std::vector<std::uint32_t> counted(array.num_disks(), 0);
  for (const RebuildStep& step : plan->steps) {
    SCOPED_TRACE("stripe " + std::to_string(step.stripe));
    expect_minimal_decode(array, step.stripe, step.target_index, step.reads,
                          step.read_indices, step.num_erased, all_reads);
    EXPECT_EQ(step.erased_index[0], step.target_index);
    if (xor_parity) {
      EXPECT_EQ(step.reads, every_survivor(array, step.stripe, step.lost_pos));
    }
    for (const Physical& read : step.reads) ++counted[read.disk];
    total += step.reads.size();
  }
  EXPECT_EQ(plan->reads_per_disk, counted);
  for (std::uint32_t d = 0; d < array.num_disks(); ++d)
    EXPECT_LE(plan->reads_per_disk[d], all_reads[d]) << "disk " << d;

  std::vector<Physical> survivors(array.max_stripe_size());
  std::vector<std::uint32_t> index(array.max_stripe_size());
  std::vector<std::uint32_t> unused(array.num_disks(), 0);
  for (std::uint64_t l = 0; l < array.data_units_per_iteration(); ++l) {
    const auto read = array.locate(l, survivors, index);
    EXPECT_TRUE(read.ok());
    if (!read.ok() || read->kind != ReadPlan::Kind::kDegraded) continue;
    SCOPED_TRACE("logical " + std::to_string(l));
    const Array::LogicalRef ref = array.logical_ref(l);
    const std::span<const Physical> reads(survivors.data(),
                                          read->num_survivors);
    expect_minimal_decode(array, ref.stripe, read->erased_index[0], reads,
                          {index.data(), read->num_survivors},
                          read->num_erased, unused);
    if (xor_parity) {
      EXPECT_EQ(std::vector<Physical>(reads.begin(), reads.end()),
                every_survivor(array, ref.stripe, ref.pos));
    }
  }
  return total;
}

TEST(ArrayDecodeSets, ReedSolomonReadsOnlyWhatTheDecodeUses) {
  // RS P+Q on BIBD(17,5): a single failure's rebuild reads num_data = 3
  // units per lost stripe instead of all 4 survivors -- 60 reads, not
  // 80 -- and no survivor reads more than with every survivor read.
  const auto array =
      Array::create({.num_disks = 17, .stripe_size = 5}, {},
                    {.construction = Construction::kBibdPerfect,
                     .codec = core::CodecKind::kReedSolomonPQ});
  ASSERT_TRUE(array.ok()) << array.status().to_string();
  for (layout::DiskId a = 0; a < array->num_disks(); ++a) {
    SCOPED_TRACE("failed disk " + std::to_string(a));
    EXPECT_EQ(check_decode_sets(*array, {a}), 60u);
    for (layout::DiskId b = a + 1; b < array->num_disks(); ++b) {
      SCOPED_TRACE("and disk " + std::to_string(b));
      check_decode_sets(*array, {a, b});
    }
  }
}

TEST(ArrayDecodeSets, ZeroDataStripesReadNothing) {
  // Disk removal at (9, 4) under RS leaves 2-unit stripes of P and Q
  // alone: rebuilding either reads nothing and re-encodes zero.
  const auto array = Array::create({.num_disks = 9, .stripe_size = 4}, {},
                                   {.construction = Construction::kRemoval,
                                    .codec = core::CodecKind::kReedSolomonPQ});
  ASSERT_TRUE(array.ok()) << array.status().to_string();
  std::uint32_t zero_data = 0;
  for (std::uint32_t s = 0; s < array->num_stripes(); ++s)
    zero_data += array->stripe_data_units(s) == 0;
  ASSERT_GT(zero_data, 0u);
  for (layout::DiskId a = 0; a < array->num_disks(); ++a) {
    SCOPED_TRACE("failed disk " + std::to_string(a));
    check_decode_sets(*array, {a});
    for (layout::DiskId b = a + 1; b < array->num_disks(); ++b) {
      SCOPED_TRACE("and disk " + std::to_string(b));
      check_decode_sets(*array, {a, b});
    }
  }
}

TEST(ArrayDecodeSets, XorPlansReadEverySurvivorInPositionOrder) {
  for (const SparingMode sparing :
       {SparingMode::kNone, SparingMode::kDistributed}) {
    for (const Construction construction :
         {Construction::kBibdPerfect, Construction::kRemoval}) {
      const auto array = Array::create({.num_disks = 17, .stripe_size = 5},
                                       {},
                                       {.sparing = sparing,
                                        .construction = construction});
      ASSERT_TRUE(array.ok()) << array.status().to_string();
      for (layout::DiskId a = 0; a < array->num_disks(); ++a) {
        SCOPED_TRACE(core::construction_name(construction) + " disk " +
                     std::to_string(a));
        check_decode_sets(*array, {a});
      }
    }
  }
}

}  // namespace
}  // namespace pdl::api
