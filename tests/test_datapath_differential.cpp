// Differential suite pinning io::StripeStore to api::Array semantics: for
// every ranked construction at (17, 5) (>= 4 apply), {0, 1, 2} failed
// disks, both sparing modes, and BOTH storage backends (zero-copy memory
// and pread/pwrite file images), every StripeStore::read outcome -- the
// served/degraded/unrecoverable resolution AND the exact physical units
// touched -- must match what Array::locate says on an identically-driven
// reference array, and every served byte must equal what was written.
// Write receipts are pinned to Array::plan_write the same way, and the
// dedicated-replacement cases prove rebuild restores checksum-identical
// disk contents through every failure count the codec tolerates (one
// under XOR, two under Reed-Solomon P+Q).  Running the identical matrix
// over both backends and both codecs is what pins the DiskBackend and
// Codec seams: neither substrate nor code may be visible in any byte
// served.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "api/array.hpp"
#include "engine/planner.hpp"
#include "io/async_backend.hpp"
#include "io/disk_backend.hpp"
#include "io/stripe_store.hpp"
#include "io/workload_driver.hpp"
#include "scratch_dir.hpp"

namespace pdl::io {
namespace {

constexpr std::uint32_t kV = 17;
constexpr std::uint32_t kK = 5;
constexpr std::uint32_t kUnitBytes = 48;  // odd-ish size, not a power of two
constexpr std::uint32_t kIterations = 2;
constexpr std::uint64_t kSeed = 0xD1FF;

std::vector<core::Construction> applicable_constructions() {
  const auto& planner = engine::ConstructionPlanner::default_planner();
  std::vector<core::Construction> result;
  for (const auto& plan : planner.rank_plans({kV, kK}, {})) {
    if (plan.units_per_disk > 2000) continue;
    result.push_back(plan.construction);
  }
  return result;
}

enum class BackendKind { kMemory, kFile };

struct Case {
  core::Construction construction;
  api::SparingMode sparing;
  std::vector<layout::DiskId> failures;
  BackendKind backend = BackendKind::kMemory;
  core::CodecKind codec = core::CodecKind::kXorParity;
  std::filesystem::path dir = {};  ///< a file-backed case's disk images
};

std::unique_ptr<io::DiskBackend> make_case_backend(const Case& c) {
  if (c.backend == BackendKind::kFile)
    return make_file_backend({.directory = c.dir.string()});
  return make_memory_backend();
}

std::string describe(const Case& c) {
  std::string text = core::construction_name(c.construction);
  text += "/";
  text += core::codec_kind_name(c.codec);
  text += c.sparing == api::SparingMode::kDistributed ? "/distributed"
                                                      : "/dedicated";
  text += c.backend == BackendKind::kFile ? "/file" : "/memory";
  text += " failures={";
  for (const auto d : c.failures) text += std::to_string(d) + ",";
  text += "}";
  return text;
}

/// Every logical read through the store, checked against the reference
/// array's locate: same resolution kind, same touched units, and -- when
/// served -- canonical bytes.
void expect_reads_match(StripeStore& store, const api::Array& reference,
                        const std::string& context) {
  std::vector<std::uint8_t> unit(store.unit_bytes());
  std::vector<std::uint8_t> expected(store.unit_bytes());
  std::array<Physical, 64> survivors;

  for (std::uint64_t logical = 0; logical < store.num_logical_units();
       ++logical) {
    const auto plan = reference.locate(logical, survivors);
    ASSERT_TRUE(plan.ok()) << context;
    ReadReceipt receipt;
    const Status status = store.read(logical, unit, &receipt);

    ASSERT_EQ(receipt.kind, plan->kind)
        << context << " logical " << logical;
    if (plan->kind == api::ReadPlan::Kind::kUnrecoverable) {
      EXPECT_EQ(status.code(), StatusCode::kDataLoss)
          << context << " logical " << logical;
      continue;
    }
    ASSERT_TRUE(status.ok()) << context << " logical " << logical << ": "
                             << status.to_string();
    if (plan->kind == api::ReadPlan::Kind::kDirect) {
      ASSERT_EQ(receipt.num_touched, 1u) << context << " logical " << logical;
      EXPECT_EQ(receipt.touched[0], plan->target)
          << context << " logical " << logical;
    } else {
      ASSERT_EQ(receipt.num_touched, plan->num_survivors)
          << context << " logical " << logical;
      for (std::uint32_t i = 0; i < plan->num_survivors; ++i)
        EXPECT_EQ(receipt.touched[i], survivors[i])
            << context << " logical " << logical << " survivor " << i;
    }
    canonical_fill(logical, kSeed, expected);
    EXPECT_EQ(unit, expected) << context << " logical " << logical;
  }
}

/// Rewrites every 7th logical (same canonical content) and pins the write
/// receipt -- strategy kind, peer reads, written units -- to the
/// reference array's plan_write.
void expect_writes_match(StripeStore& store, const api::Array& reference,
                         const std::string& context) {
  std::vector<std::uint8_t> unit(store.unit_bytes());
  std::array<Physical, 64> peers;

  for (std::uint64_t logical = 0; logical < store.num_logical_units();
       logical += 7) {
    const auto plan = reference.plan_write(logical, peers);
    ASSERT_TRUE(plan.ok()) << context;
    canonical_fill(logical, kSeed, unit);
    WriteReceipt receipt;
    const Status status = store.write(logical, unit, &receipt);

    ASSERT_EQ(receipt.kind, plan->kind) << context << " logical " << logical;
    // One codec-aware path serves every codec, so the receipt shape is
    // the same for XOR (one parity) and RS (one or two surviving).
    switch (plan->kind) {
      case api::WritePlan::Kind::kReadModifyWrite:
        ASSERT_TRUE(status.ok()) << context;
        ASSERT_EQ(receipt.num_writes, 1u + plan->num_parities);
        EXPECT_EQ(receipt.writes[0], plan->data);
        for (std::uint32_t j = 0; j < plan->num_parities; ++j)
          EXPECT_EQ(receipt.writes[1 + j], plan->parity_targets[j])
              << context << " logical " << logical << " parity " << j;
        break;
      case api::WritePlan::Kind::kReconstructWrite:
        ASSERT_TRUE(status.ok()) << context;
        // Reconstruct-writes read the peers, then the old surviving
        // parities (for second-erasure decode and rollback).
        ASSERT_EQ(receipt.num_reads,
                  plan->num_peer_reads + plan->num_parities);
        for (std::uint32_t i = 0; i < plan->num_peer_reads; ++i)
          EXPECT_EQ(receipt.reads[i], peers[i])
              << context << " logical " << logical << " peer " << i;
        ASSERT_EQ(receipt.num_writes, plan->num_parities);
        for (std::uint32_t j = 0; j < plan->num_parities; ++j) {
          EXPECT_EQ(receipt.reads[plan->num_peer_reads + j],
                    plan->parity_targets[j])
              << context << " logical " << logical << " parity " << j;
          EXPECT_EQ(receipt.writes[j], plan->parity_targets[j])
              << context << " logical " << logical << " parity " << j;
        }
        break;
      case api::WritePlan::Kind::kUnprotectedWrite:
        ASSERT_TRUE(status.ok()) << context;
        ASSERT_EQ(receipt.num_writes, 1u);
        EXPECT_EQ(receipt.writes[0], plan->data);
        break;
      case api::WritePlan::Kind::kUnrecoverable:
        EXPECT_EQ(status.code(), StatusCode::kDataLoss)
            << context << " logical " << logical;
        break;
    }
  }
}

void run_case(const Case& c) {
  const std::string context = describe(c);
  const core::ArraySpec spec{kV, kK};
  const api::ArrayOptions options{.sparing = c.sparing,
                                  .construction = c.construction,
                                  .codec = c.codec};
  auto store_array = api::Array::create(spec, {}, options);
  auto reference = api::Array::create(spec, {}, options);
  ASSERT_TRUE(store_array.ok()) << context << ": "
                                << store_array.status().to_string();
  ASSERT_TRUE(reference.ok()) << context;

  auto store = StripeStore::create(
      std::move(store_array).value(),
      {.unit_bytes = kUnitBytes, .iterations = kIterations},
      make_case_backend(c));
  ASSERT_TRUE(store.ok()) << context << ": " << store.status().to_string();
  ASSERT_TRUE(
      fill_canonical(*store, 0, store->num_logical_units(), kSeed).ok())
      << context;

  // Checksums of every disk while healthy, for the rebuild-identity check.
  const auto healthy_sums_result = store->checksum_disks();
  ASSERT_TRUE(healthy_sums_result.ok()) << context;
  const std::vector<std::uint64_t>& healthy_sums = *healthy_sums_result;

  // Drive both objects through the identical failure sequence.
  for (const layout::DiskId disk : c.failures) {
    ASSERT_TRUE(store->fail_disk(disk).ok()) << context;
    ASSERT_TRUE(reference->fail_disk(disk).ok()) << context;
  }

  expect_reads_match(*store, *reference, context + " [degraded]");
  expect_writes_match(*store, *reference, context + " [degraded]");
  // The rewrites kept content canonical, so reads still verify.
  expect_reads_match(*store, *reference, context + " [rewritten]");

  // Repair: replacements on both, then rebuild both; the store must land
  // in the same online state and serve every recoverable byte again.
  for (const layout::DiskId disk : c.failures) {
    ASSERT_TRUE(store->replace_disk(disk).ok()) << context;
    ASSERT_TRUE(reference->replace_disk(disk).ok()) << context;
  }
  const auto store_outcome = store->rebuild();
  ASSERT_TRUE(store_outcome.ok()) << context;
  const auto ref_outcome = reference->rebuild();
  ASSERT_TRUE(ref_outcome.ok()) << context;
  EXPECT_EQ(store_outcome->applied, ref_outcome->applied) << context;
  EXPECT_EQ(store_outcome->blocked, ref_outcome->blocked) << context;
  EXPECT_EQ(store->array().lost_units(), reference->lost_units()) << context;
  EXPECT_EQ(store->array().stripes_lost(), reference->stripes_lost())
      << context;

  expect_reads_match(*store, *reference, context + " [rebuilt]");

  // Dedicated replacement rebuilds in place: every rebuilt disk must be
  // checksum-identical to its pre-failure contents (the rewrites above
  // re-stored canonical bytes, so content never moved).  XOR arrays can
  // only promise this through one failure; Reed-Solomon through two.
  const std::size_t tolerated = store->array().num_parity_units();
  if (!c.failures.empty() && c.failures.size() <= tolerated &&
      c.sparing == api::SparingMode::kNone) {
    for (const layout::DiskId disk : c.failures) {
      const auto rebuilt_sum = store->checksum_disk(disk);
      ASSERT_TRUE(rebuilt_sum.ok()) << context;
      EXPECT_EQ(*rebuilt_sum, healthy_sums[disk])
          << context << ": rebuilt disk " << disk
          << " contents differ from pre-failure";
    }
    EXPECT_TRUE(store->array().healthy()) << context;
  }
  if (c.failures.size() <= tolerated) {
    EXPECT_FALSE(store->array().data_loss()) << context;
  }
}

/// run_case over `backend`, in a scratch directory removed when it ends.
void run_case_on(Case c, BackendKind backend) {
  const tests::ScratchDir scratch("pdl_datapath_diff");
  c.backend = backend;
  c.dir = scratch.path();
  run_case(c);
}

TEST(DatapathDifferential, AtLeastFourConstructionsApply) {
  EXPECT_GE(applicable_constructions().size(), 4u);
}

/// The full construction x sparing x failure-count matrix over one
/// backend and codec -- ONE definition, so the memory/file and XOR/RS
/// sweeps can never silently diverge in coverage.
void run_full_matrix(BackendKind backend, core::CodecKind codec) {
  const auto constructions = applicable_constructions();
  ASSERT_GE(constructions.size(), 3u);
  for (const core::Construction construction : constructions) {
    for (const api::SparingMode sparing :
         {api::SparingMode::kNone, api::SparingMode::kDistributed}) {
      for (const std::uint32_t failures : {0u, 1u, 2u}) {
        Case c{construction, sparing, {}};
        c.codec = codec;
        if (failures >= 1) c.failures.push_back(0);
        if (failures >= 2) c.failures.push_back(kV / 2);
        run_case_on(c, backend);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(DatapathDifferential, AllConstructionsFailuresAndSparingModes) {
  run_full_matrix(BackendKind::kMemory, core::CodecKind::kXorParity);
}

// The identical matrix over pread/pwrite file images: the DiskBackend
// seam must be invisible -- every receipt, byte, and checksum that held
// for the memory substrate must hold for the persistent one.
TEST(DatapathDifferential, AllCasesOverFileBackend) {
  run_full_matrix(BackendKind::kFile, core::CodecKind::kXorParity);
}

// The identical matrix under GF(2^8) Reed-Solomon P+Q: the paper's
// layouts carry the second parity through the same declustered mapping,
// and TWO concurrent failures must now serve every byte and rebuild
// checksum-identical disk contents.
TEST(DatapathDifferential, ReedSolomonMatrixOverMemoryBackend) {
  run_full_matrix(BackendKind::kMemory, core::CodecKind::kReedSolomonPQ);
}

TEST(DatapathDifferential, ReedSolomonMatrixOverFileBackend) {
  run_full_matrix(BackendKind::kFile, core::CodecKind::kReedSolomonPQ);
}

// ------------------------------------------------- integrity rot matrix

/// Seeded single-bit rot on a HEALTHY integrity-enabled store: every
/// corrupted unit must be detected on read (counted as a CRC mismatch),
/// served canonically anyway (reconstructed through the codec), and
/// healed in place so the media ends checksum-identical to the
/// pre-corruption oracle.  Two rot flavours per case: persistent
/// on-media flips written behind the store's back, and one scripted
/// transient read-buffer flip from the FaultInjectionBackend.
void run_rot_case(BackendKind backend_kind, bool async,
                  core::CodecKind codec) {
  const std::string context =
      "rot/" + std::string(core::codec_kind_name(codec)) +
      (async ? "/async" : "/sync") +
      (backend_kind == BackendKind::kFile ? "/file" : "/memory");
  const auto constructions = applicable_constructions();
  ASSERT_FALSE(constructions.empty()) << context;

  auto array = api::Array::create(
      {kV, kK}, {},
      {.construction = constructions.front(), .codec = codec,
       .integrity = true});
  ASSERT_TRUE(array.ok()) << context << ": " << array.status().to_string();

  const tests::ScratchDir scratch("pdl_datapath_rot");
  std::unique_ptr<io::DiskBackend> base =
      backend_kind == BackendKind::kFile
          ? make_file_backend({.directory = scratch.path().string()})
          : make_memory_backend();
  // The decorator hides the substrate's memory views, so every unit
  // crosses the streamed read path where rot applies and is CRC-checked.
  auto fault = std::make_unique<FaultInjectionBackend>(
      std::move(base), FaultInjectionOptions{.seed = kSeed});
  FaultInjectionBackend* fault_ptr = fault.get();
  std::unique_ptr<io::DiskBackend> backend = std::move(fault);
  if (async) backend = make_async_backend(std::move(backend), {});

  auto store = StripeStore::create(
      std::move(array).value(),
      {.unit_bytes = kUnitBytes, .iterations = kIterations},
      std::move(backend));
  ASSERT_TRUE(store.ok()) << context << ": " << store.status().to_string();
  ASSERT_TRUE(
      fill_canonical(*store, 0, store->num_logical_units(), kSeed).ok())
      << context;
  const auto oracle = store->checksum_disks();
  ASSERT_TRUE(oracle.ok()) << context;

  // Persistent rot: flip one bit in three spread-out units, behind the
  // store's back (its CRC cache still vouches for the original bytes).
  const std::uint64_t stride =
      std::max<std::uint64_t>(1, store->num_logical_units() / 3);
  std::uint64_t corrupted = 0;
  for (std::uint64_t logical = 0;
       logical < store->num_logical_units() && corrupted < 3;
       logical += stride, ++corrupted) {
    const Physical p = store->array().map(logical);
    const std::uint64_t byte =
        static_cast<std::uint64_t>(p.offset) * kUnitBytes;
    std::uint8_t media = 0;
    ASSERT_TRUE(store->backend().read(p.disk, byte, {&media, 1}).ok())
        << context;
    media ^= 0x10;
    ASSERT_TRUE(store->backend().write(p.disk, byte, {&media, 1}).ok())
        << context;
  }
  // Transient rot: one scripted flip on the very next backend read op
  // (the first unit the verification loop below fetches: logical 0,
  // whose media copy is already rotten, so the flip adds no rotten unit).
  const std::uint64_t next_read[] = {fault_ptr->stats().reads + 1};
  fault_ptr->arm_rot_on_reads(next_read);

  // Every byte must still come back canonical: detect, reconstruct
  // through the codec, retry -- all transparent to the caller.
  std::vector<std::uint8_t> unit(store->unit_bytes());
  std::vector<std::uint8_t> expected(store->unit_bytes());
  for (std::uint64_t logical = 0; logical < store->num_logical_units();
       ++logical) {
    ASSERT_TRUE(store->read(logical, unit).ok())
        << context << " logical " << logical;
    canonical_fill(logical, kSeed, expected);
    ASSERT_EQ(unit, expected) << context << " logical " << logical;
  }

  const IntegrityStats stats = store->integrity_stats();
  // Each rotten unit counts once: the read that finds it counts it, and
  // the heal that follows does not count it again.
  EXPECT_EQ(stats.mismatches, corrupted) << context;
  EXPECT_EQ(stats.healed, corrupted) << context;  // media flips healed
  EXPECT_EQ(stats.unhealable, 0u) << context;
  EXPECT_GT(stats.verified, 0u) << context;

  // A full scrub cycle and the parity re-encode audit close the loop:
  // nothing left to heal, no instance inconsistent, and the media is
  // byte-identical to before the corruption.
  const auto sweep = store->scrub();
  ASSERT_TRUE(sweep.ok()) << context;
  EXPECT_EQ(sweep->unhealable, 0u) << context;
  const auto inconsistent = store->verify_stripes();
  ASSERT_TRUE(inconsistent.ok()) << context;
  EXPECT_EQ(*inconsistent, 0u) << context;
  const auto after = store->checksum_disks();
  ASSERT_TRUE(after.ok()) << context;
  for (std::size_t d = 0; d < oracle->size(); ++d)
    EXPECT_EQ((*after)[d], (*oracle)[d])
        << context << ": disk " << d
        << " not checksum-identical after heal";
}

/// The rot detect/heal matrix over sync/async submission and both
/// codecs -- ONE definition shared by the memory and file sweeps.
void run_rot_matrix(BackendKind backend) {
  for (const bool async : {false, true}) {
    for (const core::CodecKind codec :
         {core::CodecKind::kXorParity, core::CodecKind::kReedSolomonPQ}) {
      run_rot_case(backend, async, codec);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(DatapathDifferential, RotDetectHealMatrixOverMemoryBackend) {
  run_rot_matrix(BackendKind::kMemory);
}

TEST(DatapathDifferential, RotDetectHealMatrixOverFileBackend) {
  run_rot_matrix(BackendKind::kFile);
}


// ------------------------------------------------- the kept rebuild plan
//
// rebuild_some plans once per failure state and hands out the kept
// steps chunk by chunk, so a drain of rebuild_some(1) calls must make
// exactly the choices of api::Array::rebuild()'s plan-once-apply-all
// passes.

/// What a rebuild decides, as the array shows it: each disk's state,
/// the units still lost, and where each logical unit is served from (a
/// unit rebuilt into its stripe's spare reads directly from the spare).
struct RebuiltState {
  std::vector<api::DiskState> disks;
  std::uint64_t lost = 0;
  std::vector<Physical> homes;
  bool operator==(const RebuiltState&) const = default;
};

RebuiltState rebuilt_state(const api::Array& array, std::uint64_t logicals) {
  RebuiltState state{array.disk_states(), array.lost_units(), {}};
  std::vector<Physical> survivors(array.max_stripe_size());
  for (std::uint64_t l = 0; l < logicals; ++l) {
    const auto plan = array.locate(l, survivors);
    const bool direct =
        plan.ok() && plan->kind == api::ReadPlan::Kind::kDirect;
    state.homes.push_back(direct ? plan->target : Physical{~0u, ~0ull});
  }
  return state;
}

Result<StripeStore> make_filled_store(api::SparingMode sparing,
                                      core::CodecKind codec) {
  auto array =
      api::Array::create({kV, kK}, {}, {.sparing = sparing, .codec = codec});
  if (!array.ok()) return array.status();
  auto store = StripeStore::create(
      std::move(array).value(),
      {.unit_bytes = kUnitBytes, .iterations = kIterations});
  if (!store.ok()) return store.status();
  if (Status filled =
          fill_canonical(*store, 0, store->num_logical_units(), kSeed);
      !filled.ok())
    return filled;
  return store;
}

/// rebuild_some(1) until it applies nothing; returns the last blocked
/// count.
std::uint64_t drain_one_by_one(StripeStore& store) {
  for (;;) {
    std::uint64_t blocked = 0;
    const auto applied = store.rebuild_some(1, &blocked);
    EXPECT_TRUE(applied.ok()) << applied.status().to_string();
    if (!applied.ok() || *applied == 0) return blocked;
    EXPECT_EQ(*applied, 1u);
  }
}

void expect_canonical_store(StripeStore& store, const std::string& context) {
  std::vector<std::uint8_t> unit(store.unit_bytes());
  std::vector<std::uint8_t> expected(store.unit_bytes());
  for (std::uint64_t logical = 0; logical < store.num_logical_units();
       ++logical) {
    ASSERT_TRUE(store.read(logical, unit).ok())
        << context << " logical " << logical;
    canonical_fill(logical, kSeed, expected);
    ASSERT_EQ(unit, expected) << context << " logical " << logical;
  }
}

TEST(DatapathDifferential, OneStepDrainMatchesWholeRebuild) {
  for (const core::CodecKind codec :
       {core::CodecKind::kXorParity, core::CodecKind::kReedSolomonPQ}) {
    for (const api::SparingMode sparing :
         {api::SparingMode::kNone, api::SparingMode::kDistributed}) {
      std::vector<std::vector<layout::DiskId>> scenarios = {{3}};
      // Under distributed sparing, planning after every step would
      // rebuild some of {0, 3}'s units into different slots than
      // plan-once does: a replacement that finishes first frees its
      // spares for the other disk's units.
      if (codec == core::CodecKind::kReedSolomonPQ)
        scenarios.insert(scenarios.end(), {{3, 11}, {0, 3}});
      for (const auto& failed : scenarios) {
        const std::string context =
            std::string(core::codec_kind_name(codec)) +
            (sparing == api::SparingMode::kDistributed ? "/distributed"
                                                       : "/dedicated") +
            " failed=" + std::to_string(failed.front()) +
            (failed.size() > 1 ? "," + std::to_string(failed.back()) : "");
        auto drained = make_filled_store(sparing, codec);
        auto whole = make_filled_store(sparing, codec);
        ASSERT_TRUE(drained.ok() && whole.ok()) << context;
        for (StripeStore* store : {&*drained, &*whole})
          for (const layout::DiskId disk : failed) {
            ASSERT_TRUE(store->fail_disk(disk).ok()) << context;
            // Distributed sparing rebuilds into spares first; the
            // replacement then comes back with nothing left to rebuild.
            if (sparing == api::SparingMode::kNone) {
              ASSERT_TRUE(store->replace_disk(disk).ok()) << context;
            }
          }
        // The bare array, copied before the drain, rebuilds through
        // api::Array::rebuild() itself: the reference for the choices.
        api::Array bare = drained->array();
        const std::uint64_t logicals = drained->num_logical_units();

        // Two rounds under distributed sparing: into the spares, then
        // after the replacements are attached.
        for (int round = 0; round < 2; ++round) {
          const std::string at = context + " round " + std::to_string(round);
          const std::uint64_t blocked = drain_one_by_one(*drained);
          const auto outcome = whole->rebuild();
          const auto reference = bare.rebuild();
          ASSERT_TRUE(outcome.ok() && reference.ok()) << at;
          EXPECT_EQ(blocked, reference->blocked) << at;
          EXPECT_EQ(outcome->blocked, reference->blocked) << at;
          const RebuiltState expected = rebuilt_state(bare, logicals);
          EXPECT_EQ(rebuilt_state(drained->array(), logicals), expected) << at;
          EXPECT_EQ(rebuilt_state(whole->array(), logicals), expected) << at;
          const auto a = drained->checksum_disks();
          const auto b = whole->checksum_disks();
          ASSERT_TRUE(a.ok() && b.ok()) << at;
          EXPECT_EQ(*a, *b) << at;
          if (sparing == api::SparingMode::kNone || round == 1) break;
          for (StripeStore* store : {&*drained, &*whole})
            for (const layout::DiskId disk : failed)
              ASSERT_TRUE(store->replace_disk(disk).ok()) << at;
          for (const layout::DiskId disk : failed)
            ASSERT_TRUE(bare.replace_disk(disk).ok()) << at;
        }
        EXPECT_TRUE(drained->array().healthy()) << context;
        expect_canonical_store(*drained, context);
      }
    }
  }
}

TEST(DatapathDifferential, FailAndReplaceDropTheKeptPlan) {
  // RS P+Q, so a second failure mid-drain loses nothing.  The steps kept
  // from the single-failure plan read disk 11; after it fails they must
  // not run, and the replacement's plan must not inherit the blocked
  // count of the plan made while disk 11 had none.
  auto store = make_filled_store(api::SparingMode::kNone,
                                 core::CodecKind::kReedSolomonPQ);
  ASSERT_TRUE(store.ok()) << store.status().to_string();
  const auto oracle = store->checksum_disks();
  ASSERT_TRUE(oracle.ok());
  ASSERT_TRUE(store->fail_disk(3).ok());
  ASSERT_TRUE(store->replace_disk(3).ok());
  std::uint64_t blocked = 0;
  for (int i = 0; i < 3; ++i) {
    const auto applied = store->rebuild_some(1, &blocked);
    ASSERT_TRUE(applied.ok()) << applied.status().to_string();
    ASSERT_EQ(*applied, 1u);
    EXPECT_EQ(blocked, 0u);
  }

  ASSERT_TRUE(store->fail_disk(11).ok());
  for (int i = 0; i < 3; ++i) {
    const auto applied = store->rebuild_some(1, &blocked);
    ASSERT_TRUE(applied.ok()) << applied.status().to_string();
    ASSERT_EQ(*applied, 1u);
    EXPECT_GT(blocked, 0u) << "disk 11's units wait for its replacement";
  }

  ASSERT_TRUE(store->replace_disk(11).ok());
  const auto applied = store->rebuild_some(1, &blocked);
  ASSERT_TRUE(applied.ok()) << applied.status().to_string();
  EXPECT_EQ(*applied, 1u);
  EXPECT_EQ(blocked, 0u);
  EXPECT_EQ(drain_one_by_one(*store), 0u);

  EXPECT_TRUE(store->array().healthy());
  const auto inconsistent = store->verify_stripes();
  ASSERT_TRUE(inconsistent.ok());
  EXPECT_EQ(*inconsistent, 0u);
  expect_canonical_store(*store, "fail/replace mid-drain");
  const auto after = store->checksum_disks();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *oracle);
}

// ------------------------------------------------ rebuild lanes
//
// A rebuild chunk splits its stripe instances' checks, decodes and
// target writes over parallel_for lanes, one contiguous range each, once
// it moves 768 KiB per lane (kLaneBytes in stripe_store.cpp).  These
// stores make every chunk, even a one-step chunk, fan out: the BIBD
// layout at (16, 4) has 5 units per disk and 20 stripes, and with 4 KiB
// units and 192 iterations a step covers 192 instances.  The thinnest
// case, Reed-Solomon with a distributed spare, reads 1 survivor and
// writes 1 target per instance: 192 x 2 x 4 KiB = 1.5 MiB, two lanes'
// worth; XOR without a spare reads 3 and moves 3 MiB, four lanes'
// worth.  A one-step chunk's 192 instances fall on 16 of the 64 lock
// shards (20 stripes per iteration), so rebuild_some(1) stages it under
// the shared state lock; rebuild()'s multi-step chunks span more shards
// and are staged under the exclusive one.  Each store is 60 MiB.

constexpr std::uint32_t kLaneUnitBytes = 4096;
constexpr std::uint32_t kLaneIterations = 192;

Result<StripeStore> make_lane_store(api::SparingMode sparing,
                                    core::CodecKind codec) {
  auto array = api::Array::create(
      {16, 4}, {},
      {.sparing = sparing,
       .construction = core::Construction::kBibdFlow,
       .codec = codec,
       .integrity = codec == core::CodecKind::kReedSolomonPQ});
  if (!array.ok()) return array.status();
  auto store = StripeStore::create(
      std::move(array).value(),
      {.unit_bytes = kLaneUnitBytes, .iterations = kLaneIterations});
  if (!store.ok()) return store.status();
  if (Status filled =
          fill_canonical(*store, 0, store->num_logical_units(), kSeed);
      !filled.ok())
    return filled;
  return store;
}

void expect_consistent(StripeStore& store, const std::string& context) {
  const auto inconsistent = store.verify_stripes();
  ASSERT_TRUE(inconsistent.ok()) << context;
  EXPECT_EQ(*inconsistent, 0u) << context;
  expect_canonical_store(store, context);
}

TEST(DatapathDifferential, LaneSizedRebuildsRestoreEveryByte) {
  for (const core::CodecKind codec :
       {core::CodecKind::kXorParity, core::CodecKind::kReedSolomonPQ}) {
    for (const api::SparingMode sparing :
         {api::SparingMode::kNone, api::SparingMode::kDistributed}) {
      std::vector<std::vector<layout::DiskId>> scenarios = {{3}};
      if (codec == core::CodecKind::kReedSolomonPQ)
        scenarios.push_back({3, 11});
      for (const auto& failed : scenarios) {
        const std::string context =
            std::string(core::codec_kind_name(codec)) +
            (sparing == api::SparingMode::kDistributed ? "/distributed"
                                                       : "/in-place") +
            " failures=" + std::to_string(failed.size());
        auto store = make_lane_store(sparing, codec);
        ASSERT_TRUE(store.ok()) << context << ": "
                                << store.status().to_string();
        const auto oracle = store->checksum_disks();
        ASSERT_TRUE(oracle.ok()) << context;
        for (const layout::DiskId disk : failed)
          ASSERT_TRUE(store->fail_disk(disk).ok()) << context;
        // One failure drains one-step chunks (shared stage); two go
        // through rebuild()'s multi-step chunks (exclusive stage).  Returns
        // the units left waiting for a replacement.
        const auto repair = [&]() -> std::uint64_t {
          if (failed.size() == 1) return drain_one_by_one(*store);
          const auto outcome = store->rebuild();
          EXPECT_TRUE(outcome.ok()) << context;
          return outcome.ok() ? outcome->blocked : ~0ull;
        };
        if (sparing == api::SparingMode::kDistributed) {
          (void)repair();  // into the spares
          EXPECT_FALSE(store->array().data_loss()) << context;
          expect_consistent(*store, context + " [spared]");
        }
        for (const layout::DiskId disk : failed)
          ASSERT_TRUE(store->replace_disk(disk).ok()) << context;
        EXPECT_EQ(repair(), 0u) << context;
        EXPECT_TRUE(store->array().healthy()) << context;
        expect_consistent(*store, context + " [replaced]");
        // In place, every disk comes back to its pre-failure image.
        if (sparing == api::SparingMode::kNone) {
          const auto after = store->checksum_disks();
          ASSERT_TRUE(after.ok()) << context;
          EXPECT_EQ(*after, *oracle) << context;
        }
      }
    }
  }
}

TEST(DatapathDifferential, LaneSizedRebuildCountsRotOnceAcrossLanes) {
  // Rot in one step's survivor at iterations 0, 96 and 191: whether the
  // step's 192 instances split over two, three or four lanes, the first
  // and last fall in different lanes.  Each rotten unit counts once and
  // heals once, and the disk still comes back to its pre-failure image.
  auto store = make_lane_store(api::SparingMode::kNone,
                               core::CodecKind::kReedSolomonPQ);
  ASSERT_TRUE(store.ok()) << store.status().to_string();
  const auto oracle = store->checksum_disks();
  ASSERT_TRUE(oracle.ok());
  ASSERT_TRUE(store->fail_disk(3).ok());
  ASSERT_TRUE(store->replace_disk(3).ok());

  // The first step rebuild_some claims is the plan's first.
  const auto plan = store->array().plan_rebuild();
  ASSERT_TRUE(plan.ok() && !plan->steps.empty());
  const Physical survivor = plan->steps.front().reads.front();
  std::uint64_t rotten = 0;
  for (const std::uint64_t it : {0u, 96u, kLaneIterations - 1}) {
    const std::uint64_t byte =
        (survivor.offset + it * store->array().units_per_disk()) *
        kLaneUnitBytes;
    std::uint8_t media = 0;
    ASSERT_TRUE(store->backend().read(survivor.disk, byte, {&media, 1}).ok());
    media ^= 0x10;
    ASSERT_TRUE(store->backend().write(survivor.disk, byte, {&media, 1}).ok());
    ++rotten;
  }
  const IntegrityStats before = store->integrity_stats();

  EXPECT_EQ(drain_one_by_one(*store), 0u);
  const IntegrityStats stats = store->integrity_stats();
  EXPECT_EQ(stats.mismatches - before.mismatches, rotten);
  EXPECT_EQ(stats.healed - before.healed, rotten);
  EXPECT_EQ(stats.unhealable, 0u);
  EXPECT_TRUE(store->array().healthy());
  const auto after = store->checksum_disks();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *oracle);
  expect_consistent(*store, "rot across lanes");
}

}  // namespace
}  // namespace pdl::io
