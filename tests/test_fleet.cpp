// pdl::fleet::Fleet -- many arrays behind one front door.  The suite
// pins the fleet tier's core promises:
//
//   * the compiled shard map routes every block to the right
//     (shard, unit) pair, with extents covering the space exactly once;
//   * the shard-boundary property: randomized reads and writes
//     straddling shard split points are byte-identical to one flat
//     model store (a differential oracle over the whole block space) --
//     including while one disk in each of TWO different shards is
//     failed, so boundary routing composes with per-shard degraded
//     serving;
//   * governed rebuild restores every byte, with the RebuildGovernor's
//     pacing observable in its stats;
//   * the governor's token bucket, policy selection, and
//     foreground-activity window behave as specified in isolation;
//   * fleet serialization round-trips the shard map and per-shard array
//     headers;
//   * io::WorkloadDriver's canonical-content discipline verifies
//     through the fleet front door.

#include "fleet/fleet.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fleet/governor.hpp"
#include "io/workload_driver.hpp"

namespace pdl::fleet {
namespace {

constexpr std::uint32_t kBlockBytes = 64;
constexpr std::uint64_t kSeed = 0xF1EE7;

[[nodiscard]] ShardSpec make_shard(std::uint32_t v, std::uint32_t k,
                                   core::CodecKind codec,
                                   std::uint32_t iterations = 1) {
  auto array = api::Array::create({.num_disks = v, .stripe_size = k}, {},
                                  {.codec = codec});
  EXPECT_TRUE(array.ok()) << array.status().to_string();
  return ShardSpec{.array = std::move(array).value(),
                   .iterations = iterations};
}

/// A heterogeneous three-shard fleet: XOR next to Reed-Solomon P+Q,
/// different geometries and iteration counts.
[[nodiscard]] Fleet make_fleet(FleetOptions options = {
                                   .block_bytes = kBlockBytes}) {
  std::vector<ShardSpec> shards;
  shards.push_back(make_shard(9, 4, core::CodecKind::kXorParity, 2));
  shards.push_back(make_shard(17, 5, core::CodecKind::kReedSolomonPQ, 1));
  shards.push_back(make_shard(9, 4, core::CodecKind::kXorParity, 1));
  auto fleet = Fleet::create(std::move(shards), options);
  EXPECT_TRUE(fleet.ok()) << fleet.status().to_string();
  return std::move(fleet).value();
}

TEST(Fleet, CreateValidation) {
  EXPECT_EQ(Fleet::create({}, {}).status().code(),
            StatusCode::kInvalidArgument);

  std::vector<ShardSpec> shards;
  shards.push_back(make_shard(9, 4, core::CodecKind::kXorParity));
  EXPECT_EQ(Fleet::create(std::move(shards), {.block_bytes = 0})
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  shards.clear();
  shards.push_back(make_shard(9, 4, core::CodecKind::kXorParity));
  FleetOptions bad_governor;
  bad_governor.governor.policy = GovernorPolicy::kForegroundProtecting;
  bad_governor.governor.protected_bytes_per_sec = 0;
  EXPECT_EQ(Fleet::create(std::move(shards), bad_governor).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Fleet, GeometryAndExtentsCoverTheSpaceOnce) {
  Fleet fleet = make_fleet();
  ASSERT_EQ(fleet.num_shards(), 3u);
  EXPECT_EQ(fleet.block_bytes(), kBlockBytes);

  std::uint64_t expected = 0;
  for (std::uint32_t s = 0; s < fleet.num_shards(); ++s)
    expected += fleet.shard(s).num_logical_units();
  EXPECT_EQ(fleet.num_blocks(), expected);
  EXPECT_EQ(fleet.logical_bytes(), expected * kBlockBytes);

  // Extents tile [0, num_blocks) exactly once, in order.
  std::uint64_t next = 0;
  for (const Extent& e : fleet.extents()) {
    EXPECT_EQ(e.first, next);
    EXPECT_GT(e.count, 0u);
    next = e.first + e.count;
  }
  EXPECT_EQ(next, fleet.num_blocks());

  // Boundary blocks route to the owning shard at the right local unit.
  std::uint64_t base = 0;
  for (std::uint32_t s = 0; s < fleet.num_shards(); ++s) {
    const std::uint64_t cap = fleet.shard(s).num_logical_units();
    auto first = fleet.route_of(base);
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first.value().shard, s);
    EXPECT_EQ(first.value().unit, 0u);
    auto last = fleet.route_of(base + cap - 1);
    ASSERT_TRUE(last.ok());
    EXPECT_EQ(last.value().shard, s);
    EXPECT_EQ(last.value().unit, cap - 1);
    base += cap;
  }
  EXPECT_EQ(fleet.route_of(fleet.num_blocks()).status().code(),
            StatusCode::kOutOfRange);
}

TEST(Fleet, ArrayGeometryObserversMatchStoreDerivations) {
  // The api::Array byte-capacity observers the router is built on must
  // agree with the store-level derivations they replaced.
  Fleet fleet = make_fleet();
  for (std::uint32_t s = 0; s < fleet.num_shards(); ++s) {
    const io::StripeStore& store = fleet.shard(s);
    const api::Array& array = store.array();
    EXPECT_EQ(array.capacity_units(store.iterations()),
              store.num_logical_units());
    EXPECT_EQ(array.capacity_bytes(store.unit_bytes(), store.iterations()),
              store.logical_bytes());
    EXPECT_EQ(array.disk_bytes(store.unit_bytes(), store.iterations()),
              store.disk_bytes());
  }
}

/// The shard-boundary differential property: a mixed read/write stream
/// biased toward shard split points must be byte-identical to a flat
/// in-memory model of the whole block space -- healthy AND with one
/// failed disk in each of two different shards.
TEST(Fleet, ShardBoundaryRoutingMatchesFlatModel) {
  Fleet fleet = make_fleet();
  const std::uint64_t n = fleet.num_blocks();

  // The flat oracle: block -> last bytes written (empty = never).
  std::vector<std::vector<std::uint8_t>> model(n);
  std::mt19937_64 rng(kSeed);

  // Split points (extent firsts) to bias addresses toward.
  std::vector<std::uint64_t> boundaries;
  for (const Extent& e : fleet.extents()) boundaries.push_back(e.first);

  const auto pick_block = [&]() -> std::uint64_t {
    if (rng() % 2 == 0) return rng() % n;
    // Straddle a boundary: a few blocks on either side of a split.
    const std::uint64_t b = boundaries[rng() % boundaries.size()];
    const std::int64_t jitter =
        static_cast<std::int64_t>(rng() % 9) - 4;  // [-4, +4]
    const std::int64_t raw = static_cast<std::int64_t>(b) + jitter;
    return static_cast<std::uint64_t>(
        std::clamp<std::int64_t>(raw, 0, static_cast<std::int64_t>(n) - 1));
  };

  std::vector<std::uint8_t> buf(kBlockBytes);
  const auto run_ops = [&](std::uint64_t ops) {
    for (std::uint64_t i = 0; i < ops; ++i) {
      const std::uint64_t block = pick_block();
      if (rng() % 2 == 0) {
        for (auto& byte : buf)
          byte = static_cast<std::uint8_t>(rng());
        ASSERT_TRUE(fleet.write(block, buf).ok()) << "block " << block;
        model[block] = buf;
      } else {
        ASSERT_TRUE(fleet.read(block, buf).ok()) << "block " << block;
        if (!model[block].empty()) {
          ASSERT_EQ(buf, model[block]) << "block " << block;
        }
      }
    }
  };

  run_ops(3000);

  // One failed disk in each of two DIFFERENT shards: boundary routing
  // must compose with per-shard degraded serving.
  ASSERT_TRUE(fleet.fail_disk(0, 2).ok());
  ASSERT_TRUE(fleet.fail_disk(1, 5).ok());
  run_ops(3000);

  // Repair both shards and make a full verification sweep.
  ASSERT_TRUE(fleet.replace_disk(0, 2).ok());
  ASSERT_TRUE(fleet.replace_disk(1, 5).ok());
  auto outcome = fleet.rebuild_all();
  ASSERT_TRUE(outcome.ok()) << outcome.status().to_string();
  EXPECT_TRUE(fleet.healthy());
  for (std::uint64_t block = 0; block < n; ++block) {
    if (model[block].empty()) continue;
    ASSERT_TRUE(fleet.read(block, buf).ok());
    ASSERT_EQ(buf, model[block]) << "block " << block;
  }
}

TEST(Fleet, ReadBatchSpansShardsAndIsolatesFailures) {
  Fleet fleet = make_fleet();
  const std::uint64_t n = fleet.num_blocks();
  ASSERT_TRUE(io::fill_canonical(fleet, 0, n, kSeed).ok());

  // A batch crossing every shard boundary, plus one out-of-range block.
  std::vector<std::uint64_t> blocks;
  for (const Extent& e : fleet.extents()) {
    if (e.first > 0) blocks.push_back(e.first - 1);
    blocks.push_back(e.first);
  }
  blocks.push_back(n - 1);
  blocks.push_back(n + 7);  // out of range, must not veto batchmates

  std::vector<std::uint8_t> out(blocks.size() * kBlockBytes);
  std::vector<Status> statuses(blocks.size());
  std::vector<io::ReadReceipt> receipts(blocks.size());
  const Status overall =
      fleet.read_batch(blocks, out, statuses, receipts);
  EXPECT_EQ(overall.code(), StatusCode::kOutOfRange);

  std::vector<std::uint8_t> expected(kBlockBytes);
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    if (blocks[i] >= n) {
      EXPECT_EQ(statuses[i].code(), StatusCode::kOutOfRange);
      continue;
    }
    ASSERT_TRUE(statuses[i].ok()) << statuses[i].to_string();
    io::canonical_fill(blocks[i], kSeed, expected);
    EXPECT_EQ(std::vector<std::uint8_t>(
                  out.begin() + static_cast<std::ptrdiff_t>(i * kBlockBytes),
                  out.begin() +
                      static_cast<std::ptrdiff_t>((i + 1) * kBlockBytes)),
              expected)
        << "block " << blocks[i];
  }
}

TEST(Fleet, GovernedRebuildRestoresBytesAndChargesTheGovernor) {
  Fleet fleet = make_fleet();
  const std::uint64_t n = fleet.num_blocks();
  ASSERT_TRUE(io::fill_canonical(fleet, 0, n, kSeed).ok());

  ASSERT_TRUE(fleet.fail_disk(1, 3).ok());
  ASSERT_TRUE(fleet.replace_disk(1, 3).ok());
  auto outcome = fleet.rebuild(1);
  ASSERT_TRUE(outcome.ok()) << outcome.status().to_string();
  EXPECT_GT(outcome.value().applied, 0u);
  EXPECT_TRUE(fleet.healthy());

  std::vector<std::uint8_t> buf(kBlockBytes), expected(kBlockBytes);
  for (std::uint64_t block = 0; block < n; ++block) {
    ASSERT_TRUE(fleet.read(block, buf).ok());
    io::canonical_fill(block, kSeed, expected);
    ASSERT_EQ(buf, expected) << "block " << block;
  }

  // Every governed pass reserved bytes for shard 1 and refunded the
  // over-estimate; untouched shards were never charged.
  const GovernorStats charged = fleet.governor().shard_stats(1);
  EXPECT_GT(charged.grants, 0u);
  EXPECT_GT(charged.granted_bytes, 0u);
  EXPECT_GT(charged.refunded_bytes, 0u);  // final empty pass refunds fully
  EXPECT_EQ(fleet.governor().shard_stats(0).granted_bytes, 0u);
  EXPECT_EQ(fleet.governor().shard_stats(2).granted_bytes, 0u);
}

TEST(Fleet, RebuildSomeValidatesShard) {
  Fleet fleet = make_fleet();
  EXPECT_EQ(fleet.rebuild_some(99, 1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fleet.fail_disk(99, 0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(fleet.replace_disk(99, 0).code(), StatusCode::kInvalidArgument);
}

TEST(Governor, PolicyNamesRoundTrip) {
  for (const GovernorPolicy policy :
       {GovernorPolicy::kFifo, GovernorPolicy::kFairShare,
        GovernorPolicy::kForegroundProtecting}) {
    auto parsed = governor_policy_from_name(governor_policy_name(policy));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), policy);
  }
  EXPECT_EQ(governor_policy_from_name("round-robin").status().code(),
            StatusCode::kParseError);
}

TEST(Governor, CreateValidation) {
  GovernorOptions options;
  options.policy = GovernorPolicy::kForegroundProtecting;
  options.protected_bytes_per_sec = 0;
  EXPECT_EQ(RebuildGovernor::create(options).status().code(),
            StatusCode::kInvalidArgument);
  options.protected_bytes_per_sec = 1;
  EXPECT_TRUE(RebuildGovernor::create(options).ok());
}

TEST(Governor, UnlimitedGrantsNeverWait) {
  auto governor = RebuildGovernor::create({});  // fifo, unlimited
  ASSERT_TRUE(governor.ok());
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(governor.value().acquire(0, 64 * 1024 * 1024), 0u);
  const GovernorStats stats = governor.value().stats();
  EXPECT_EQ(stats.grants, 4u);
  EXPECT_EQ(stats.waits, 0u);
}

TEST(Governor, RateLimitedGrantsWaitForRefill) {
  GovernorOptions options;
  options.rebuild_bytes_per_sec = 10.0 * 1024 * 1024;
  options.burst_bytes = 64 * 1024;
  auto governor = RebuildGovernor::create(options);
  ASSERT_TRUE(governor.ok());
  // Debt model: the first grant drains the burst, the second still
  // passes (a non-negative bucket grants and goes into debt), and the
  // THIRD must wait for the 64 KiB debt to refill (~6 ms at 10 MiB/s).
  EXPECT_EQ(governor.value().acquire(0, 64 * 1024), 0u);
  EXPECT_EQ(governor.value().acquire(0, 64 * 1024), 0u);
  const std::uint64_t blocked = governor.value().acquire(0, 64 * 1024);
  EXPECT_GT(blocked, 0u);
  const GovernorStats stats = governor.value().stats();
  EXPECT_EQ(stats.grants, 3u);
  EXPECT_EQ(stats.waits, 1u);
  EXPECT_GT(stats.wait_us, 0u);
  EXPECT_EQ(stats.granted_bytes, 3u * 64 * 1024);
}

TEST(Governor, RefundTopsTheBucketBack) {
  GovernorOptions options;
  options.rebuild_bytes_per_sec = 1024;  // glacial: refill is negligible
  options.burst_bytes = 64 * 1024;
  auto governor = RebuildGovernor::create(options);
  ASSERT_TRUE(governor.ok());
  EXPECT_EQ(governor.value().acquire(0, 64 * 1024), 0u);
  // The bucket is empty; an immediate refund makes the next grant free.
  governor.value().refund(0, 64 * 1024);
  EXPECT_EQ(governor.value().acquire(0, 64 * 1024), 0u);
  EXPECT_EQ(governor.value().stats().refunded_bytes, 64u * 1024);
}

TEST(Governor, ForegroundWindowGatesTheProtectedRate) {
  GovernorOptions options;
  options.policy = GovernorPolicy::kForegroundProtecting;
  options.protected_bytes_per_sec = 1024.0 * 1024;
  options.foreground_window_us = 100000;
  options.burst_bytes = 4 * 1024;
  auto governor = RebuildGovernor::create(options);
  ASSERT_TRUE(governor.ok());

  EXPECT_FALSE(governor.value().foreground_active());
  // Idle fleet: unlimited rate, the burst covers the grant for free.
  EXPECT_EQ(governor.value().acquire(0, 4096), 0u);

  governor.value().note_foreground(4096);
  EXPECT_TRUE(governor.value().foreground_active());
  // Debt model: the empty-but-not-negative bucket still grants once
  // (charged at the protected rate), and the NEXT grant pays off the
  // 8 KiB debt at the 1 MiB/s floor (~8 ms).
  EXPECT_EQ(governor.value().acquire(0, 8192), 0u);
  const std::uint64_t blocked = governor.value().acquire(0, 8192);
  EXPECT_GT(blocked, 0u);
  EXPECT_GT(governor.value().stats().throttled_grants, 0u);
  EXPECT_EQ(governor.value().stats().foreground_bytes, 4096u);

  // The window expires once foreground traffic goes quiet.
  std::this_thread::sleep_for(std::chrono::milliseconds(110));
  EXPECT_FALSE(governor.value().foreground_active());
}

TEST(Governor, FairShareTracksPerShardGrants) {
  GovernorOptions options;
  options.policy = GovernorPolicy::kFairShare;
  auto governor = RebuildGovernor::create(options);
  ASSERT_TRUE(governor.ok());
  governor.value().acquire(0, 1000);
  governor.value().acquire(1, 2000);
  governor.value().acquire(0, 3000);
  EXPECT_EQ(governor.value().shard_stats(0).granted_bytes, 4000u);
  EXPECT_EQ(governor.value().shard_stats(1).granted_bytes, 2000u);
  EXPECT_EQ(governor.value().stats().granted_bytes, 6000u);
  EXPECT_EQ(governor.value().shard_stats(7).grants, 0u);  // never seen
}

TEST(Fleet, SerializationRoundTripsTheShardMap) {
  Fleet fleet = make_fleet();
  const std::string text = fleet.serialize();
  auto reopened = Fleet::deserialize(text);
  ASSERT_TRUE(reopened.ok()) << reopened.status().to_string();

  EXPECT_EQ(reopened.value().num_shards(), fleet.num_shards());
  EXPECT_EQ(reopened.value().num_blocks(), fleet.num_blocks());
  EXPECT_EQ(reopened.value().block_bytes(), fleet.block_bytes());
  const auto a = fleet.extents();
  const auto b = reopened.value().extents();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].first, b[i].first);
    EXPECT_EQ(a[i].count, b[i].count);
    EXPECT_EQ(a[i].shard, b[i].shard);
    EXPECT_EQ(a[i].base, b[i].base);
  }
  for (std::uint32_t s = 0; s < fleet.num_shards(); ++s) {
    EXPECT_EQ(reopened.value().shard(s).array().codec_kind(),
              fleet.shard(s).array().codec_kind());
    EXPECT_EQ(reopened.value().shard(s).num_logical_units(),
              fleet.shard(s).num_logical_units());
  }

  // The reopened fleet (fresh memory backends) serves its space.
  std::vector<std::uint8_t> buf(kBlockBytes);
  ASSERT_TRUE(reopened.value().write(0, buf).ok());
  ASSERT_TRUE(reopened.value().read(fleet.num_blocks() - 1, buf).ok());

  EXPECT_EQ(Fleet::deserialize("not a fleet").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(Fleet::deserialize("pdl-fleet v1\nblock-bytes 0\n")
                .status()
                .code(),
            StatusCode::kParseError);
}

TEST(Fleet, DeserializeRejectsMalformedExtents) {
  Fleet fleet = make_fleet();
  const std::string text = fleet.serialize();

  // Split the serialized text into lines, locate the extents section
  // (searching from the end -- embedded array headers are opaque), and
  // parse the extent quadruples so each variant below can mutate them.
  std::vector<std::string> lines;
  {
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  std::size_t extents_at = lines.size();
  for (std::size_t i = lines.size(); i-- > 0;)
    if (lines[i].rfind("extents ", 0) == 0) {
      extents_at = i;
      break;
    }
  ASSERT_LT(extents_at, lines.size());
  using Quad = std::array<std::uint64_t, 4>;  // first count shard base
  std::vector<Quad> extents;
  for (std::size_t i = extents_at + 1; i < lines.size(); ++i) {
    if (lines[i].rfind("extent ", 0) != 0) break;
    std::istringstream in(lines[i]);
    std::string word;
    Quad q{};
    ASSERT_TRUE(static_cast<bool>(in >> word >> q[0] >> q[1] >> q[2] >> q[3]));
    extents.push_back(q);
  }
  ASSERT_GE(extents.size(), 3u);

  const auto rebuild = [&](const std::vector<Quad>& es) {
    std::string out;
    for (std::size_t i = 0; i < extents_at; ++i) out += lines[i] + "\n";
    out += "extents " + std::to_string(es.size()) + "\n";
    for (const Quad& q : es)
      out += "extent " + std::to_string(q[0]) + " " + std::to_string(q[1]) +
             " " + std::to_string(q[2]) + " " + std::to_string(q[3]) + "\n";
    out += "end pdl-fleet\n";
    return out;
  };

  // The reassembled, unmutated text must still parse (pins the helper).
  ASSERT_TRUE(Fleet::deserialize(rebuild(extents)).ok());

  const auto expect_rejected = [&](std::vector<Quad> es, const char* what) {
    const auto result = Fleet::deserialize(rebuild(es));
    ASSERT_FALSE(result.ok()) << what;
    EXPECT_EQ(result.status().code(), StatusCode::kParseError) << what;
  };

  {  // An extent covering zero blocks is meaningless.
    auto es = extents;
    es[0][1] = 0;
    expect_rejected(es, "zero-count extent");
  }
  {  // A hole in the block space: extent 1 starts one block late.
    auto es = extents;
    es[1][0] += 1;
    expect_rejected(es, "gap in block space");
  }
  {  // Block-space overlap: extent 1 starts one block early.
    auto es = extents;
    es[1][0] -= 1;
    expect_rejected(es, "overlap in block space");
  }
  {  // Shard-local aliasing: two block ranges backed by the SAME unit
    // of shard 0 -- contiguous in block space, so only the per-shard
    // overlap check can catch it.
    const std::vector<Quad> es = {{0, 1, 0, 0}, {1, 1, 0, 0}};
    expect_rejected(es, "shard-local unit aliasing");
  }
}

TEST(Fleet, SaveLoadRoundTripsThroughAFile) {
  Fleet fleet = make_fleet();
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("pdl_fleet_" + std::to_string(::getpid()) + ".txt"))
          .string();
  ASSERT_TRUE(fleet.save(path).ok());
  auto reopened = Fleet::load(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().to_string();
  EXPECT_EQ(reopened.value().num_blocks(), fleet.num_blocks());
  std::filesystem::remove(path);

  EXPECT_EQ(Fleet::load("/nonexistent/fleet.txt").status().code(),
            StatusCode::kIoError);
}

TEST(FleetWorkload, CanonicalContentVerifiesThroughTheFleet) {
  Fleet fleet = make_fleet();
  ASSERT_TRUE(io::fill_canonical(fleet, 0, fleet.num_blocks(), 42).ok());

  io::WorkloadOptions options;
  options.num_threads = 2;
  options.ops_per_thread = 1500;
  options.read_fraction = 0.6;
  options.pattern = io::AccessPattern::kZipfian;
  options.seed = 42;
  options.verify_reads = true;
  io::WorkloadDriver driver(fleet, options);
  const io::WorkloadStats stats = driver.run();

  EXPECT_EQ(stats.reads + stats.writes + stats.errors + stats.data_loss_ops,
            2u * 1500u);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.verify_failures, 0u);
  EXPECT_GT(stats.reads, 0u);
  EXPECT_GT(stats.writes, 0u);
  EXPECT_GT(stats.bytes_moved, 0u);
  // The serving path reported its traffic to the governor.
  EXPECT_GT(fleet.governor().stats().foreground_bytes, 0u);
}

}  // namespace
}  // namespace pdl::fleet
