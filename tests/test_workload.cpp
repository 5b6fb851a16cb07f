#include "sim/workload.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "api/array.hpp"
#include "fleet/fleet.hpp"
#include "io/async_backend.hpp"
#include "io/disk_backend.hpp"
#include "io/workload_driver.hpp"

namespace pdl::sim {
namespace {

TEST(Workload, DeterministicInSeed) {
  const WorkloadConfig config{.arrival_per_ms = 0.5,
                              .write_fraction = 0.3,
                              .working_set = 1000,
                              .duration_ms = 1000.0,
                              .seed = 7};
  const auto a = generate_workload(config);
  const auto b = generate_workload(config);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].arrival_ms, b[i].arrival_ms);
    EXPECT_EQ(a[i].logical, b[i].logical);
    EXPECT_EQ(a[i].is_write, b[i].is_write);
  }
  // A different seed gives a different stream.
  auto config2 = config;
  config2.seed = 8;
  const auto c = generate_workload(config2);
  EXPECT_NE(a.size() == c.size() && a[0].logical == c[0].logical, true);
}

TEST(Workload, ArrivalsSortedAndWithinHorizon) {
  const WorkloadConfig config{.arrival_per_ms = 1.0,
                              .write_fraction = 0.5,
                              .working_set = 100,
                              .duration_ms = 500.0,
                              .seed = 1};
  const auto requests = generate_workload(config);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_LT(requests[i].arrival_ms, 500.0);
    EXPECT_LT(requests[i].logical, 100u);
    if (i > 0) {
      EXPECT_GE(requests[i].arrival_ms, requests[i - 1].arrival_ms);
    }
  }
}

TEST(Workload, RateApproximatelyPoisson) {
  const WorkloadConfig config{.arrival_per_ms = 0.2,
                              .write_fraction = 0.5,
                              .working_set = 10,
                              .duration_ms = 100'000.0,
                              .seed = 3};
  const auto requests = generate_workload(config);
  const double expected = 0.2 * 100'000.0;
  EXPECT_NEAR(static_cast<double>(requests.size()), expected,
              5 * std::sqrt(expected));
}

TEST(Workload, WriteFractionRespected) {
  const WorkloadConfig config{.arrival_per_ms = 0.5,
                              .write_fraction = 0.25,
                              .working_set = 10,
                              .duration_ms = 50'000.0,
                              .seed = 4};
  const auto requests = generate_workload(config);
  std::size_t writes = 0;
  for (const auto& r : requests) writes += r.is_write;
  const double fraction = static_cast<double>(writes) / requests.size();
  EXPECT_NEAR(fraction, 0.25, 0.02);
}

TEST(Workload, AllReadsAllWritesExtremes) {
  WorkloadConfig config{.arrival_per_ms = 0.5,
                        .write_fraction = 0.0,
                        .working_set = 10,
                        .duration_ms = 1000.0,
                        .seed = 5};
  for (const auto& r : generate_workload(config)) EXPECT_FALSE(r.is_write);
  config.write_fraction = 1.0;
  for (const auto& r : generate_workload(config)) EXPECT_TRUE(r.is_write);
}

TEST(Workload, InvalidConfigRejected) {
  WorkloadConfig config;
  config.working_set = 0;
  EXPECT_THROW(generate_workload(config), std::invalid_argument);
  config.working_set = 10;
  config.arrival_per_ms = 0.0;
  EXPECT_THROW(generate_workload(config), std::invalid_argument);
}

}  // namespace
}  // namespace pdl::sim

// Latency quantiles of the I/O workload driver's stats.  The convention
// is pinned to nearest-rank: rank = clamp(ceil(p * n), 1, n), so p99
// over 100 samples is the 99th order statistic (not the 100th, as a
// floor(p * (n - 1)) index would give), p = 0 is the minimum, and p = 1
// is the maximum.
namespace pdl::io {
namespace {

/// Stats whose read latencies are exactly `samples` (shuffled order
/// must not matter -- the quantile sorts internally).
WorkloadStats stats_with(std::vector<std::uint32_t> samples) {
  WorkloadStats stats;
  stats.read_latency_ns = samples;
  // Mirror into the write vector reversed: both accessors share the
  // nearest-rank helper and must agree on every pin below.
  stats.write_latency_ns.assign(samples.rbegin(), samples.rend());
  return stats;
}

TEST(WorkloadQuantile, EmptyAndSingleSample) {
  const WorkloadStats empty;
  EXPECT_EQ(empty.read_latency_quantile_ns(0.0), 0u);
  EXPECT_EQ(empty.read_latency_quantile_ns(0.99), 0u);
  EXPECT_EQ(empty.write_latency_quantile_ns(1.0), 0u);

  const WorkloadStats one = stats_with({7});
  for (const double p : {0.0, 0.01, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(one.read_latency_quantile_ns(p), 7u) << "p=" << p;
    EXPECT_EQ(one.write_latency_quantile_ns(p), 7u) << "p=" << p;
  }
}

TEST(WorkloadQuantile, NearestRankPins) {
  // 1..100 shuffled-ish: nearest-rank makes every pin exact.
  std::vector<std::uint32_t> samples;
  for (std::uint32_t v = 100; v >= 1; --v) samples.push_back(v);
  const WorkloadStats stats = stats_with(samples);

  EXPECT_EQ(stats.read_latency_quantile_ns(0.0), 1u);    // min
  EXPECT_EQ(stats.read_latency_quantile_ns(0.01), 1u);   // ceil(1) = 1st
  EXPECT_EQ(stats.read_latency_quantile_ns(0.50), 50u);  // ceil(50) = 50th
  EXPECT_EQ(stats.read_latency_quantile_ns(0.99), 99u);  // 99th, NOT 100th
  EXPECT_EQ(stats.read_latency_quantile_ns(0.995), 100u);  // ceil(99.5)
  EXPECT_EQ(stats.read_latency_quantile_ns(1.0), 100u);  // max
  EXPECT_EQ(stats.write_latency_quantile_ns(0.99), 99u);
}

TEST(WorkloadQuantile, FractionalRanksRoundUpAndClampOutOfRange) {
  const WorkloadStats three = stats_with({10, 20, 30});
  EXPECT_EQ(three.read_latency_quantile_ns(0.33), 10u);  // ceil(0.99) = 1st
  EXPECT_EQ(three.read_latency_quantile_ns(0.34), 20u);  // ceil(1.02) = 2nd
  EXPECT_EQ(three.read_latency_quantile_ns(0.67), 30u);  // ceil(2.01) = 3rd
  // Out-of-range p clamps rather than indexing out of bounds.
  EXPECT_EQ(three.read_latency_quantile_ns(-0.5), 10u);
  EXPECT_EQ(three.read_latency_quantile_ns(2.0), 30u);
}

// A sample is whole nanoseconds clamped into its 32-bit type: an op past
// 2^32 ns (about 4.29 s) reads as the maximum, never as the small value
// a plain cast would wrap it to.
TEST(WorkloadQuantile, LatencySampleClampsInsteadOfWrapping) {
  using std::chrono::nanoseconds;
  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  EXPECT_EQ(latency_sample_ns(nanoseconds{0}), 0u);
  EXPECT_EQ(latency_sample_ns(nanoseconds{1234}), 1234u);
  EXPECT_EQ(latency_sample_ns(nanoseconds{kMax}), kMax);
  EXPECT_EQ(latency_sample_ns(nanoseconds{std::int64_t{kMax} + 1}), kMax);
  EXPECT_EQ(latency_sample_ns(std::chrono::seconds{5}), kMax);
  EXPECT_EQ(latency_sample_ns(std::chrono::hours{24 * 365}), kMax);
  EXPECT_EQ(latency_sample_ns(nanoseconds{-5}), 0u);
}

// The zipfian harmonic normalizer is computed ONCE per (n, theta) by the
// shared io::zipf_zetan helper.  Regression: the cached value is exactly
// the direct harmonic sum, every call is bitwise-identical, and a
// fixed-seed single-threaded zipfian run is deterministic end to end --
// on a store and on a one-shard fleet of the same array alike.
TEST(ZipfZetan, CachedValueMatchesDirectSumBitwise) {
  constexpr std::uint64_t kN = 4096;
  constexpr double kTheta = 0.99;
  double direct = 0;
  for (std::uint64_t i = 1; i <= kN; ++i)
    direct += 1.0 / std::pow(static_cast<double>(i), kTheta);
  const double first = zipf_zetan(kN, kTheta);
  const double second = zipf_zetan(kN, kTheta);  // cache hit
  EXPECT_EQ(first, direct);   // same summation order: bitwise equal
  EXPECT_EQ(first, second);   // the cache returns the identical value
  EXPECT_NE(zipf_zetan(kN, 0.5), first);
  EXPECT_NE(zipf_zetan(kN / 2, kTheta), first);
}

TEST(ZipfZetan, FixedSeedZipfianRunIsDeterministic) {
  const auto make_array = [] {
    auto array = api::Array::create({13, 4}, {}, {});
    EXPECT_TRUE(array.ok());
    return std::move(array).value();
  };
  auto a = StripeStore::create(make_array(), {.unit_bytes = 64});
  auto b = StripeStore::create(make_array(), {.unit_bytes = 64});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const WorkloadOptions options{.num_threads = 1,
                                .ops_per_thread = 2000,
                                .read_fraction = 0.5,
                                .pattern = AccessPattern::kZipfian,
                                .seed = 42};
  const WorkloadStats sa = WorkloadDriver(*a, options).run();
  EXPECT_EQ(sa.errors, 0u);
  const auto sums_a = a->checksum_disks();
  ASSERT_TRUE(sums_a.ok());
  // Identical op streams give identical tallies and leave identical
  // media behind.
  const auto expect_same_as_a = [&](const WorkloadStats& stats,
                                    const StripeStore& store) {
    EXPECT_EQ(stats.reads, sa.reads);
    EXPECT_EQ(stats.writes, sa.writes);
    EXPECT_EQ(stats.rmw_writes, sa.rmw_writes);
    EXPECT_EQ(stats.bytes_moved, sa.bytes_moved);
    EXPECT_EQ(stats.errors, 0u);
    const auto sums = store.checksum_disks();
    ASSERT_TRUE(sums.ok());
    EXPECT_EQ(*sums, *sums_a);
  };
  expect_same_as_a(WorkloadDriver(*b, options).run(), *b);

  // The same WorkloadDriver run over a one-shard fleet of the same
  // array, served synchronously and then asynchronously (reads batched
  // through Fleet::read_batch).
  for (const bool async : {false, true}) {
    std::unique_ptr<DiskBackend> backend = make_memory_backend();
    if (async) backend = make_async_backend(std::move(backend));
    std::vector<fleet::ShardSpec> shards;
    shards.push_back({.array = make_array(), .backend = std::move(backend)});
    auto fleet = fleet::Fleet::create(std::move(shards), {.block_bytes = 64});
    ASSERT_TRUE(fleet.ok()) << fleet.status().to_string();
    const WorkloadStats stats = WorkloadDriver(*fleet, options).run();
    expect_same_as_a(stats, fleet->shard(0));
    EXPECT_EQ(stats.read_batches > 0, async);
  }
}

}  // namespace
}  // namespace pdl::io
