// The workload-aware hot-stripe cache layer (io::StripeCache wired into
// io::StripeStore): hotness tracking, the hot-unit read cache, and
// parity-delta batching.  The suite pins:
//
//   * DIFFERENTIAL: a cached store driven by a skewed read/write stream
//     serves byte-identical results to an uncached twin driven by the
//     SAME stream -- across memory/file x sync/async x xor/rs -- and
//     after flush_cache() both media images are checksum-identical
//     (the delta-fold-equals-immediate-RMW oracle: linearity over the
//     codec's field makes the folded parity exactly what per-op RMW
//     would have written);
//   * read-your-writes through the dirty-delta table: a read of an
//     absorbed (not yet folded) unit returns the pinned NEW bytes;
//   * invalidate-on-write: a cached payload never survives a write to
//     its logical address;
//   * degraded reads operate through the cache layer (fail_disk folds
//     the dirty table first -- the "dirty implies fully healthy"
//     invariant -- then reconstructed reads stay canonical and hot
//     reconstructed units are served from cache on re-read);
//   * the count-min hotness tracker ranks the true hot set of a seeded
//     zipfian stream in top-k with bounded error, never undercounts,
//     and halving decay is monotone non-increasing;
//   * the sketch is sized from the store's instance count, so uniform
//     traffic reads cold and fills (almost) nothing, while a skewed
//     head still reads hot and hits;
//   * a TSan target racing concurrent readers against writers and
//     explicit flush_cache() sweeps, with and without decay sweeps
//     racing the notes (run under -fsanitize=thread via the ctest
//     filter in .github/workflows/ci.yml).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "api/array.hpp"
#include "io/async_backend.hpp"
#include "io/disk_backend.hpp"
#include "io/stripe_cache.hpp"
#include "io/stripe_store.hpp"
#include "io/workload_driver.hpp"
#include "scratch_dir.hpp"

namespace pdl::io {
namespace {

constexpr std::uint32_t kV = 17;
constexpr std::uint32_t kK = 5;
constexpr std::uint32_t kUnitBytes = 64;
constexpr std::uint32_t kIterations = 2;
constexpr std::uint64_t kSeed = 0xCA5E;

/// Aggressive knobs so a short test stream exercises every path: almost
/// everything is hot, folds trigger after few absorbed units, and no
/// time trigger fires behind the test's back (flush points are explicit).
StripeCacheOptions test_cache_options() {
  StripeCacheOptions cache;
  cache.enabled = true;
  cache.read_cache_bytes = 1u << 20;
  cache.cache_shards = 4;
  cache.hot_threshold = 2;
  cache.decay_interval = 0;  // no decay: deterministic hotness
  cache.max_dirty_instances = 32;
  cache.max_dirty_units = 4;
  cache.flush_interval_us = 0;  // no time trigger
  return cache;
}

enum class BackendKind { kMemory, kFile };

struct Case {
  BackendKind backend = BackendKind::kMemory;
  bool async = false;
  core::CodecKind codec = core::CodecKind::kXorParity;
};

std::string describe(const Case& c) {
  std::string text = c.backend == BackendKind::kFile ? "file" : "memory";
  text += c.async ? "/async" : "/sync";
  text += "/";
  text += core::codec_kind_name(c.codec);
  return text;
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (const BackendKind backend : {BackendKind::kMemory, BackendKind::kFile})
    for (const bool async : {false, true})
      for (const core::CodecKind codec :
           {core::CodecKind::kXorParity, core::CodecKind::kReedSolomonPQ})
        cases.push_back({backend, async, codec});
  return cases;
}

/// Where file-backed cases keep their disk images: one directory for the
/// whole test binary, removed when it exits.
const std::filesystem::path& file_case_root() {
  static const tests::ScratchDir root("pdl_stripe_cache");
  return root.path();
}

std::unique_ptr<DiskBackend> make_case_backend(const Case& c,
                                               const std::string& tag) {
  std::unique_ptr<DiskBackend> base;
  if (c.backend == BackendKind::kFile) {
    std::string name = tag + "_" + describe(c);
    std::replace(name.begin(), name.end(), '/', '_');
    base = make_file_backend({.directory = (file_case_root() / name).string()});
  } else {
    base = make_memory_backend();
  }
  if (c.async) return make_async_backend(std::move(base));
  return base;
}

Result<StripeStore> make_store(
    const Case& c, const std::string& tag, bool cached,
    const StripeCacheOptions& cache_options = test_cache_options()) {
  auto array = api::Array::create({kV, kK}, {},
                                  {.codec = c.codec, .integrity = true});
  EXPECT_TRUE(array.ok()) << array.status().to_string();
  if (!array.ok()) return array.status();
  StripeStoreOptions options{.unit_bytes = kUnitBytes,
                             .iterations = kIterations};
  if (cached) options.cache = cache_options;
  return StripeStore::create(std::move(array).value(), options,
                             make_case_backend(c, tag + (cached ? "_c" : "_u")));
}

/// The expected bytes of `logical` after its `version`-th write.
void versioned_fill(std::uint64_t logical, std::uint64_t version,
                    std::span<std::uint8_t> out) {
  canonical_fill(logical ^ (version * 0x9E3779B97F4A7C15ull), kSeed, out);
}

/// Drives one deterministic skewed stream against `store`, verifying
/// every read against the tracked per-unit version -- which pins
/// read-your-writes through the dirty table (absorbed units) and the
/// read cache alike.  The identical stream lands on every store this is
/// called with, so two stores driven by it must converge byte-identical.
void drive_stream(StripeStore& store, std::uint32_t ops,
                  std::vector<std::uint64_t>& version) {
  const std::uint64_t n = store.num_logical_units();
  const std::uint64_t hot_span = std::max<std::uint64_t>(n / 16, 1);
  std::mt19937_64 rng(kSeed);
  std::vector<std::uint8_t> buffer(kUnitBytes);
  std::vector<std::uint8_t> expected(kUnitBytes);
  for (std::uint32_t op = 0; op < ops; ++op) {
    // 3/4 of traffic lands on the first n/16 units: a hot set the
    // tracker must catch, with a uniform cold tail.
    const std::uint64_t logical = (rng() % 4 != 0) ? rng() % hot_span
                                                   : rng() % n;
    if (rng() % 2 == 0) {
      versioned_fill(logical, ++version[logical], buffer);
      ASSERT_TRUE(store.write(logical, buffer).ok()) << "op " << op;
    } else {
      ASSERT_TRUE(store.read(logical, buffer).ok()) << "op " << op;
      versioned_fill(logical, version[logical], expected);
      ASSERT_EQ(buffer, expected)
          << "op " << op << " logical " << logical << " stale bytes";
    }
  }
}

void expect_all_versioned(StripeStore& store,
                          const std::vector<std::uint64_t>& version) {
  std::vector<std::uint8_t> buffer(kUnitBytes);
  std::vector<std::uint8_t> expected(kUnitBytes);
  for (std::uint64_t logical = 0; logical < store.num_logical_units();
       ++logical) {
    ASSERT_TRUE(store.read(logical, buffer).ok()) << "logical " << logical;
    versioned_fill(logical, version[logical], expected);
    ASSERT_EQ(buffer, expected) << "logical " << logical;
  }
}

// ------------------------------------------------- differential suite

TEST(StripeCacheDifferential, CachedMatchesUncachedAcrossMatrix) {
  for (const Case& c : all_cases()) {
    SCOPED_TRACE(describe(c));
    auto cached = make_store(c, "diff", true);
    auto uncached = make_store(c, "diff", false);
    ASSERT_TRUE(cached.ok()) << cached.status().to_string();
    ASSERT_TRUE(uncached.ok()) << uncached.status().to_string();
    ASSERT_TRUE(cached->cache_enabled());
    ASSERT_FALSE(uncached->cache_enabled());

    const std::uint64_t n = cached->num_logical_units();
    ASSERT_TRUE(fill_canonical(*cached, 0, n, kSeed).ok());
    ASSERT_TRUE(fill_canonical(*uncached, 0, n, kSeed).ok());

    std::vector<std::uint64_t> version_c(n, 0);
    std::vector<std::uint64_t> version_u(n, 0);
    drive_stream(*cached, 3000, version_c);
    drive_stream(*uncached, 3000, version_u);
    ASSERT_EQ(version_c, version_u);  // identical stream by construction

    // The cache layer must actually have been on the field: the skewed
    // stream makes units hot, hot reads hit, hot RMWs absorb and fold.
    const HotnessStats stats = cached->hotness_stats();
    EXPECT_GT(stats.hits, 0u) << describe(c);
    EXPECT_GT(stats.fills, 0u) << describe(c);
    EXPECT_GT(stats.absorbed_writes, 0u) << describe(c);
    EXPECT_GT(stats.folds, 0u) << describe(c);
    EXPECT_GT(stats.hit_rate(), 0.0) << describe(c);

    // Every logical byte identical through the read path...
    expect_all_versioned(*cached, version_c);
    expect_all_versioned(*uncached, version_u);

    // ...and, after folding the dirty table, the MEDIA images are
    // checksum-identical: the fold wrote exactly the parity per-op RMW
    // would have (the delta-fold oracle), and both parity audits agree.
    ASSERT_TRUE(cached->flush_cache().ok());
    EXPECT_EQ(cached->hotness_stats().dirty_instances, 0u);
    const auto sweep_c = cached->verify_stripes();
    const auto sweep_u = uncached->verify_stripes();
    ASSERT_TRUE(sweep_c.ok());
    ASSERT_TRUE(sweep_u.ok());
    EXPECT_EQ(*sweep_c, 0u);
    EXPECT_EQ(*sweep_u, 0u);
    const auto sums_c = cached->checksum_disks();
    const auto sums_u = uncached->checksum_disks();
    ASSERT_TRUE(sums_c.ok());
    ASSERT_TRUE(sums_u.ok());
    EXPECT_EQ(*sums_c, *sums_u) << describe(c);
  }
}

// ------------------------------------------------ focused invariants

TEST(StripeCache, ReadYourWritesThroughDirtyTable) {
  Case c;  // memory/sync/xor
  auto store = make_store(c, "ryw", true);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(
      fill_canonical(*store, 0, store->num_logical_units(), kSeed).ok());
  // The seed fill itself made instances hot and absorbed writes; start
  // the scenario from a clean (all-folded) table.
  ASSERT_TRUE(store->flush_cache().ok());

  // Make logical 0's instance hot, then write it: the write absorbs
  // into the dirty table (no fold yet -- max_dirty_units is 4).
  std::vector<std::uint8_t> buffer(kUnitBytes);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(store->read(0, buffer).ok());
  std::vector<std::uint8_t> fresh(kUnitBytes, 0xAB);
  ASSERT_TRUE(store->write(0, fresh).ok());
  ASSERT_GT(store->hotness_stats().absorbed_writes, 0u);
  ASSERT_GT(store->hotness_stats().dirty_instances, 0u);

  // The read serves the PINNED bytes, not the stale media image.
  ASSERT_TRUE(store->read(0, buffer).ok());
  EXPECT_EQ(buffer, fresh);

  // And read_batch agrees with read.
  const std::uint64_t logicals[1] = {0};
  Status statuses[1];
  ASSERT_TRUE(store->read_batch(logicals, buffer, statuses).ok());
  EXPECT_EQ(buffer, fresh);

  ASSERT_TRUE(store->flush_cache().ok());
  EXPECT_EQ(store->hotness_stats().dirty_instances, 0u);
  ASSERT_TRUE(store->read(0, buffer).ok());
  EXPECT_EQ(buffer, fresh);  // folded bytes landed on media
}

TEST(StripeCache, InvalidateOnWrite) {
  Case c;
  auto store = make_store(c, "inv", true);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(
      fill_canonical(*store, 0, store->num_logical_units(), kSeed).ok());
  // Fold the seed fill's absorbed writes so the reads below are served
  // by the LRU cache, not the dirty-table pin.
  ASSERT_TRUE(store->flush_cache().ok());

  std::vector<std::uint8_t> buffer(kUnitBytes);
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(store->read(7, buffer).ok());
  const std::uint64_t hits_before = store->hotness_stats().hits;
  ASSERT_TRUE(store->read(7, buffer).ok());
  ASSERT_GT(store->hotness_stats().hits, hits_before)
      << "a hot re-read must be served from cache";

  std::vector<std::uint8_t> fresh(kUnitBytes, 0x5C);
  ASSERT_TRUE(store->write(7, fresh).ok());
  EXPECT_GT(store->hotness_stats().invalidations, 0u);
  ASSERT_TRUE(store->read(7, buffer).ok());
  EXPECT_EQ(buffer, fresh) << "stale cached payload served after a write";
}

TEST(StripeCache, DegradedReadsThroughCacheAndFailDiskFoldsFirst) {
  for (const core::CodecKind codec :
       {core::CodecKind::kXorParity, core::CodecKind::kReedSolomonPQ}) {
    Case c;
    c.codec = codec;
    SCOPED_TRACE(describe(c));
    auto store = make_store(c, "deg", true);
    ASSERT_TRUE(store.ok());
    const std::uint64_t n = store->num_logical_units();
    ASSERT_TRUE(fill_canonical(*store, 0, n, kSeed).ok());

    // Dirty up some hot instances, then fail a disk: fail_disk must
    // fold the table first (dirty entries only ever cover fully
    // healthy stripes), leaving media consistent for reconstruction.
    std::vector<std::uint64_t> version(n, 0);
    drive_stream(*store, 800, version);
    ASSERT_TRUE(store->fail_disk(3).ok());
    EXPECT_EQ(store->hotness_stats().dirty_instances, 0u);

    // Every read -- direct or reconstructed -- still serves the
    // version the stream left behind, through the cache layer.
    expect_all_versioned(*store, version);

    // A hot degraded unit's reconstruction is served from cache on
    // re-read: find a lost unit, read it repeatedly, expect hits.
    ReadReceipt receipt;
    std::vector<std::uint8_t> buffer(kUnitBytes);
    std::uint64_t lost = n;
    for (std::uint64_t logical = 0; logical < n; ++logical) {
      ASSERT_TRUE(store->read(logical, buffer, &receipt).ok());
      if (receipt.kind == api::ReadPlan::Kind::kDegraded) {
        lost = logical;
        break;
      }
    }
    ASSERT_LT(lost, n) << "a failed disk must degrade some unit";
    for (int i = 0; i < 6; ++i) ASSERT_TRUE(store->read(lost, buffer).ok());
    const std::uint64_t hits_before = store->hotness_stats().hits;
    ASSERT_TRUE(store->read(lost, buffer, &receipt).ok());
    EXPECT_GT(store->hotness_stats().hits, hits_before);
    EXPECT_EQ(receipt.num_touched, 0u)
        << "a cache hit does no physical I/O";

    // Writes during degradation bypass absorption (the stripe is no
    // longer fully healthy) yet stay correct and uncached-coherent.
    std::vector<std::uint8_t> fresh(kUnitBytes, 0xD6);
    ASSERT_TRUE(store->write(lost, fresh).ok());
    ASSERT_TRUE(store->read(lost, buffer).ok());
    EXPECT_EQ(buffer, fresh);
    EXPECT_EQ(store->hotness_stats().dirty_instances, 0u);

    // Recovery path still lands checksum-clean.
    ASSERT_TRUE(store->replace_disk(3).ok());
    const auto outcome = store->rebuild();
    ASSERT_TRUE(outcome.ok());
    const auto sweep = store->verify_stripes();
    ASSERT_TRUE(sweep.ok());
    EXPECT_EQ(*sweep, 0u);
  }
}

// ------------------------------------------------- hotness properties

TEST(StripeCacheHotness, ZipfianStreamRanksTrueHotSetTopK) {
  // A seeded zipfian-by-construction stream: instance i drawn with
  // weight 1/(i+1).  The true top-k is 0..k-1 by construction.
  constexpr std::uint64_t kInstances = 512;
  StripeCache cache(test_cache_options(), kUnitBytes, kInstances);
  constexpr int kDraws = 60000;
  std::mt19937_64 rng(kSeed);
  std::vector<double> weights(kInstances);
  for (std::uint64_t i = 0; i < kInstances; ++i)
    weights[i] = 1.0 / static_cast<double>(i + 1);
  std::discrete_distribution<std::uint64_t> draw(weights.begin(),
                                                 weights.end());
  std::vector<std::uint64_t> true_count(kInstances, 0);
  for (int d = 0; d < kDraws; ++d) {
    const std::uint64_t instance = draw(rng);
    ++true_count[instance];
    (void)cache.note(instance);
  }

  // Count-min never undercounts...
  for (std::uint64_t i = 0; i < kInstances; ++i)
    EXPECT_GE(cache.estimate(i), true_count[i]) << "instance " << i;

  // ...and the estimated top-k contains the true top-k with bounded
  // error: at least 6 of the true top-8 make the estimated top-8.
  constexpr std::size_t kTopK = 8;
  std::vector<std::uint64_t> by_estimate(kInstances);
  for (std::uint64_t i = 0; i < kInstances; ++i) by_estimate[i] = i;
  std::sort(by_estimate.begin(), by_estimate.end(),
            [&](std::uint64_t a, std::uint64_t b) {
              return cache.estimate(a) > cache.estimate(b);
            });
  std::size_t overlap = 0;
  for (std::size_t r = 0; r < kTopK; ++r)
    if (by_estimate[r] < kTopK) ++overlap;  // true top-k IS 0..k-1
  EXPECT_GE(overlap, 6u);
}

TEST(StripeCacheHotness, DecayIsMonotoneNonIncreasing) {
  StripeCacheOptions options = test_cache_options();
  options.decay_interval = 256;
  StripeCache cache(options, kUnitBytes, /*num_instances=*/1024);

  for (int i = 0; i < 200; ++i) (void)cache.note(1);
  std::uint32_t previous = cache.estimate(1);
  EXPECT_GE(previous, 200u);

  // Drive decay sweeps with OTHER instances' notes: instance 1's
  // estimate may only fall, halving per sweep, never rise.
  for (int sweep = 0; sweep < 4; ++sweep) {
    for (int i = 0; i < 300; ++i) (void)cache.note(1000 + sweep);
    const std::uint32_t now = cache.estimate(1);
    EXPECT_LE(now, previous) << "sweep " << sweep;
    previous = now;
  }
  EXPECT_GT(cache.stats().decays, 0u);
  EXPECT_LT(previous, 200u) << "decay never landed";
}

// The instance count of pdl_bench's RS workloads and of the store below:
// v=17, k=5 has 68 stripes, tiled 204 times.
constexpr std::uint64_t kBenchInstances = 68 * 204;

TEST(StripeCacheHotness, SketchWidthFollowsInstanceCount) {
  const StripeCacheOptions defaults;
  const auto width = [](const StripeCacheOptions& options,
                        std::uint64_t instances) {
    return StripeCache(options, kUnitBytes, instances).sketch_width();
  };
  // A column per instance, rounded up to a power of two, at least 16...
  EXPECT_EQ(width(defaults, kBenchInstances), 16384u);
  EXPECT_EQ(width(defaults, 136), 256u);
  EXPECT_EQ(width(defaults, 1), 16u);
  // ...capped at decay_interval rounded up, or the fixed ceiling when
  // decay is off.
  EXPECT_EQ(width(defaults, 1'000'000), 16384u);
  StripeCacheOptions options = defaults;
  options.decay_interval = 64;
  EXPECT_EQ(width(options, kBenchInstances), 64u);
  options.decay_interval = 0;
  EXPECT_EQ(width(options, 1'000'000), 1u << 20);
  EXPECT_EQ(width(options, 1ull << 40), 1u << 20);
}

TEST(StripeCacheHotness, UniformTrafficReadsCold) {
  const StripeCacheOptions options;  // the shipped knobs
  StripeCache cache(options, kUnitBytes, kBenchInstances);

  // Uniform notes over every instance for five decay intervals: each
  // counter collects about one note per interval, so hardly any
  // instance's estimate reaches hot_threshold.
  std::mt19937_64 rng(kSeed);
  const std::uint64_t notes = 5 * options.decay_interval;
  for (std::uint64_t n = 0; n < notes; ++n)
    (void)cache.note(rng() % kBenchInstances);
  ASSERT_GE(cache.stats().decays, 4u);
  std::uint64_t hot = 0;
  for (std::uint64_t i = 0; i < kBenchInstances; ++i)
    if (cache.hot(i)) ++hot;
  EXPECT_LE(hot, kBenchInstances / 100)
      << hot << " of " << kBenchInstances << " instances read hot";

  // A seeded zipfian stream over the same instances (weight 1/(i+1), so
  // the true top 8 is 0..7): its head reads hot.
  std::vector<double> weights(kBenchInstances);
  for (std::uint64_t i = 0; i < kBenchInstances; ++i)
    weights[i] = 1.0 / static_cast<double>(i + 1);
  std::discrete_distribution<std::uint64_t> draw(weights.begin(),
                                                 weights.end());
  for (std::uint64_t n = 0; n < notes; ++n) (void)cache.note(draw(rng));
  for (std::uint64_t i = 0; i < 8; ++i)
    EXPECT_TRUE(cache.hot(i)) << "instance " << i;
}

TEST(StripeCacheHotness, StoreSizesSketchFromItsInstances) {
  // pdl_bench's RS geometry at 64-byte units with the shipped knobs.
  auto array = api::Array::create(
      {kV, kK}, {},
      {.codec = core::CodecKind::kReedSolomonPQ, .integrity = true});
  ASSERT_TRUE(array.ok()) << array.status().to_string();
  StripeStoreOptions options{.unit_bytes = kUnitBytes, .iterations = 204};
  options.cache.enabled = true;
  auto store = StripeStore::create(std::move(array).value(), options,
                                   make_memory_backend());
  ASSERT_TRUE(store.ok()) << store.status().to_string();

  // Two shuffled passes over every unit (over four decay intervals):
  // uniform reads are cold, so the read cache is (almost) never filled.
  const std::uint64_t n = store->num_logical_units();
  std::vector<std::uint64_t> order(n);
  for (std::uint64_t logical = 0; logical < n; ++logical)
    order[logical] = logical;
  std::mt19937_64 rng(kSeed);
  std::vector<std::uint8_t> buffer(kUnitBytes);
  for (int pass = 0; pass < 2; ++pass) {
    std::shuffle(order.begin(), order.end(), rng);
    for (const std::uint64_t logical : order)
      ASSERT_TRUE(store->read(logical, buffer).ok()) << "logical " << logical;
  }
  const HotnessStats uniform = store->hotness_stats();
  ASSERT_GE(uniform.decays, 4u);
  EXPECT_LE(uniform.fills, 2 * n / 100)
      << uniform.fills << " fills for " << 2 * n << " uniform reads";

  // Eight units read over and over turn hot and are served from cache.
  for (int round = 0; round < 32; ++round)
    for (std::uint64_t u = 0; u < 8; ++u)
      ASSERT_TRUE(store->read(u * (n / 8), buffer).ok());
  EXPECT_GT(store->hotness_stats().hits, uniform.hits);
}

// ------------------------------------------------------- TSan target

/// Three readers, one absorbing writer and one flusher race through one
/// cached store whose sketch decays every `decay_interval` notes.
void race_readers_writers_and_flushes(std::uint64_t decay_interval) {
  Case c;  // memory/sync/xor: the race is in the cache layer itself
  StripeCacheOptions cache = test_cache_options();
  cache.decay_interval = decay_interval;
  auto made = make_store(c, "race", true, cache);
  ASSERT_TRUE(made.ok());
  StripeStore& store = made.value();
  const std::uint64_t n = store.num_logical_units();
  ASSERT_TRUE(fill_canonical(store, 0, n, kSeed).ok());

  constexpr int kReaders = 3;
  constexpr int kOpsPerThread = 2000;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  // Readers hammer the hot span: cache hits, fills, dirty-table probes.
  for (int t = 0; t < kReaders; ++t)
    threads.emplace_back([&store, &failed, n, t] {
      std::mt19937_64 rng(kSeed + static_cast<std::uint64_t>(t));
      std::vector<std::uint8_t> buffer(kUnitBytes);
      for (int i = 0; i < kOpsPerThread && !failed.load(); ++i)
        if (!store.read(rng() % std::max<std::uint64_t>(n / 8, 1), buffer)
                 .ok())
          failed.store(true);
    });
  // One writer keeps absorbing into (and size-triggering folds of) the
  // same hot span the readers probe.
  threads.emplace_back([&store, &failed, n] {
    std::mt19937_64 rng(kSeed + 100);
    std::vector<std::uint8_t> buffer(kUnitBytes);
    for (int i = 0; i < kOpsPerThread && !failed.load(); ++i) {
      const std::uint64_t logical = rng() % std::max<std::uint64_t>(n / 8, 1);
      canonical_fill(logical, kSeed, buffer);
      if (!store.write(logical, buffer).ok()) failed.store(true);
    }
  });
  // One flusher races explicit fold sweeps against everyone.
  threads.emplace_back([&store, &failed] {
    for (int i = 0; i < 200 && !failed.load(); ++i)
      if (!store.flush_cache().ok()) failed.store(true);
  });
  for (auto& thread : threads) thread.join();
  EXPECT_FALSE(failed.load());

  // Everything the writer left behind is canonical and media-consistent.
  ASSERT_TRUE(store.flush_cache().ok());
  const auto sweep = store.verify_stripes();
  ASSERT_TRUE(sweep.ok());
  EXPECT_EQ(*sweep, 0u);
}

TEST(StripeCacheConcurrent, ReadersRaceWritersAndFlushes) {
  // Without decay, and with a halving sweep every 64 notes racing the
  // readers' and the writer's note() calls.
  for (const std::uint64_t decay_interval : {0, 64}) {
    SCOPED_TRACE("decay_interval " + std::to_string(decay_interval));
    race_readers_writers_and_flushes(decay_interval);
  }
}

}  // namespace
}  // namespace pdl::io
