// Concurrency stress for the byte-level data path: reader and writer
// threads hammer overlapping and disjoint logical ranges while the main
// thread injects disk failures, attaches replacements, and drives an
// incremental rebuild -- all under the store's readers-writer + sharded
// stripe-lock discipline.  Runs under ASan/UBSan in the sanitize CI job
// and under ThreadSanitizer in the tsan job (PDL_TSAN).
//
// Content invariant: every write stores the canonical pattern for its
// address, so any read -- direct, degraded, or served mid-rebuild -- must
// return canonical bytes.  With at most one concurrent disk failure no
// stripe ever loses two units, so every read must also succeed.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include "api/array.hpp"
#include "io/stripe_store.hpp"
#include "io/workload_driver.hpp"

namespace pdl::io {
namespace {

constexpr std::uint64_t kSeed = 0xC0CC;

Result<StripeStore> make_store(
    api::SparingMode sparing,
    core::CodecKind codec = core::CodecKind::kXorParity) {
  auto array = api::Array::create({.num_disks = 17, .stripe_size = 5}, {},
                                  {.sparing = sparing, .codec = codec});
  if (!array.ok()) return array.status();
  return StripeStore::create(std::move(array).value(),
                             {.unit_bytes = 64, .iterations = 2});
}

TEST(DatapathConcurrent, ParallelReadersSeeCanonicalBytes) {
  auto store = make_store(api::SparingMode::kNone);
  ASSERT_TRUE(store.ok()) << store.status().to_string();
  ASSERT_TRUE(
      fill_canonical(*store, 0, store->num_logical_units(), kSeed).ok());

  // Pure read concurrency over the whole space: exercises api::Array's
  // const serving surface from many threads at once.
  std::atomic<std::uint64_t> failures{0};
  std::vector<std::thread> readers;
  for (std::uint32_t t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      std::mt19937_64 rng(kSeed + t);
      std::vector<std::uint8_t> unit(store->unit_bytes());
      std::vector<std::uint8_t> expected(store->unit_bytes());
      for (std::uint32_t i = 0; i < 4000; ++i) {
        const std::uint64_t logical = rng() % store->num_logical_units();
        if (!store->read(logical, unit).ok()) {
          ++failures;
          continue;
        }
        canonical_fill(logical, kSeed, expected);
        if (unit != expected) ++failures;
      }
    });
  }
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0u);
}

void stress_with_failures(api::SparingMode sparing) {
  auto store = make_store(sparing);
  ASSERT_TRUE(store.ok()) << store.status().to_string();
  const std::uint64_t n = store->num_logical_units();
  ASSERT_TRUE(fill_canonical(*store, 0, n, kSeed).ok());

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> read_failures{0};
  std::atomic<std::uint64_t> write_failures{0};
  std::atomic<std::uint64_t> ops{0};

  // Two writers own disjoint halves of the space; two more share one
  // overlapping window (racing writes store identical canonical bytes,
  // so the content invariant holds regardless of interleaving).
  std::vector<std::thread> threads;
  const std::uint64_t half = n / 2;
  for (std::uint32_t w = 0; w < 4; ++w) {
    threads.emplace_back([&, w] {
      // w 0/1 own disjoint halves; w 2/3 share a window straddling both.
      const std::uint64_t first = w < 2 ? w * half : half / 2;
      const std::uint64_t count = half;
      std::mt19937_64 rng(kSeed * 31 + w);
      std::vector<std::uint8_t> unit(store->unit_bytes());
      std::uint64_t mine = 0;
      while (!stop.load(std::memory_order_relaxed) && mine < 200000) {
        const std::uint64_t logical = first + rng() % count;
        canonical_fill(logical, kSeed, unit);
        if (!store->write(logical, unit).ok()) ++write_failures;
        ++ops;
        // Periodic yield opens writer-lock windows for the chaos driver
        // (glibc's rwlock is reader-preferring).
        if ((++mine & 127) == 0) std::this_thread::yield();
      }
    });
  }
  // Two readers roam the whole space, verifying bytes.
  for (std::uint32_t r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      std::mt19937_64 rng(kSeed * 77 + r);
      std::vector<std::uint8_t> unit(store->unit_bytes());
      std::vector<std::uint8_t> expected(store->unit_bytes());
      std::uint64_t mine = 0;
      while (!stop.load(std::memory_order_relaxed) && mine < 200000) {
        const std::uint64_t logical = rng() % n;
        if ((++mine & 127) == 0) std::this_thread::yield();
        if (!store->read(logical, unit).ok()) {
          ++read_failures;
          continue;
        }
        canonical_fill(logical, kSeed, expected);
        if (unit != expected) ++read_failures;
        ++ops;
      }
    });
  }

  // Chaos driver: three failure -> replace -> incremental-rebuild cycles
  // on different disks, each concurrent with the serving threads.  One
  // failure at a time, so no stripe ever loses two units.  The pause
  // between rebuild batches keeps serving interleaved with the rebuild
  // (batches hold the exclusive lock; too-small batches also starve on
  // glibc's reader-preferring rwlock).
  for (const layout::DiskId disk : {3u, 11u, 7u}) {
    ASSERT_TRUE(store->fail_disk(disk).ok());
    std::this_thread::sleep_for(std::chrono::microseconds(300));
    ASSERT_TRUE(store->replace_disk(disk).ok());
    for (;;) {
      const auto applied = store->rebuild_some(64);
      ASSERT_TRUE(applied.ok()) << applied.status().to_string();
      if (*applied == 0) break;
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  }
  // Let the serving threads rack up real concurrent mileage before
  // stopping (per-thread op caps plus the 10 s ceiling bound the wait).
  for (int i = 0; i < 10000 && ops.load() < 500000; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  stop.store(true);
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(read_failures.load(), 0u);
  EXPECT_EQ(write_failures.load(), 0u);
  EXPECT_GT(ops.load(), 0u);
  EXPECT_FALSE(store->array().data_loss());

  // Quiesced: every byte in the store must be canonical again.
  std::vector<std::uint8_t> unit(store->unit_bytes());
  std::vector<std::uint8_t> expected(store->unit_bytes());
  for (std::uint64_t logical = 0; logical < n; ++logical) {
    ASSERT_TRUE(store->read(logical, unit).ok()) << "logical " << logical;
    canonical_fill(logical, kSeed, expected);
    ASSERT_EQ(unit, expected) << "logical " << logical;
  }
}

TEST(DatapathConcurrent, FailureAndRebuildUnderFireDedicated) {
  stress_with_failures(api::SparingMode::kNone);
}

TEST(DatapathConcurrent, FailureAndRebuildUnderFireDistributed) {
  stress_with_failures(api::SparingMode::kDistributed);
}

TEST(DatapathConcurrent, DoubleFailureRebuildUnderFireReedSolomon) {
  // The RS store under TWO concurrently failed disks: every stripe may
  // lose up to two units -- still within P+Q tolerance, so every read
  // and write must keep succeeding (double-degraded decodes, multi-
  // parity RMWs, and reconstruct-writes all race the rebuild here).
  // The staged-shard/exclusive-commit rebuild interleaves with the
  // writers, pinning the write-epoch invalidation protocol under TSan:
  // a writer's RMW that lands between stage and commit must bump the
  // epoch and force a re-stage, never a stale-parity commit.
  auto store = make_store(api::SparingMode::kDistributed,
                          core::CodecKind::kReedSolomonPQ);
  ASSERT_TRUE(store.ok()) << store.status().to_string();
  const std::uint64_t n = store->num_logical_units();
  ASSERT_TRUE(fill_canonical(*store, 0, n, kSeed).ok());

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> read_failures{0};
  std::atomic<std::uint64_t> write_failures{0};
  std::atomic<std::uint64_t> ops{0};

  std::vector<std::thread> threads;
  const std::uint64_t half = n / 2;
  for (std::uint32_t w = 0; w < 3; ++w) {
    threads.emplace_back([&, w] {
      const std::uint64_t first = w < 2 ? w * half : half / 2;
      std::mt19937_64 rng(kSeed * 31 + w);
      std::vector<std::uint8_t> unit(store->unit_bytes());
      std::uint64_t mine = 0;
      while (!stop.load(std::memory_order_relaxed) && mine < 120000) {
        const std::uint64_t logical = first + rng() % half;
        canonical_fill(logical, kSeed, unit);
        if (!store->write(logical, unit).ok()) ++write_failures;
        ++ops;
        if ((++mine & 127) == 0) std::this_thread::yield();
      }
    });
  }
  for (std::uint32_t r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      std::mt19937_64 rng(kSeed * 77 + r);
      std::vector<std::uint8_t> unit(store->unit_bytes());
      std::vector<std::uint8_t> expected(store->unit_bytes());
      std::uint64_t mine = 0;
      while (!stop.load(std::memory_order_relaxed) && mine < 120000) {
        const std::uint64_t logical = rng() % n;
        if ((++mine & 127) == 0) std::this_thread::yield();
        if (!store->read(logical, unit).ok()) {
          ++read_failures;
          continue;
        }
        canonical_fill(logical, kSeed, expected);
        if (unit != expected) ++read_failures;
        ++ops;
      }
    });
  }

  // Two overlapping failures, then a rebuild that runs with BOTH
  // replacements attached -- steps decoding through two erasures.
  ASSERT_TRUE(store->fail_disk(3).ok());
  std::this_thread::sleep_for(std::chrono::microseconds(300));
  ASSERT_TRUE(store->fail_disk(11).ok());
  std::this_thread::sleep_for(std::chrono::microseconds(300));
  ASSERT_TRUE(store->replace_disk(3).ok());
  ASSERT_TRUE(store->replace_disk(11).ok());
  for (;;) {
    const auto applied = store->rebuild_some(64);
    ASSERT_TRUE(applied.ok()) << applied.status().to_string();
    if (*applied == 0) break;
    std::this_thread::sleep_for(std::chrono::microseconds(300));
  }

  for (int i = 0; i < 10000 && ops.load() < 300000; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  stop.store(true);
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(read_failures.load(), 0u);
  EXPECT_EQ(write_failures.load(), 0u);
  EXPECT_FALSE(store->array().data_loss());

  std::vector<std::uint8_t> unit(store->unit_bytes());
  std::vector<std::uint8_t> expected(store->unit_bytes());
  for (std::uint64_t logical = 0; logical < n; ++logical) {
    ASSERT_TRUE(store->read(logical, unit).ok()) << "logical " << logical;
    canonical_fill(logical, kSeed, expected);
    ASSERT_EQ(unit, expected) << "logical " << logical;
  }
}

TEST(DatapathConcurrent, WorkloadDriverMixesUnderFailure) {
  // The driver end-to-end: uniform, sequential, and zipfian mixes against
  // a degraded store, with verification on.  Every op must be served
  // (single failure), every byte canonical.
  auto store = make_store(api::SparingMode::kDistributed);
  ASSERT_TRUE(store.ok()) << store.status().to_string();
  ASSERT_TRUE(
      fill_canonical(*store, 0, store->num_logical_units(), kSeed).ok());
  ASSERT_TRUE(store->fail_disk(5).ok());

  for (const AccessPattern pattern :
       {AccessPattern::kUniform, AccessPattern::kSequential,
        AccessPattern::kZipfian}) {
    WorkloadDriver driver(*store, {.num_threads = 3,
                                   .ops_per_thread = 1200,
                                   .read_fraction = 0.6,
                                   .pattern = pattern,
                                   .queue_depth = 4,
                                   .seed = kSeed,
                                   .verify_reads = true});
    const WorkloadStats stats = driver.run();
    EXPECT_EQ(stats.errors, 0u) << access_pattern_name(pattern);
    EXPECT_EQ(stats.data_loss_ops, 0u) << access_pattern_name(pattern);
    EXPECT_EQ(stats.verify_failures, 0u) << access_pattern_name(pattern);
    EXPECT_EQ(stats.reads + stats.writes, 3u * 1200u)
        << access_pattern_name(pattern);
    EXPECT_GT(stats.degraded_reads + stats.reconstruct_writes, 0u)
        << access_pattern_name(pattern);
    EXPECT_GT(stats.mb_per_second(), 0.0);
  }

  ASSERT_TRUE(store->replace_disk(5).ok());
  const auto outcome = store->rebuild();
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(store->array().healthy());
}

}  // namespace
}  // namespace pdl::io
