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
#include <chrono>
#include <cstdint>
#include <memory>
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
    core::CodecKind codec = core::CodecKind::kXorParity,
    bool integrity = false) {
  auto array = api::Array::create(
      {.num_disks = 17, .stripe_size = 5}, {},
      {.sparing = sparing, .codec = codec, .integrity = integrity});
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

TEST(DatapathConcurrent, TwoRebuildersShareOnePlan) {
  // Two threads drain each failure with rebuild_some(4) beside a client
  // that writes and verifies reads.  Both claim chunks from the same
  // kept plan; a chunk staged while a write or the other rebuilder
  // commits sees the epoch move and goes back to the kept steps.  The
  // RS store checks every survivor's CRC right before its decode.
  auto store = make_store(api::SparingMode::kNone,
                          core::CodecKind::kReedSolomonPQ,
                          /*integrity=*/true);
  ASSERT_TRUE(store.ok()) << store.status().to_string();
  const std::uint64_t n = store->num_logical_units();
  ASSERT_TRUE(fill_canonical(*store, 0, n, kSeed).ok());

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> client_failures{0};
  std::thread client([&] {
    std::mt19937_64 rng(kSeed * 13);
    std::vector<std::uint8_t> unit(store->unit_bytes());
    std::vector<std::uint8_t> expected(store->unit_bytes());
    for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      const std::uint64_t logical = rng() % n;
      canonical_fill(logical, kSeed, expected);
      if (i % 3 == 0) {
        if (!store->write(logical, expected).ok()) ++client_failures;
        continue;
      }
      if (!store->read(logical, unit).ok() || unit != expected)
        ++client_failures;
    }
  });

  for (const layout::DiskId disk : {6u, 2u, 13u, 9u}) {
    ASSERT_TRUE(store->fail_disk(disk).ok());
    ASSERT_TRUE(store->replace_disk(disk).ok());
    std::atomic<std::uint64_t> rebuild_errors{0};
    std::atomic<std::uint64_t> repaired{0};
    std::vector<std::thread> rebuilders;
    for (int r = 0; r < 2; ++r)
      rebuilders.emplace_back([&] {
        for (;;) {
          const auto applied = store->rebuild_some(4);
          if (!applied.ok()) {
            ++rebuild_errors;
            return;
          }
          if (*applied == 0) return;
          repaired += *applied;
        }
      });
    for (auto& rebuilder : rebuilders) rebuilder.join();
    EXPECT_EQ(rebuild_errors.load(), 0u) << "disk " << disk;
    // One step per stripe that lost a unit: every unit on the disk.
    EXPECT_EQ(repaired.load(), store->array().units_per_disk())
        << "disk " << disk;
    EXPECT_TRUE(store->array().healthy()) << "disk " << disk;
  }
  stop.store(true);
  client.join();

  EXPECT_EQ(client_failures.load(), 0u);
  const auto inconsistent = store->verify_stripes();
  ASSERT_TRUE(inconsistent.ok());
  EXPECT_EQ(*inconsistent, 0u);
}

TEST(DatapathConcurrent, LaneSizedRebuildersBesideAClient) {
  // Stripe instances big enough that every rebuild chunk fans out over
  // parallel_for's lanes (768 KiB each, kLaneBytes in stripe_store.cpp):
  // the (16, 4) BIBD layout under RS reads 2 survivors and writes 1
  // target per instance, so a one-step chunk of 128 instances of 4 KiB
  // units moves 1.5 MiB, two lanes' worth.  Its instances fall on 16
  // lock shards, so both rebuild_some(1) loops stage under the shared
  // state lock side by side, and one that finds the lanes busy does its
  // chunk on its own thread.  Every disk fails and is rebuilt in turn
  // while a client writes and verifies.
  auto array = api::Array::create(
      {.num_disks = 16, .stripe_size = 4}, {},
      {.construction = core::Construction::kBibdFlow,
       .codec = core::CodecKind::kReedSolomonPQ,
       .integrity = true});
  ASSERT_TRUE(array.ok()) << array.status().to_string();
  auto store = StripeStore::create(std::move(array).value(),
                                   {.unit_bytes = 4096, .iterations = 128});
  ASSERT_TRUE(store.ok()) << store.status().to_string();
  const std::uint64_t n = store->num_logical_units();
  ASSERT_TRUE(fill_canonical(*store, 0, n, kSeed).ok());

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> client_failures{0};
  std::thread client([&] {
    std::mt19937_64 rng(kSeed * 17);
    std::vector<std::uint8_t> unit(store->unit_bytes());
    std::vector<std::uint8_t> expected(store->unit_bytes());
    for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      const std::uint64_t logical = rng() % n;
      canonical_fill(logical, kSeed, expected);
      if (i % 3 == 0) {
        if (!store->write(logical, expected).ok()) ++client_failures;
        continue;
      }
      if (!store->read(logical, unit).ok() || unit != expected)
        ++client_failures;
    }
  });

  for (layout::DiskId disk = 0; disk < 16; ++disk) {
    ASSERT_TRUE(store->fail_disk(disk).ok());
    ASSERT_TRUE(store->replace_disk(disk).ok());
    std::atomic<std::uint64_t> rebuild_errors{0};
    std::atomic<std::uint64_t> repaired{0};
    std::vector<std::thread> rebuilders;
    for (int r = 0; r < 2; ++r)
      rebuilders.emplace_back([&] {
        for (;;) {
          const auto applied = store->rebuild_some(1);
          if (!applied.ok()) {
            ++rebuild_errors;
            return;
          }
          if (*applied == 0) return;
          repaired += *applied;
        }
      });
    for (auto& rebuilder : rebuilders) rebuilder.join();
    EXPECT_EQ(rebuild_errors.load(), 0u) << "disk " << disk;
    EXPECT_EQ(repaired.load(), store->array().units_per_disk())
        << "disk " << disk;
    EXPECT_TRUE(store->array().healthy()) << "disk " << disk;
  }
  stop.store(true);
  client.join();

  EXPECT_EQ(client_failures.load(), 0u);
  const auto inconsistent = store->verify_stripes();
  ASSERT_TRUE(inconsistent.ok());
  EXPECT_EQ(*inconsistent, 0u);
}

/// Decorator that stalls every rebuild batch -- the survivor gather and
/// the target writes -- for a moment.  It exposes no memory views, so
/// the store's gathers reach execute_batch.  Rebuilders then queue on
/// the state lock behind each other's stages and commits, and the order
/// they get it in varies from run to run: a claimed chunk stays
/// outstanding while other rebuilders claim, plan and commit.
class SlowRebuildBackend final : public DiskBackend {
 public:
  explicit SlowRebuildBackend(std::unique_ptr<DiskBackend> inner)
      : inner_(std::move(inner)) {}

  Status open(const BackendGeometry& g) override { return inner_->open(g); }
  Status read(DiskId d, std::uint64_t off,
              std::span<std::uint8_t> out) override {
    return inner_->read(d, off, out);
  }
  Status write(DiskId d, std::uint64_t off,
               std::span<const std::uint8_t> data) override {
    return inner_->write(d, off, data);
  }
  Status sync(DiskId d) override { return inner_->sync(d); }
  Status discard(DiskId d, std::uint8_t fill) override {
    return inner_->discard(d, fill);
  }
  std::string_view name() const noexcept override { return "slow-rebuild"; }
  Status execute_batch(std::span<IoRequest> batch) override {
    if (!batch.empty() && batch.front().io_class == IoClass::kRebuild)
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    return inner_->execute_batch(batch);
  }

 private:
  std::unique_ptr<DiskBackend> inner_;
};

TEST(DatapathConcurrent, RebuildersWithDifferentChunksApplyEachStepOnce) {
  // No foreground traffic: only the rebuilders move the epoch.  rebuild()
  // claims 8-step chunks, the others 4 and 1, so near the end of a plan
  // one rebuilder finds the kept steps used up and plans again while
  // another still holds a chunk the fresh plan lists too.  Whichever
  // commits first applies those steps; the other copies must never be
  // applied a second time (apply_rebuild_step would refuse them as
  // stale and the call would fail).
  auto array = api::Array::create(
      {.num_disks = 17, .stripe_size = 5}, {},
      {.codec = core::CodecKind::kReedSolomonPQ, .integrity = true});
  ASSERT_TRUE(array.ok()) << array.status().to_string();
  auto store = StripeStore::create(
      std::move(array).value(), {.unit_bytes = 64, .iterations = 2},
      std::make_unique<SlowRebuildBackend>(make_memory_backend()));
  ASSERT_TRUE(store.ok()) << store.status().to_string();
  const std::uint64_t n = store->num_logical_units();
  ASSERT_TRUE(fill_canonical(*store, 0, n, kSeed).ok());
  const auto oracle = store->checksum_disks();
  ASSERT_TRUE(oracle.ok());

  for (layout::DiskId disk = 0; disk < 17; ++disk) {
    ASSERT_TRUE(store->fail_disk(disk).ok());
    ASSERT_TRUE(store->replace_disk(disk).ok());
    std::atomic<std::uint64_t> repaired{0};
    std::vector<Status> errors(3);
    std::vector<std::thread> rebuilders;
    rebuilders.emplace_back([&] {
      const auto outcome = store->rebuild();
      if (outcome.ok())
        repaired += outcome->applied;
      else
        errors[0] = outcome.status();
    });
    for (const std::uint64_t chunk : {4u, 1u})
      rebuilders.emplace_back([&, chunk] {
        for (;;) {
          const auto applied = store->rebuild_some(chunk);
          if (!applied.ok()) {
            errors[chunk == 4 ? 1 : 2] = applied.status();
            return;
          }
          if (*applied == 0) return;
          repaired += *applied;
        }
      });
    for (auto& rebuilder : rebuilders) rebuilder.join();
    for (const Status& error : errors)
      EXPECT_TRUE(error.ok()) << "disk " << disk << ": " << error.to_string();
    EXPECT_EQ(repaired.load(), store->array().units_per_disk())
        << "disk " << disk;
    ASSERT_TRUE(store->array().healthy()) << "disk " << disk;
  }

  const auto inconsistent = store->verify_stripes();
  ASSERT_TRUE(inconsistent.ok());
  EXPECT_EQ(*inconsistent, 0u);
  const auto after = store->checksum_disks();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *oracle);
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
