// pdl::io::AsyncDiskBackend + IoScheduler tests: batched-vs-sequential
// byte-identical differentials over memory and file substrates,
// coalescing correctness across unit boundaries, scheduler policy
// ordering (incl. the rebuild-deprioritizing bounded-delay
// anti-starvation guarantee), per-request kIoError surfacing with a
// fault-injecting decorator wrapped INSIDE the async engine, FileBackend's
// range check holding for queued traffic, and a store served and rebuilt
// over async-over-file.  This suite also runs under TSan in CI -- the
// engine's queues, batch states, and stats are exactly the shared state
// a race would live in.

#include "io/async_backend.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/array.hpp"
#include "io/stripe_store.hpp"
#include "io/workload_driver.hpp"
#include "scratch_dir.hpp"

namespace pdl::io {
namespace {

std::vector<std::uint8_t> pattern(std::size_t size, std::uint8_t base) {
  std::vector<std::uint8_t> bytes(size);
  std::iota(bytes.begin(), bytes.end(), base);
  return bytes;
}

// ------------------------------------------------- batched differential

/// Issues the same randomized write-then-read plan against `candidate`
/// (batched, via execute_batch) and a plain MemoryBackend (sequential
/// reference), then asserts byte-identical read results.
void run_differential(DiskBackend& candidate, std::uint32_t num_disks,
                      std::uint64_t disk_bytes) {
  MemoryBackend reference;
  ASSERT_TRUE(reference.open({num_disks, disk_bytes}).ok());

  // Deterministic mixed plan: strided writes on every disk...
  std::vector<std::vector<std::uint8_t>> payloads;
  std::vector<IoRequest> writes;
  for (std::uint32_t disk = 0; disk < num_disks; ++disk)
    for (std::uint64_t offset = 0; offset + 64 <= disk_bytes;
         offset += 192) {
      payloads.push_back(pattern(64, static_cast<std::uint8_t>(
                                         disk * 31 + offset)));
      writes.push_back(IoRequest::write_of(IoClass::kForegroundWrite, disk,
                                           offset, payloads.back()));
    }
  ASSERT_TRUE(candidate.execute_batch(writes).ok());
  for (const IoRequest& request : writes) {
    ASSERT_TRUE(request.status.ok());
    ASSERT_TRUE(reference
                    .write(request.disk, request.offset, request.write_buf)
                    .ok());
  }

  // ...then a full batched read-back of every disk, in odd-sized runs
  // so request boundaries do not line up with the write boundaries.
  std::vector<std::vector<std::uint8_t>> results;
  std::vector<IoRequest> reads;
  for (std::uint32_t disk = 0; disk < num_disks; ++disk)
    for (std::uint64_t offset = 0; offset < disk_bytes;) {
      const std::uint64_t size = std::min<std::uint64_t>(
          37 + (offset % 91), disk_bytes - offset);
      results.emplace_back(size);
      reads.push_back(IoRequest::read_of(IoClass::kForegroundRead, disk,
                                         offset, results.back()));
      offset += size;
    }
  ASSERT_TRUE(candidate.execute_batch(reads).ok());

  std::vector<std::uint8_t> expected;
  for (const IoRequest& request : reads) {
    ASSERT_TRUE(request.status.ok());
    expected.resize(request.read_buf.size());
    ASSERT_TRUE(reference.read(request.disk, request.offset, expected).ok());
    ASSERT_EQ(0, std::memcmp(request.read_buf.data(), expected.data(),
                             expected.size()))
        << "disk " << request.disk << " offset " << request.offset;
  }
}

TEST(AsyncBackend, BatchedMatchesSequentialOverMemory) {
  for (const char* scheduler :
       {"fifo", "deadline", "rebuild-deprioritizing"}) {
    SCOPED_TRACE(scheduler);
    AsyncBackendOptions options;
    options.scheduler = scheduler;
    auto backend = make_async_backend(make_memory_backend(), options);
    ASSERT_TRUE(backend->open({4, 4096}).ok());
    EXPECT_EQ(backend->name(), "async");
    EXPECT_TRUE(backend->async());
    EXPECT_EQ(backend->scheduler(), scheduler);
    run_differential(*backend, 4, 4096);
  }
}

TEST(AsyncBackend, BatchedMatchesSequentialOverFile) {
  const tests::ScratchDir dir("pdl_async_test_differential");
  auto backend = make_async_backend(
      make_file_backend({.directory = dir.path().string()}));
  ASSERT_TRUE(backend->open({3, 8192}).ok());
  run_differential(*backend, 3, 8192);
}

TEST(AsyncBackend, SynchronousSurfaceStillWorks) {
  auto backend = make_async_backend(make_memory_backend());
  ASSERT_TRUE(backend->open({2, 1024}).ok());
  // read/write are submit-one-plus-wait; sync/discard drain first.
  const auto data = pattern(128, 7);
  ASSERT_TRUE(backend->write(1, 256, data).ok());
  std::vector<std::uint8_t> out(128);
  ASSERT_TRUE(backend->read(1, 256, out).ok());
  EXPECT_EQ(out, data);
  ASSERT_TRUE(backend->sync(1).ok());
  ASSERT_TRUE(backend->discard(1, 0xEE).ok());
  ASSERT_TRUE(backend->read(1, 256, out).ok());
  for (const auto b : out) EXPECT_EQ(b, 0xEE);
  // The decorator must not leak a memory view (bytes must cross the
  // queues for scheduling/coalescing to apply).
  EXPECT_TRUE(backend->memory_view(0).empty());
}

// ------------------------------------------------------------ coalescing

TEST(AsyncBackend, CoalescesAdjacentUnitsCorrectly) {
  constexpr std::uint32_t kUnit = 512;
  AsyncBackendOptions options;
  options.coalesce = true;
  // A small per-op latency on the inner backend holds the drain loop on
  // its first dispatch long enough for the rest of the batch to pile up
  // in the queue -- making the "requests were pending together, so they
  // merged" assertion deterministic instead of a race with the worker.
  FaultInjectionOptions slow;
  slow.read_latency_us = 2000;
  slow.write_latency_us = 2000;
  auto backend = make_async_backend(
      make_fault_injection_backend(make_memory_backend(), slow), options);
  ASSERT_TRUE(backend->open({1, 16 * kUnit}).ok());

  // Eight exactly-adjacent unit writes in one batch: the single disk
  // queue sees them together, so they must merge into few substrate
  // ops -- and every unit must land at ITS offset (the merge math is
  // what a bug would scramble).
  std::vector<std::vector<std::uint8_t>> units;
  std::vector<IoRequest> writes;
  for (std::uint32_t i = 0; i < 8; ++i) {
    units.push_back(pattern(kUnit, static_cast<std::uint8_t>(i * 16 + 1)));
    writes.push_back(IoRequest::write_of(IoClass::kForegroundWrite, 0,
                                         static_cast<std::uint64_t>(i) *
                                             kUnit,
                                         units.back()));
  }
  ASSERT_TRUE(backend->execute_batch(writes).ok());

  // Read back through adjacent unit reads -- the scatter side of the
  // same merge machinery.
  std::vector<std::vector<std::uint8_t>> out(8,
                                             std::vector<std::uint8_t>(kUnit));
  std::vector<IoRequest> reads;
  for (std::uint32_t i = 0; i < 8; ++i)
    reads.push_back(IoRequest::read_of(IoClass::kForegroundRead, 0,
                                       static_cast<std::uint64_t>(i) * kUnit,
                                       out[i]));
  ASSERT_TRUE(backend->execute_batch(reads).ok());
  for (std::uint32_t i = 0; i < 8; ++i)
    EXPECT_EQ(out[i], units[i]) << "unit " << i;

  const AsyncBackendStats stats = backend->stats();
  EXPECT_EQ(stats.submitted, 16u);
  EXPECT_EQ(stats.completed, 16u);
  EXPECT_GT(stats.coalesced, 0u) << "adjacent same-direction requests on one "
                                    "disk should have merged";
  EXPECT_LT(stats.substrate_ops, stats.submitted);
}

TEST(AsyncBackend, CoalescingRespectsMaxBytesAndDirection) {
  constexpr std::uint32_t kUnit = 512;
  AsyncBackendOptions options;
  options.coalesce = true;
  options.max_coalesced_bytes = 2 * kUnit;  // merge at most two units
  auto backend = make_async_backend(make_memory_backend(), options);
  ASSERT_TRUE(backend->open({1, 16 * kUnit}).ok());

  // Alternating write/read at adjacent offsets: direction flips forbid
  // merging across neighbours, so everything must still be correct.
  const auto w0 = pattern(kUnit, 1);
  const auto w2 = pattern(kUnit, 101);
  std::vector<std::uint8_t> r1(kUnit), r3(kUnit);
  std::vector<IoRequest> mixed;
  mixed.push_back(IoRequest::write_of(IoClass::kForegroundWrite, 0, 0, w0));
  mixed.push_back(IoRequest::read_of(IoClass::kForegroundRead, 0, kUnit, r1));
  mixed.push_back(
      IoRequest::write_of(IoClass::kForegroundWrite, 0, 2 * kUnit, w2));
  mixed.push_back(
      IoRequest::read_of(IoClass::kForegroundRead, 0, 3 * kUnit, r3));
  ASSERT_TRUE(backend->execute_batch(mixed).ok());

  std::vector<std::uint8_t> check(kUnit);
  ASSERT_TRUE(backend->read(0, 0, check).ok());
  EXPECT_EQ(check, w0);
  ASSERT_TRUE(backend->read(0, 2 * kUnit, check).ok());
  EXPECT_EQ(check, w2);
  // The reads hit never-written ranges: all zeros.
  EXPECT_TRUE(std::all_of(r1.begin(), r1.end(),
                          [](std::uint8_t b) { return b == 0; }));
  EXPECT_TRUE(std::all_of(r3.begin(), r3.end(),
                          [](std::uint8_t b) { return b == 0; }));
}

// ------------------------------------------------------------ schedulers

TEST(IoScheduler, FifoPicksLowestSeq) {
  auto fifo = make_fifo_io_scheduler();
  const PendingIo pending[] = {
      {IoClass::kRebuild, IoRequest::Op::kRead, 0, 64, 7, 0},
      {IoClass::kForegroundRead, IoRequest::Op::kRead, 64, 64, 3, 0},
      {IoClass::kScrub, IoRequest::Op::kRead, 128, 64, 5, 0},
  };
  EXPECT_EQ(fifo->pick(pending, 1000), 1u);  // seq 3 is oldest
}

TEST(IoScheduler, DeadlineLetsForegroundOvertakeRebuild) {
  auto deadline = make_deadline_io_scheduler();  // fg read target 500us
  // Rebuild enqueued earlier, foreground later: the tighter foreground
  // target (500us vs 20000us) must win anyway.
  const PendingIo pending[] = {
      {IoClass::kRebuild, IoRequest::Op::kRead, 0, 64, 1, 0},
      {IoClass::kForegroundRead, IoRequest::Op::kRead, 64, 64, 2, 100},
  };
  EXPECT_EQ(deadline->pick(pending, 200), 1u);
  // ...but a rebuild request far past its own deadline gets served.
  const PendingIo aged[] = {
      {IoClass::kRebuild, IoRequest::Op::kRead, 0, 64, 1, 0},
      {IoClass::kForegroundRead, IoRequest::Op::kRead, 64, 64, 2, 25000},
  };
  EXPECT_EQ(deadline->pick(aged, 25100), 0u);  // 0+20000 < 25000+500
}

TEST(IoScheduler, RebuildDeprioritizingHasBoundedDelay) {
  auto scheduler = make_rebuild_deprioritizing_io_scheduler(/*max=*/1000);
  const PendingIo pending[] = {
      {IoClass::kRebuild, IoRequest::Op::kRead, 0, 64, 1, 0},
      {IoClass::kForegroundRead, IoRequest::Op::kRead, 64, 64, 2, 500},
  };
  // Below the bound: foreground first even though rebuild is older.
  EXPECT_EQ(scheduler->pick(pending, 999), 1u);
  // At/over the bound the rebuild request jumps the queue -- the
  // anti-starvation guarantee: no request waits longer than the bound
  // while the disk dispatches.
  EXPECT_EQ(scheduler->pick(pending, 1000), 0u);
  EXPECT_EQ(scheduler->pick(pending, 5000), 0u);
  // Idle disk (only background pending): dispatch immediately.
  const PendingIo only_background[] = {
      {IoClass::kScrub, IoRequest::Op::kRead, 0, 64, 9, 100},
  };
  EXPECT_EQ(scheduler->pick(only_background, 150), 0u);
}

TEST(IoScheduler, FactoryRejectsUnknownNames) {
  EXPECT_THROW((void)make_io_scheduler("elevator"), std::invalid_argument);
  for (const auto name : io_scheduler_names())
    EXPECT_EQ(make_io_scheduler(name)->name(), name);
}

TEST(AsyncBackend, RebuildTrafficCompletesUnderForegroundLoad) {
  // Integration form of the bounded-delay guarantee: a rebuild batch
  // submitted into a continuous foreground stream must complete (a
  // starved queue would hang this wait forever).
  AsyncBackendOptions options;
  options.scheduler = "rebuild-deprioritizing";
  auto backend = make_async_backend(make_memory_backend(), options);
  ASSERT_TRUE(backend->open({1, 1 << 20}).ok());

  // Foreground reads stay in the upper half of the disk, rebuild writes
  // in the lower 128 KiB: disjoint ranges, as the overlap contract (and
  // TSan) demand.
  constexpr std::uint64_t kHalf = 1u << 19;
  std::atomic<bool> stop{false};
  std::atomic<bool> streaming{false};  // one read done, or the thread quit
  std::thread foreground([&] {
    std::vector<std::uint8_t> buf(4096);
    std::uint64_t offset = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const bool ok = backend->read(0, kHalf + offset, buf).ok();
      streaming.store(true, std::memory_order_release);
      ASSERT_TRUE(ok);
      offset = (offset + 4096) % kHalf;
    }
  });
  // Submit only once the foreground stream is flowing: a batch that beat
  // the thread's first read would complete with nothing to compete with.
  while (!streaming.load(std::memory_order_acquire)) std::this_thread::yield();

  std::vector<std::vector<std::uint8_t>> payloads;
  std::vector<IoRequest> rebuild;
  for (std::uint32_t i = 0; i < 32; ++i) {
    payloads.push_back(pattern(4096, static_cast<std::uint8_t>(i)));
    rebuild.push_back(IoRequest::write_of(IoClass::kRebuild, 0,
                                          static_cast<std::uint64_t>(i) *
                                              4096,
                                          payloads.back()));
  }
  auto submission = backend->submit(rebuild);
  EXPECT_TRUE(backend->wait(submission).ok());
  for (const IoRequest& request : rebuild) EXPECT_TRUE(request.status.ok());

  stop.store(true, std::memory_order_relaxed);
  foreground.join();

  const AsyncBackendStats stats = backend->stats();
  EXPECT_EQ(stats.by_class[static_cast<std::size_t>(IoClass::kRebuild)], 32u);
  EXPECT_GT(stats.by_class[static_cast<std::size_t>(IoClass::kForegroundRead)],
            0u);
}

// ------------------------------------------- fault injection inside async

TEST(AsyncBackend, FaultDecoratorInsideEngineSurfacesPerRequestErrors) {
  // The decorator sits INSIDE the async engine: the queues dispatch to
  // it, so injected kIoError must come back attached to the individual
  // request that hit it, not to the batch as a whole.
  FaultInjectionOptions faults;
  faults.read_error_probability = 1.0;  // every read fails...
  faults.write_error_probability = 0;   // ...no write does
  AsyncBackendOptions options;
  options.coalesce = false;  // one request = one inner op = one fault draw
  auto backend = make_async_backend(
      make_fault_injection_backend(make_memory_backend(), faults), options);
  ASSERT_TRUE(backend->open({2, 4096}).ok());

  const auto data = pattern(256, 3);
  std::vector<std::uint8_t> out_a(256), out_b(256);
  std::vector<IoRequest> batch;
  batch.push_back(IoRequest::read_of(IoClass::kForegroundRead, 0, 0, out_a));
  batch.push_back(IoRequest::write_of(IoClass::kForegroundWrite, 1, 0, data));
  batch.push_back(IoRequest::read_of(IoClass::kForegroundRead, 1, 512, out_b));

  const Status first = backend->execute_batch(batch);
  EXPECT_EQ(first.code(), StatusCode::kIoError);
  EXPECT_EQ(batch[0].status.code(), StatusCode::kIoError);
  EXPECT_TRUE(batch[1].status.ok()) << batch[1].status.message();
  EXPECT_EQ(batch[2].status.code(), StatusCode::kIoError);

  // Both failures were injected by the wrapped decorator -- i.e. the
  // faults really did surface from INSIDE the engine, per request.
  auto* faulty = dynamic_cast<FaultInjectionBackend*>(&backend->inner());
  ASSERT_NE(faulty, nullptr);
  EXPECT_EQ(faulty->stats().injected_read_errors, 2u);
  EXPECT_EQ(faulty->stats().injected_write_errors, 0u);
}

TEST(AsyncBackend, OutOfRangeDiskFailsThatRequestOnly) {
  auto backend = make_async_backend(make_memory_backend());
  ASSERT_TRUE(backend->open({2, 1024}).ok());
  const auto data = pattern(64, 9);
  std::vector<std::uint8_t> out(64);
  std::vector<IoRequest> batch;
  batch.push_back(IoRequest::write_of(IoClass::kForegroundWrite, 0, 0, data));
  batch.push_back(IoRequest::write_of(IoClass::kForegroundWrite, 7, 0, data));
  batch.push_back(IoRequest::read_of(IoClass::kForegroundRead, 0, 0, out));
  EXPECT_EQ(backend->execute_batch(batch).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(batch[0].status.ok());
  EXPECT_EQ(batch[1].status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(batch[2].status.ok());
  EXPECT_EQ(out, data);
}

TEST(AsyncBackend, PastTheEndOverFileFailsAndKeepsTheImage) {
  // The engine must answer a range wholly past a disk's end the way
  // FileBackend's own range check does: kInvalidArgument, with the
  // image left at its geometry size, so the directory still reopens.
  const tests::ScratchDir dir("pdl_async_test_past_the_end");
  constexpr std::uint64_t kDiskBytes = 8192;
  {
    auto backend = make_async_backend(
        make_file_backend({.directory = dir.path().string()}));
    ASSERT_TRUE(backend->open({2, kDiskBytes}).ok());
    const auto data = pattern(4096, 5);
    EXPECT_EQ(backend->write(1, kDiskBytes, data).code(),
              StatusCode::kInvalidArgument);
    std::vector<std::uint8_t> out(4096);
    EXPECT_EQ(backend->read(1, kDiskBytes, out).code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(std::filesystem::file_size(dir.path() / "disk-0001.img"),
            kDiskBytes);
  FileBackend reopened({.directory = dir.path().string()});
  const Status opened = reopened.open({2, kDiskBytes});
  EXPECT_TRUE(opened.ok()) << opened.to_string();
}

// --------------------------------------------------- store-level (async)

TEST(AsyncBackend, StoreServesDegradedAndRebuildsOverAsyncEngine) {
  // End-to-end: StripeStore over async-over-memory (no zero-copy views,
  // so every hot path issues real batched submissions), through failure,
  // degraded service, and rebuild.
  auto array = api::Array::create({.num_disks = 17, .stripe_size = 5});
  ASSERT_TRUE(array.ok());
  auto store = StripeStore::create(
      std::move(array).value(), {.unit_bytes = 512, .iterations = 2},
      make_async_backend(make_memory_backend()));
  ASSERT_TRUE(store.ok());

  const std::uint64_t kSeed = 42;
  ASSERT_TRUE(
      fill_canonical(*store, 0, store->num_logical_units(), kSeed).ok());
  ASSERT_TRUE(store->fail_disk(3).ok());

  // Degraded reads reconstruct through ONE batched survivor fan-in.
  std::vector<std::uint8_t> unit(store->unit_bytes());
  std::vector<std::uint8_t> expected(store->unit_bytes());
  std::uint64_t degraded_seen = 0;
  for (std::uint64_t logical = 0; logical < store->num_logical_units();
       ++logical) {
    ReadReceipt receipt;
    ASSERT_TRUE(store->read(logical, unit, &receipt).ok()) << logical;
    canonical_fill(logical, kSeed, expected);
    ASSERT_EQ(unit, expected) << logical;
    if (receipt.kind == api::ReadPlan::Kind::kDegraded) ++degraded_seen;
  }
  EXPECT_GT(degraded_seen, 0u);

  // Batched multi-unit reads agree with the single-unit path.
  std::vector<std::uint64_t> logicals;
  for (std::uint64_t logical = 0; logical < store->num_logical_units();
       logical += 3)
    logicals.push_back(logical);
  std::vector<std::uint8_t> bytes(logicals.size() * store->unit_bytes());
  std::vector<Status> statuses(logicals.size());
  ASSERT_TRUE(store->read_batch(logicals, bytes, statuses).ok());
  for (std::size_t i = 0; i < logicals.size(); ++i) {
    ASSERT_TRUE(statuses[i].ok()) << logicals[i];
    canonical_fill(logicals[i], kSeed, expected);
    EXPECT_EQ(0, std::memcmp(bytes.data() + i * store->unit_bytes(),
                             expected.data(), expected.size()))
        << logicals[i];
  }

  // Rebuild (kRebuild-tagged batched fan-ins) restores direct service.
  ASSERT_TRUE(store->replace_disk(3).ok());
  auto outcome = store->rebuild();
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->blocked, 0u);
  for (std::uint64_t logical = 0; logical < store->num_logical_units();
       ++logical) {
    ReadReceipt receipt;
    ASSERT_TRUE(store->read(logical, unit, &receipt).ok());
    canonical_fill(logical, kSeed, expected);
    ASSERT_EQ(unit, expected) << logical;
    EXPECT_EQ(receipt.kind, api::ReadPlan::Kind::kDirect) << logical;
  }

  const auto* async =
      dynamic_cast<AsyncDiskBackend*>(&store->backend());
  ASSERT_NE(async, nullptr);
  const AsyncBackendStats stats = async->stats();
  EXPECT_GT(stats.by_class[static_cast<std::size_t>(IoClass::kRebuild)], 0u);
  EXPECT_EQ(stats.submitted, stats.completed);
}

TEST(AsyncBackend, ConcurrentDriverRunStaysCanonical) {
  // The TSan target: many driver threads, deep batched reads, async
  // queues, shard locks, and engine stats all racing.
  auto array = api::Array::create({.num_disks = 17, .stripe_size = 5});
  ASSERT_TRUE(array.ok());
  auto store = StripeStore::create(std::move(array).value(),
                                   {.unit_bytes = 256, .iterations = 1},
                                   make_async_backend(make_memory_backend()));
  ASSERT_TRUE(store.ok());
  const std::uint64_t kSeed = 7;
  ASSERT_TRUE(
      fill_canonical(*store, 0, store->num_logical_units(), kSeed).ok());

  WorkloadOptions options;
  options.num_threads = 4;
  options.ops_per_thread = 400;
  options.read_fraction = 0.7;
  options.queue_depth = 8;
  options.seed = kSeed;
  options.verify_reads = true;
  WorkloadDriver driver(*store, options);
  const WorkloadStats stats = driver.run();

  EXPECT_EQ(stats.reads + stats.writes, 4u * 400u);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.verify_failures, 0u);
  // The driver detected the async backend and issued deep batches.
  EXPECT_GT(stats.read_batches, 0u);
  EXPECT_GT(stats.achieved_depth(), 1.0);
  EXPECT_EQ(stats.read_latency_ns.size(), stats.reads);
}

TEST(AsyncBackend, StoreOverAsyncFileServesAndRebuilds) {
  // The full stack: StripeStore -> AsyncDiskBackend -> FileBackend with
  // 4096-byte units, through a failure and rebuild cycle.
  const tests::ScratchDir dir("pdl_async_test_file_store");
  auto array = api::Array::create({.num_disks = 17, .stripe_size = 5});
  ASSERT_TRUE(array.ok());
  auto store = StripeStore::create(
      std::move(array).value(), {.unit_bytes = 4096, .iterations = 1},
      make_async_backend(
          make_file_backend({.directory = dir.path().string()})));
  ASSERT_TRUE(store.ok());

  const std::uint64_t kSeed = 99;
  ASSERT_TRUE(fill_canonical(*store, 0, 64, kSeed).ok());
  ASSERT_TRUE(store->fail_disk(0).ok());
  ASSERT_TRUE(store->replace_disk(0).ok());
  auto outcome = store->rebuild();
  ASSERT_TRUE(outcome.ok());

  std::vector<std::uint8_t> unit(store->unit_bytes());
  std::vector<std::uint8_t> expected(store->unit_bytes());
  for (std::uint64_t logical = 0; logical < 64; ++logical) {
    ASSERT_TRUE(store->read(logical, unit).ok()) << logical;
    canonical_fill(logical, kSeed, expected);
    ASSERT_EQ(unit, expected) << logical;
  }
}

}  // namespace
}  // namespace pdl::io
