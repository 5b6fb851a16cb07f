// io::parallel_for, the data path's fork-join helper: every index runs
// exactly once whatever the split, the calling thread runs the first
// range, a call that finds the workers busy (another thread's call, or
// a range of its own) runs inline, concurrent callers never share a
// round, and an exception thrown on any range reaches the caller.  In
// CI's TSan filter.

#include "io/parallel_for.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace pdl::io {
namespace {

/// What one parallel_for call did: how often each index ran, and the
/// ranges it was split into with the thread that ran each.
struct Trace {
  struct Range {
    std::size_t begin, end;
    std::thread::id thread;
  };
  explicit Trace(std::size_t n) : runs(n) {}
  void record(std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) runs[i].fetch_add(1);
    std::lock_guard lock(mutex);
    ranges.push_back({begin, end, std::this_thread::get_id()});
  }
  std::vector<std::atomic<int>> runs;
  std::mutex mutex;
  std::vector<Range> ranges;
};

TEST(ParallelFor, EveryIndexRunsExactlyOnce) {
  const std::size_t lanes = parallel_lanes();
  ASSERT_GE(lanes, 1u);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, lanes - 1,
                              lanes, 3 * lanes + 1, std::size_t{10007}}) {
    for (const std::size_t asked : {std::size_t{1}, lanes, 4 * lanes}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " lanes=" +
                   std::to_string(asked));
      Trace trace(n);
      parallel_for(n, asked, [&](std::size_t begin, std::size_t end) {
        trace.record(begin, end);
      });
      for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(trace.runs[i].load(), 1);
      if (n == 0) {
        EXPECT_TRUE(trace.ranges.empty());
        continue;
      }
      // Contiguous, non-empty ranges, no more than the lanes asked for or
      // the CPUs allow; the caller runs the one that starts at 0.
      EXPECT_LE(trace.ranges.size(), std::min({n, asked, lanes}));
      std::size_t covered = 0;
      for (const Trace::Range& range : trace.ranges) {
        EXPECT_LT(range.begin, range.end);
        covered += range.end - range.begin;
        if (range.begin == 0) {
          EXPECT_EQ(range.thread, std::this_thread::get_id());
        }
      }
      EXPECT_EQ(covered, n);
    }
  }
}

TEST(ParallelFor, CallWhileWorkersAreBusyRunsInline) {
  // One thread's call holds the workers: each of its ranges waits until
  // the second call below is done.  That call must not wait for the
  // workers; it runs its whole range on its own thread.
  const std::size_t lanes = parallel_lanes();
  std::atomic<std::size_t> entered{0};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    parallel_for(lanes, lanes, [&](std::size_t, std::size_t) {
      entered.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    });
  });
  while (entered.load() == 0) std::this_thread::yield();

  Trace trace(1000);
  parallel_for(1000, lanes, [&](std::size_t begin, std::size_t end) {
    trace.record(begin, end);
  });
  release.store(true);
  holder.join();

  ASSERT_EQ(trace.ranges.size(), 1u);
  EXPECT_EQ(trace.ranges[0].begin, 0u);
  EXPECT_EQ(trace.ranges[0].end, 1000u);
  EXPECT_EQ(trace.ranges[0].thread, std::this_thread::get_id());
  for (std::size_t i = 0; i < 1000; ++i) EXPECT_EQ(trace.runs[i].load(), 1);
}

TEST(ParallelFor, NestedCallRunsInline) {
  // A range that calls parallel_for, on the calling thread or on a
  // worker, finds the workers busy: the inner call runs inline.
  const std::size_t lanes = parallel_lanes();
  constexpr std::size_t kInner = 100;
  std::vector<std::atomic<int>> runs(lanes * kInner);
  std::atomic<std::size_t> split{0};
  parallel_for(lanes, lanes, [&](std::size_t begin, std::size_t end) {
    for (std::size_t r = begin; r < end; ++r) {
      const std::thread::id self = std::this_thread::get_id();
      parallel_for(kInner, lanes, [&](std::size_t b, std::size_t e) {
        if (std::this_thread::get_id() != self || b != 0 || e != kInner)
          ++split;
        for (std::size_t i = b; i < e; ++i) runs[r * kInner + i].fetch_add(1);
      });
    }
  });
  EXPECT_EQ(split.load(), 0u);
  for (const std::atomic<int>& r : runs) EXPECT_EQ(r.load(), 1);
}

TEST(ParallelFor, ConcurrentCallersEachCoverTheirOwnRange) {
  // Four threads call at once: one fans out, the others run inline, and
  // every call still runs each of its own indices exactly once.
  constexpr std::size_t kCallers = 4;
  constexpr std::size_t kCalls = 200;
  constexpr std::size_t kN = 257;
  std::atomic<std::size_t> wrong{0};
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c)
    callers.emplace_back([&] {
      std::vector<int> runs(kN);
      for (std::size_t call = 0; call < kCalls; ++call) {
        std::fill(runs.begin(), runs.end(), 0);
        parallel_for(kN, parallel_lanes(),
                     [&](std::size_t begin, std::size_t end) {
                       for (std::size_t i = begin; i < end; ++i) ++runs[i];
                     });
        for (const int r : runs) wrong += r != 1;
      }
    });
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(wrong.load(), 0u);
}

TEST(ParallelFor, AnExceptionReachesTheCallerAfterEveryRange) {
  const std::size_t lanes = parallel_lanes();
  for (const std::size_t thrower : {std::size_t{0}, lanes - 1}) {
    SCOPED_TRACE("range starting at " + std::to_string(thrower));
    std::atomic<std::size_t> done{0};
    EXPECT_THROW(
        parallel_for(lanes, lanes,
                     [&](std::size_t begin, std::size_t end) {
                       if (begin == thrower)
                         throw std::runtime_error("range failed");
                       done += end - begin;
                     }),
        std::runtime_error);
    // Every other range finished before the call returned.
    EXPECT_EQ(done.load(), lanes - 1);
  }
}

}  // namespace
}  // namespace pdl::io
