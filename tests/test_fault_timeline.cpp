// Multi-failure regression tests for the fault-injection scenario engine:
// deterministic timelines with exact expectations -- a second failure
// mid-rebuild flags data loss exactly when an unrecovered XOR stripe loses
// two units (and a Reed-Solomon stripe only beyond two), distributed
// sparing declusters rebuild writes within one unit of the flow bound,
// each failure's rebuild holds only the units it lost, and fixed seeds
// reproduce bit-identical ScenarioResults.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "api/array.hpp"
#include "layout/metrics.hpp"
#include "layout/ring_layout.hpp"
#include "layout/sparing.hpp"
#include "sim/fault_timeline.hpp"
#include "sim/rebuild_scheduler.hpp"
#include "sim/scenario.hpp"

namespace pdl::sim {
namespace {

const DiskParams kDisk{10.0, 2.0};  // 12 ms per single-unit access

ScenarioConfig config_with(std::uint32_t depth = 4, double delay = 0.0) {
  return ScenarioConfig{kDisk, depth, delay};
}

/// A healthy XOR array over `layout` (dedicated replacement).
api::Array adopt(layout::Layout layout) {
  return api::Array::adopt(std::move(layout)).value();
}

/// A healthy XOR array over `layout` with its distributed spares.
api::Array adopt_spared(const layout::Layout& layout) {
  return api::Array::adopt_spared(layout::add_distributed_sparing(layout))
      .value();
}

/// The complete design on 4 disks with k = 3: stripes {0,1,2}, {0,1,3},
/// {0,2,3}, {1,2,3}.  Disks 0 and 1 share exactly two stripes, so failing
/// both loses exactly two stripes.
layout::Layout tiny_layout() {
  layout::Layout l(4, 3);
  l.append_stripe({0, 1, 2}, 0);
  l.append_stripe({0, 1, 3}, 1);
  l.append_stripe({0, 2, 3}, 2);
  l.append_stripe({1, 2, 3}, 0);
  return l;
}

TEST(FaultTimeline, ScriptedSortsAndValidates) {
  const auto t =
      FaultTimeline::scripted({{50.0, 3}, {10.0, 1}, {30.0, 2}});
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t.failures()[0], (FaultEvent{10.0, 1}));
  EXPECT_EQ(t.failures()[1], (FaultEvent{30.0, 2}));
  EXPECT_EQ(t.failures()[2], (FaultEvent{50.0, 3}));
  EXPECT_THROW(FaultTimeline::scripted({{-1.0, 0}}), std::invalid_argument);
  EXPECT_THROW(FaultTimeline::scripted({{0.0, 0}, {5.0, 0}}),
               std::invalid_argument);
}

TEST(FaultTimeline, RandomIsDeterministicAndBounded) {
  const RandomFaultConfig cfg{
      .num_disks = 12, .mean_arrival_ms = 100.0, .horizon_ms = 1000.0,
      .max_failures = 4, .seed = 99};
  const auto a = FaultTimeline::random(cfg);
  const auto b = FaultTimeline::random(cfg);
  EXPECT_EQ(a.failures(), b.failures());
  EXPECT_LE(a.size(), 4u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_LE(a.failures()[i].time_ms, 1000.0);
    EXPECT_LT(a.failures()[i].disk, 12u);
    if (i > 0) {
      EXPECT_GE(a.failures()[i].time_ms, a.failures()[i - 1].time_ms);
    }
  }
  const auto c = FaultTimeline::random(
      {.num_disks = 12, .mean_arrival_ms = 100.0, .horizon_ms = 1000.0,
       .max_failures = 4, .seed = 100});
  EXPECT_NE(a.failures(), c.failures());
}

TEST(Scenario, SingleFailureMatchesReconstructionMatrix) {
  const auto layout = layout::ring_based_layout(9, 3);
  const ScenarioSimulator sim(adopt(layout), config_with());
  const auto fifo = make_fifo_scheduler();
  const auto result =
      sim.run(FaultTimeline::scripted({{0.0, 2}}), {}, *fifo);

  // Row 2 of the matrix: what each survivor reads when disk 2 fails.
  const auto matrix = layout::reconstruction_matrix(layout);
  std::uint64_t total_reads = 0;
  for (layout::DiskId d = 0; d < 9; ++d) total_reads += matrix[2 * 9 + d];
  // Every stripe crossing disk 2 is rebuilt once.
  const std::uint64_t crossing = total_reads / 2;  // k-1 reads each
  ASSERT_EQ(result.rebuilds.size(), 1u);
  EXPECT_EQ(result.rebuilds[0].disk, 2u);
  EXPECT_EQ(result.rebuilds[0].stripes_rebuilt, crossing);
  EXPECT_GT(result.rebuilds[0].end_ms, 0.0);
  EXPECT_FALSE(result.data_loss);
  EXPECT_EQ(result.stripe_instances_lost, 0u);

  for (layout::DiskId d = 0; d < 9; ++d) {
    EXPECT_EQ(result.rebuild_reads_per_disk[d], matrix[2 * 9 + d])
        << "disk " << d;
  }
  // Dedicated mode: every rebuilt unit is written in place on the failed
  // disk's replacement.
  for (layout::DiskId d = 0; d < 9; ++d) {
    EXPECT_EQ(result.rebuild_writes_per_disk[d], d == 2 ? crossing : 0u);
  }

  // Timeline: failure -> rebuild_start -> repair_complete, phases pure
  // rebuilding (normal and restored spans are empty without user traffic).
  ASSERT_GE(result.events.size(), 3u);
  EXPECT_EQ(result.events[0].kind, ScenarioEventKind::kFailure);
  EXPECT_EQ(result.events[1].kind, ScenarioEventKind::kRebuildStart);
  EXPECT_EQ(result.events.back().kind, ScenarioEventKind::kRepairComplete);
  ASSERT_EQ(result.phases.size(), 1u);
  EXPECT_EQ(result.phases[0].phase, ScenarioPhase::kRebuilding);
  EXPECT_DOUBLE_EQ(result.phases[0].end_ms, result.rebuilds[0].end_ms);
}

TEST(Scenario, RebuildDelayOpensADegradedPhase) {
  const ScenarioSimulator sim(adopt(layout::ring_based_layout(9, 3)),
                              config_with(4, /*delay=*/50.0));
  const auto fifo = make_fifo_scheduler();
  const auto result =
      sim.run(FaultTimeline::scripted({{0.0, 0}}), {}, *fifo);
  ASSERT_GE(result.phases.size(), 2u);
  EXPECT_EQ(result.phases[0].phase, ScenarioPhase::kDegraded);
  EXPECT_DOUBLE_EQ(result.phases[0].start_ms, 0.0);
  EXPECT_DOUBLE_EQ(result.phases[0].end_ms, 50.0);
  EXPECT_EQ(result.phases[1].phase, ScenarioPhase::kRebuilding);
  ASSERT_EQ(result.rebuilds.size(), 1u);
  EXPECT_DOUBLE_EQ(result.rebuilds[0].start_ms, 50.0);
}

TEST(Scenario, SequentialFailuresAfterRestoreLoseNothing) {
  const ScenarioSimulator sim(adopt(layout::ring_based_layout(9, 3)),
                              config_with());
  const auto fifo = make_fifo_scheduler();
  const auto first =
      sim.run(FaultTimeline::scripted({{0.0, 0}}), {}, *fifo);
  const double restored_at = first.rebuilds[0].end_ms;

  const auto result = sim.run(
      FaultTimeline::scripted({{0.0, 0}, {restored_at + 1.0, 5}}), {}, *fifo);
  EXPECT_FALSE(result.data_loss);
  EXPECT_EQ(result.stripe_instances_lost, 0u);
  ASSERT_EQ(result.rebuilds.size(), 2u);
  EXPECT_EQ(result.rebuilds[1].disk, 5u);
  // Between the two rebuilds the array sat restored.
  ASSERT_GE(result.phases.size(), 3u);
  EXPECT_EQ(result.phases[0].phase, ScenarioPhase::kRebuilding);
  EXPECT_EQ(result.phases[1].phase, ScenarioPhase::kRestored);
  EXPECT_EQ(result.phases[2].phase, ScenarioPhase::kRebuilding);
}

TEST(Scenario, ConcurrentDoubleFailureLosesExactlySharedStripes) {
  const ScenarioSimulator sim(adopt(tiny_layout()), config_with());
  const auto fifo = make_fifo_scheduler();
  const auto result = sim.run(
      FaultTimeline::scripted({{0.0, 0}, {0.0, 1}}), {}, *fifo);

  // Disks 0 and 1 share stripes {0,1,2} and {0,1,3}: exactly those two
  // are unrecoverable; stripes {0,2,3} and {1,2,3} each lost one unit and
  // rebuild fine.
  EXPECT_TRUE(result.data_loss);
  EXPECT_DOUBLE_EQ(result.first_data_loss_ms, 0.0);
  EXPECT_EQ(result.stripe_instances_lost, 2u);
  std::uint64_t rebuilt = 0;
  for (const RebuildSpan& span : result.rebuilds) rebuilt += span.stripes_rebuilt;
  EXPECT_EQ(rebuilt, 2u);
  const bool has_data_loss_event =
      std::any_of(result.events.begin(), result.events.end(),
                  [](const ScenarioEvent& e) {
                    return e.kind == ScenarioEventKind::kDataLoss;
                  });
  EXPECT_TRUE(has_data_loss_event);
}

TEST(Scenario, ReedSolomonSurvivesTwoFailures) {
  // P+Q parity bears any two concurrent failures: disks 0 and 8 both fail
  // before either rebuild starts, and every request is still served.
  const auto array = api::Array::create(
      {.num_disks = 17, .stripe_size = 5}, {},
      {.codec = core::CodecKind::kReedSolomonPQ});
  ASSERT_TRUE(array.ok()) << array.status().to_string();
  const ScenarioSimulator sim(*array, config_with(4, /*delay=*/100.0));
  const auto requests = generate_workload({.arrival_per_ms = 0.05,
                                           .write_fraction = 0.4,
                                           .working_set = sim.working_set(),
                                           .duration_ms = 3000.0,
                                           .seed = 13});
  const auto fifo = make_fifo_scheduler();

  const auto two =
      sim.run(FaultTimeline::scripted({{0.0, 0}, {1.0, 8}}), requests, *fifo);
  EXPECT_FALSE(two.data_loss);
  EXPECT_EQ(two.stripe_instances_lost, 0u);
  EXPECT_EQ(two.unserved_reads, 0u);
  EXPECT_EQ(two.unserved_writes, 0u);
  ASSERT_EQ(two.rebuilds.size(), 2u);
  for (const RebuildSpan& span : two.rebuilds) {
    EXPECT_GT(span.stripes_rebuilt, 0u) << "disk " << span.disk;
    EXPECT_GT(span.end_ms, span.start_ms) << "disk " << span.disk;
    EXPECT_TRUE(std::count(two.events.begin(), two.events.end(),
                           ScenarioEvent{span.end_ms,
                                         ScenarioEventKind::kRepairComplete,
                                         span.disk}) == 1)
        << "disk " << span.disk;
  }
  ASSERT_FALSE(two.phases.empty());
  EXPECT_EQ(two.phases.back().phase, ScenarioPhase::kRestored);

  // A third failure before either rebuild starts loses exactly the stripes
  // the array itself loses to the same three failures.
  api::Array probe = *array;
  for (const layout::DiskId disk : {0u, 8u, 2u})
    ASSERT_TRUE(probe.fail_disk(disk).ok());
  EXPECT_EQ(probe.stripes_lost(), 2u);
  const auto three = sim.run(
      FaultTimeline::scripted({{0.0, 0}, {1.0, 8}, {2.0, 2}}), requests,
      *fifo);
  EXPECT_TRUE(three.data_loss);
  EXPECT_EQ(three.stripe_instances_lost, probe.stripes_lost());
}

TEST(Scenario, SecondFailureMidRebuildLosesOnlyUnrecoveredSharedStripes) {
  // Fail disk 0 at t = 0 and disk 1 while the first rebuild is running:
  // shared stripe instances already rebuilt survive, unrebuilt ones are
  // lost -- data loss happens exactly when an unrecovered stripe loses its
  // second unit.
  const auto layout = layout::ring_based_layout(9, 3);
  const ScenarioSimulator sim(adopt(layout), config_with(/*depth=*/1));
  const auto fifo = make_fifo_scheduler();
  const auto solo = sim.run(FaultTimeline::scripted({{0.0, 0}}), {}, *fifo);
  const double mid = solo.rebuilds[0].end_ms / 2.0;

  const auto result =
      sim.run(FaultTimeline::scripted({{0.0, 0}, {mid, 1}}), {}, *fifo);
  const auto matrix = layout::reconstruction_matrix(layout);
  const std::uint64_t shared = matrix[0 * 9 + 1];  // stripes with both disks
  EXPECT_TRUE(result.data_loss);
  EXPECT_GT(result.stripe_instances_lost, 0u);
  EXPECT_LT(result.stripe_instances_lost, shared);
  EXPECT_DOUBLE_EQ(result.first_data_loss_ms, mid);

  // Exactness: every stripe crossing disk 0 is rebuilt or lost once, every
  // stripe crossing disk 1 is rebuilt or lost once, and each lost shared
  // stripe accounts for one unrebuilt unit on each side -- so
  //   rebuilt + 2 * lost == crossings(0) + crossings(1).
  std::uint64_t rebuilt = 0;
  for (const RebuildSpan& span : result.rebuilds) rebuilt += span.stripes_rebuilt;
  const auto crossings = [&layout](layout::DiskId disk) {
    std::uint64_t n = 0;
    for (const layout::Stripe& st : layout.stripes()) {
      for (const layout::StripeUnit& u : st.units) {
        if (u.disk == disk) {
          ++n;
          break;
        }
      }
    }
    return n;
  };
  EXPECT_EQ(rebuilt + 2 * result.stripe_instances_lost,
            crossings(0) + crossings(1));
}

TEST(Scenario, DistributedSparingDeclustersRebuildWrites) {
  const auto spared =
      layout::add_distributed_sparing(layout::ring_based_layout(9, 3));
  const ScenarioSimulator sim(api::Array::adopt_spared(spared).value(),
                              config_with());
  const auto fifo = make_fifo_scheduler();
  const layout::DiskId failed = 3;
  const auto result =
      sim.run(FaultTimeline::scripted({{0.0, failed}}), {}, *fifo);

  EXPECT_FALSE(result.data_loss);
  // Rebuild writes land exactly where layout/sparing's offline analysis
  // says the spare units are -- never on the failed disk.
  const auto expected = layout::distributed_rebuild_writes(spared, failed);
  for (layout::DiskId d = 0; d < 9; ++d) {
    EXPECT_EQ(result.rebuild_writes_per_disk[d], expected[d]) << "disk " << d;
  }
  EXPECT_EQ(result.rebuild_writes_per_disk[failed], 0u);

  // Within one unit of the mean write load over the surviving disks.
  std::uint64_t total = 0, max_w = 0;
  for (layout::DiskId d = 0; d < 9; ++d) {
    if (d == failed) continue;
    total += result.rebuild_writes_per_disk[d];
    max_w = std::max(max_w, result.rebuild_writes_per_disk[d]);
  }
  const double mean = static_cast<double>(total) / 8.0;
  EXPECT_LE(static_cast<double>(max_w), mean + 1.0);

  // The failed disk is never accessed after t = 0 (no user traffic).
  EXPECT_EQ(result.disk_accesses[failed], 0u);
}

/// Checks that each failure's rebuild span restores exactly `owned[disk]`
/// units, starts no sooner than `delay` after that failure, and ends at
/// that failure's only repair-complete event.
void expect_own_batches(const ScenarioResult& result,
                        const std::vector<FaultEvent>& failures, double delay,
                        const std::vector<std::uint64_t>& owned) {
  ASSERT_EQ(result.rebuilds.size(), failures.size());
  for (const FaultEvent& failure : failures) {
    const auto span = std::find_if(
        result.rebuilds.begin(), result.rebuilds.end(),
        [&](const RebuildSpan& s) { return s.disk == failure.disk; });
    ASSERT_NE(span, result.rebuilds.end()) << "disk " << failure.disk;
    EXPECT_GE(span->start_ms, failure.time_ms + delay) << "disk " << span->disk;
    EXPECT_EQ(span->stripes_rebuilt, owned[span->disk]) << "disk " << span->disk;
    const auto completes = [&](const ScenarioEvent& e) {
      return e.kind == ScenarioEventKind::kRepairComplete &&
             e.disk == span->disk;
    };
    EXPECT_EQ(std::count_if(result.events.begin(), result.events.end(),
                            completes),
              1)
        << "disk " << span->disk;
    const auto done =
        std::find_if(result.events.begin(), result.events.end(), completes);
    ASSERT_NE(done, result.events.end()) << "disk " << span->disk;
    EXPECT_EQ(done->time_ms, span->end_ms) << "disk " << span->disk;
  }
}

TEST(Scenario, SparedFailuresRebuildInTheirOwnBatches) {
  // plan_rebuild offers a lost unit as soon as its stripe's spare can take
  // it, even while the failure that lost it waits out its rebuild delay.
  // Each failure's span must still hold only the units it lost.
  const double delay = 50.0;
  const auto spared =
      layout::add_distributed_sparing(layout::ring_based_layout(9, 3));
  const api::Array healthy = api::Array::adopt_spared(spared).value();
  const ScenarioSimulator sim(healthy, config_with(4, delay));
  const auto fifo = make_fifo_scheduler();
  const auto& stripes = spared.layout.stripes();
  const auto home_of = [&](const api::RebuildStep& step) {
    return stripes[step.stripe].units[step.lost_pos].disk;
  };

  // Disk 4 fails while disk 0 waits for its replacement: disk 4's units
  // are rebuilt from its own ready time on, after 60 ms.
  const std::vector<FaultEvent> both{{0.0, 0}, {10.0, 4}};
  api::Array probe = healthy;
  for (const FaultEvent& f : both) ASSERT_TRUE(probe.fail_disk(f.disk).ok());
  for (const FaultEvent& f : both) ASSERT_TRUE(probe.replace_disk(f.disk).ok());
  std::vector<std::uint64_t> owned(9, 0);
  api::RebuildPlan plan = probe.plan_rebuild().value();
  for (const api::RebuildStep& step : plan.steps) ++owned[home_of(step)];
  ASSERT_GT(owned[0], 0u);
  ASSERT_GT(owned[4], 0u);
  const auto result = sim.run(FaultTimeline::scripted(both), {}, *fifo);
  EXPECT_EQ(result.stripe_instances_lost, probe.stripes_lost());
  expect_own_batches(result, both, delay, owned);

  // Once disk 0 is rebuilt into spares, disks 3 and 5 fail 10 ms apart.
  // A unit of disk 0 re-lost with disk 5's spare waits for disk 5's
  // replacement, not disk 3's, although its home slot is writable.
  const RebuildSpan solo =
      sim.run(FaultTimeline::scripted({{0.0, 0}}), {}, *fifo).rebuilds.at(0);
  const std::vector<FaultEvent> three{
      {0.0, 0}, {solo.end_ms + 100.0, 3}, {solo.end_ms + 110.0, 5}};
  probe = healthy;
  ASSERT_TRUE(probe.fail_disk(0).ok());
  ASSERT_TRUE(probe.replace_disk(0).ok());
  ASSERT_TRUE(probe.rebuild().ok());
  for (const layout::DiskId disk : {3u, 5u})
    ASSERT_TRUE(probe.fail_disk(disk).ok());
  for (const layout::DiskId disk : {3u, 5u})
    ASSERT_TRUE(probe.replace_disk(disk).ok());
  owned.assign(9, 0);
  std::uint64_t relost = 0;
  plan = probe.plan_rebuild().value();
  for (const api::RebuildStep& step : plan.steps) {
    const layout::DiskId home = home_of(step);
    if (home != 0) {
      ++owned[home];
      continue;
    }
    ++relost;  // its copy sat in the stripe's spare
    ++owned[stripes[step.stripe].units[spared.spare_pos[step.stripe]].disk];
  }
  ASSERT_GT(relost, 0u);
  owned[0] = solo.stripes_rebuilt;  // done before disk 3 fails
  const auto later = sim.run(FaultTimeline::scripted(three), {}, *fifo);
  EXPECT_EQ(later.stripe_instances_lost, probe.stripes_lost());
  expect_own_batches(later, three, delay, owned);
}

TEST(Scenario, ThrottledSchedulerStretchesTheRebuild) {
  const ScenarioSimulator sim(adopt(layout::ring_based_layout(9, 3)),
                              config_with());
  const auto fifo = make_fifo_scheduler();
  const auto throttled = make_throttled_scheduler(0.5);
  const auto fast = sim.run(FaultTimeline::scripted({{0.0, 0}}), {}, *fifo);
  const auto slow =
      sim.run(FaultTimeline::scripted({{0.0, 0}}), {}, *throttled);
  EXPECT_EQ(fast.rebuilds[0].stripes_rebuilt, slow.rebuilds[0].stripes_rebuilt);
  EXPECT_GT(slow.rebuilds[0].end_ms, fast.rebuilds[0].end_ms);
}

TEST(Scenario, MaxParallelismSchedulerMatchesReadTotals) {
  const ScenarioSimulator sim(adopt(layout::ring_based_layout(9, 3)),
                              config_with(/*depth=*/4));
  const auto fifo = make_fifo_scheduler();
  const auto mp = make_max_parallelism_scheduler();
  const auto a = sim.run(FaultTimeline::scripted({{0.0, 0}}), {}, *fifo);
  const auto b = sim.run(FaultTimeline::scripted({{0.0, 0}}), {}, *mp);
  // Ordering changes timing, never the work: per-disk totals must agree.
  EXPECT_EQ(a.rebuild_reads_per_disk, b.rebuild_reads_per_disk);
  EXPECT_EQ(a.rebuild_writes_per_disk, b.rebuild_writes_per_disk);
  EXPECT_EQ(a.rebuilds[0].stripes_rebuilt, b.rebuilds[0].stripes_rebuilt);
}

TEST(Scenario, UnservedRequestsAreCountedNotTimed) {
  const api::Array array = adopt(tiny_layout());
  const ScenarioSimulator sim(array, config_with());
  const auto fifo = make_fifo_scheduler();
  // Find a logical data unit living on disk 0 in a stripe shared with
  // disk 1 (stripes 0 and 1 of tiny_layout).
  std::vector<Request> reqs;
  for (std::uint64_t l = 0; l < sim.working_set(); ++l) {
    const auto where = array.map(l);
    if (where.disk == 0) {
      reqs.push_back({100000.0, l, false});  // read well after the failures
      break;
    }
  }
  ASSERT_EQ(reqs.size(), 1u);
  const auto result = sim.run(
      FaultTimeline::scripted({{0.0, 0}, {0.0, 1}}), reqs, *fifo);
  EXPECT_TRUE(result.data_loss);
  EXPECT_EQ(result.unserved_reads, 1u);
  EXPECT_EQ(result.user.read_latency_ms.count(), 0u);
}

TEST(Scenario, FixedSeedReproducesBitIdenticalResults) {
  const ScenarioSimulator sim(adopt_spared(layout::ring_based_layout(9, 3)),
                              config_with(4, 25.0));
  const auto timeline = FaultTimeline::random(
      {.num_disks = 9, .mean_arrival_ms = 800.0, .horizon_ms = 3000.0,
       .max_failures = 2, .seed = 7});
  const WorkloadConfig wconfig{.arrival_per_ms = 0.05,
                               .write_fraction = 0.4,
                               .working_set = sim.working_set(),
                               .duration_ms = 4000.0,
                               .seed = 13};
  const auto requests = generate_workload(wconfig);
  const auto scheduler = make_throttled_scheduler(0.7);

  const auto a = sim.run(timeline, requests, *scheduler);
  const auto b = sim.run(timeline, requests, *scheduler);

  EXPECT_EQ(a.horizon_ms, b.horizon_ms);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.data_loss, b.data_loss);
  EXPECT_EQ(a.stripe_instances_lost, b.stripe_instances_lost);
  EXPECT_EQ(a.rebuild_reads_per_disk, b.rebuild_reads_per_disk);
  EXPECT_EQ(a.rebuild_writes_per_disk, b.rebuild_writes_per_disk);
  EXPECT_EQ(a.disk_busy_ms, b.disk_busy_ms);
  EXPECT_EQ(a.disk_accesses, b.disk_accesses);
  EXPECT_EQ(a.user.read_latency_ms.count(), b.user.read_latency_ms.count());
  EXPECT_EQ(a.user.read_latency_ms.mean(), b.user.read_latency_ms.mean());
  EXPECT_EQ(a.user.write_latency_ms.mean(), b.user.write_latency_ms.mean());
  ASSERT_EQ(a.phases.size(), b.phases.size());
  for (std::size_t i = 0; i < a.phases.size(); ++i) {
    EXPECT_EQ(a.phases[i].phase, b.phases[i].phase);
    EXPECT_EQ(a.phases[i].start_ms, b.phases[i].start_ms);
    EXPECT_EQ(a.phases[i].end_ms, b.phases[i].end_ms);
    EXPECT_EQ(a.phases[i].disk_busy_ms, b.phases[i].disk_busy_ms);
    EXPECT_EQ(a.phases[i].disk_accesses, b.phases[i].disk_accesses);
  }
}

// Every figure a fixed-seed run reports, pinned exactly: the engine under
// ScenarioSimulator may change, these outputs may not.
struct PinnedPhase {
  ScenarioPhase phase = ScenarioPhase::kNormal;
  double start_ms = 0.0;
  double end_ms = 0.0;
  double read_mean_ms = 0.0;
  double write_mean_ms = 0.0;
};

struct PinnedRun {
  double horizon_ms = 0.0;
  std::vector<ScenarioEvent> events;
  std::vector<RebuildSpan> rebuilds;
  std::vector<std::uint64_t> rebuild_reads_per_disk;
  std::vector<std::uint64_t> rebuild_writes_per_disk;
  std::vector<PinnedPhase> phases;
  std::uint64_t stripe_instances_lost = 0;
  std::uint64_t unserved_reads = 0;
  std::uint64_t unserved_writes = 0;
};

void expect_pinned(const ScenarioResult& got, const PinnedRun& want) {
  EXPECT_DOUBLE_EQ(got.horizon_ms, want.horizon_ms);
  EXPECT_EQ(got.events, want.events);
  ASSERT_EQ(got.rebuilds.size(), want.rebuilds.size());
  for (std::size_t i = 0; i < want.rebuilds.size(); ++i) {
    SCOPED_TRACE("rebuild " + std::to_string(i));
    EXPECT_EQ(got.rebuilds[i].disk, want.rebuilds[i].disk);
    EXPECT_DOUBLE_EQ(got.rebuilds[i].start_ms, want.rebuilds[i].start_ms);
    EXPECT_DOUBLE_EQ(got.rebuilds[i].end_ms, want.rebuilds[i].end_ms);
    EXPECT_EQ(got.rebuilds[i].stripes_rebuilt,
              want.rebuilds[i].stripes_rebuilt);
  }
  EXPECT_EQ(got.rebuild_reads_per_disk, want.rebuild_reads_per_disk);
  EXPECT_EQ(got.rebuild_writes_per_disk, want.rebuild_writes_per_disk);
  ASSERT_EQ(got.phases.size(), want.phases.size());
  for (std::size_t i = 0; i < want.phases.size(); ++i) {
    SCOPED_TRACE("phase " + std::to_string(i));
    const PhaseRecord& phase = got.phases[i];
    EXPECT_EQ(phase.phase, want.phases[i].phase);
    EXPECT_DOUBLE_EQ(phase.start_ms, want.phases[i].start_ms);
    EXPECT_DOUBLE_EQ(phase.end_ms, want.phases[i].end_ms);
    EXPECT_DOUBLE_EQ(phase.user.read_latency_ms.mean(),
                     want.phases[i].read_mean_ms);
    EXPECT_DOUBLE_EQ(phase.user.write_latency_ms.mean(),
                     want.phases[i].write_mean_ms);
  }
  EXPECT_EQ(got.data_loss, want.stripe_instances_lost > 0);
  EXPECT_EQ(got.stripe_instances_lost, want.stripe_instances_lost);
  EXPECT_EQ(got.unserved_reads, want.unserved_reads);
  EXPECT_EQ(got.unserved_writes, want.unserved_writes);
}

TEST(Scenario, FixedSeedOutputsArePinned) {
  const ScenarioConfig config{
      .disk = kDisk, .rebuild_depth = 4, .rebuild_delay_ms = 50.0};
  const auto dedicated_array =
      api::Array::adopt(layout::ring_based_layout(9, 3));
  const auto spared_array = api::Array::adopt_spared(
      layout::add_distributed_sparing(layout::ring_based_layout(9, 3)));
  ASSERT_TRUE(dedicated_array.ok() && spared_array.ok());
  const ScenarioSimulator dedicated(*dedicated_array, config);
  const ScenarioSimulator spared(*spared_array, config);
  const auto workload = [](std::uint64_t working_set) {
    return generate_workload({.arrival_per_ms = 0.05,
                              .write_fraction = 0.4,
                              .working_set = working_set,
                              .duration_ms = 1500.0,
                              .seed = 13});
  };
  const auto fifo = make_fifo_scheduler();
  using Kind = ScenarioEventKind;
  using Phase = ScenarioPhase;

  {
    SCOPED_TRACE("one failure, dedicated replacement");
    expect_pinned(
        dedicated.run(FaultTimeline::scripted({{100.0, 2}}),
                      workload(dedicated.working_set()), *fifo),
        {.horizon_ms = 1507.8703609434858,
         .events = {{100, Kind::kFailure, 2},
                    {150, Kind::kRebuildStart, 2},
                    {462, Kind::kRepairComplete, 2}},
         .rebuilds = {{2, 150, 462, 24}},
         .rebuild_reads_per_disk = {6, 6, 0, 6, 6, 6, 6, 6, 6},
         .rebuild_writes_per_disk = {0, 0, 24, 0, 0, 0, 0, 0, 0},
         .phases = {{Phase::kNormal, 0, 100, 12, 24},
                    {Phase::kDegraded, 100, 150, 17.975881296687874, 0},
                    {Phase::kRebuilding, 150, 462, 16.472721019923437,
                     36.790938604738933},
                    {Phase::kRestored, 462, 1507.8703609434858,
                     13.584242738017789, 35.094124626834997}}});
  }
  {
    SCOPED_TRACE("disks 0 and 4, the second mid-rebuild of the first");
    expect_pinned(
        dedicated.run(FaultTimeline::scripted({{100.0, 0}, {300.0, 4}}),
                      workload(dedicated.working_set()), *fifo),
        {.horizon_ms = 1507.8703609434858,
         .events = {{100, Kind::kFailure, 0},
                    {150, Kind::kRebuildStart, 0},
                    {300, Kind::kFailure, 4},
                    {300, Kind::kDataLoss, 4},
                    {390, Kind::kRebuildStart, 4},
                    {438, Kind::kRepairComplete, 0},
                    {688.28361502163921, Kind::kRepairComplete, 4}},
         .rebuilds = {{0, 150, 438, 20}, {4, 390, 688.28361502163921, 20}},
         .rebuild_reads_per_disk = {2, 12, 12, 12, 2, 12, 12, 12, 4},
         .rebuild_writes_per_disk = {20, 0, 0, 0, 20, 0, 0, 0, 0},
         .phases = {{Phase::kNormal, 0, 100, 12, 24},
                    {Phase::kDegraded, 100, 150, 12, 0},
                    {Phase::kRebuilding, 150, 688.28361502163921,
                     13.489343799159732, 40.501755439991179},
                    {Phase::kRestored, 688.28361502163921,
                     1507.8703609434858, 13.322226916775,
                     36.276411694418073}},
         .stripe_instances_lost = 4,
         .unserved_reads = 5,
         .unserved_writes = 1});
  }
  {
    SCOPED_TRACE("one failure, distributed sparing");
    expect_pinned(
        spared.run(FaultTimeline::scripted({{100.0, 2}}),
                   workload(spared.working_set()), *fifo),
        {.horizon_ms = 1507.8703609434858,
         .events = {{100, Kind::kFailure, 2},
                    {150, Kind::kRebuildStart, 2},
                    {287.18155372631304, Kind::kRepairComplete, 2}},
         .rebuilds = {{2, 150, 287.18155372631304, 16}},
         .rebuild_reads_per_disk = {2, 2, 0, 2, 2, 2, 2, 2, 2},
         .rebuild_writes_per_disk = {2, 2, 0, 2, 2, 2, 2, 2, 2},
         .phases = {{Phase::kNormal, 0, 100, 12, 24},
                    {Phase::kDegraded, 100, 150, 17.975881296687874, 0},
                    {Phase::kRebuilding, 150, 287.18155372631304,
                     18.900611053538, 26.71414188353171},
                    {Phase::kRestored, 287.18155372631304,
                     1507.8703609434858, 13.712019050998721,
                     33.510303442119692}}});
  }
}

TEST(Scenario, RejectsInvalidInputs) {
  api::Array array = adopt(layout::ring_based_layout(5, 3));
  EXPECT_THROW(ScenarioSimulator(array, ScenarioConfig{kDisk, 0, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(ScenarioSimulator(array, ScenarioConfig{kDisk, 1, -1.0}),
               std::invalid_argument);
  const ScenarioSimulator sim(array, config_with());
  ASSERT_TRUE(array.fail_disk(1).ok());  // the simulator kept its own copy
  EXPECT_THROW(ScenarioSimulator(array, config_with()), std::invalid_argument);
  const auto fifo = make_fifo_scheduler();
  EXPECT_THROW(
      (void)sim.run(FaultTimeline::scripted({{0.0, 9}}), {}, *fifo),
      std::invalid_argument);
  const std::vector<Request> beyond = {{0.0, sim.working_set(), false}};
  EXPECT_THROW(
      (void)sim.run(FaultTimeline::scripted({}), beyond, *fifo),
      std::invalid_argument);
}

TEST(Scheduler, FactoryKnowsAllPolicies) {
  for (const std::string_view name : scheduler_names()) {
    const auto scheduler = make_scheduler(name);
    EXPECT_EQ(scheduler->name(), name);
  }
  EXPECT_THROW((void)make_scheduler("lifo"), std::invalid_argument);
  EXPECT_THROW((void)make_throttled_scheduler(0.0), std::invalid_argument);
  EXPECT_THROW((void)make_throttled_scheduler(1.5), std::invalid_argument);
}

}  // namespace
}  // namespace pdl::sim
