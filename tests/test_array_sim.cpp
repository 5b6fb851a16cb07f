// Single-failure runs of the scenario simulator over an api::Array: healthy
// service (an empty timeline), degraded service (a failure at t = 0 whose
// rebuild starts only after the requests) and rebuild (a failure at t = 0
// rebuilt at once, in place or into distributed spares).

#include <gtest/gtest.h>

#include "api/array.hpp"
#include "layout/metrics.hpp"
#include "layout/raid.hpp"
#include "layout/ring_layout.hpp"
#include "layout/sparing.hpp"
#include "sim/fault_timeline.hpp"
#include "sim/rebuild_scheduler.hpp"
#include "sim/scenario.hpp"

namespace pdl::sim {
namespace {

const DiskParams kDisk{10.0, 2.0};  // 12 ms per single-unit access
/// A rebuild delay no request stream in this file outlasts.
constexpr double kNeverRebuild = 1e9;

api::Array plain(layout::Layout layout) {
  return api::Array::adopt(std::move(layout)).value();
}

api::Array spared(const layout::Layout& layout) {
  return api::Array::adopt_spared(layout::add_distributed_sparing(layout))
      .value();
}

ScenarioResult run(const api::Array& array, const FaultTimeline& timeline,
                   std::span<const Request> requests,
                   std::uint32_t depth = 2, double delay = 0.0) {
  const ScenarioSimulator simulator(array, ScenarioConfig{kDisk, depth, delay});
  return simulator.run(timeline, requests, *make_fifo_scheduler());
}

ScenarioResult run_normal(const api::Array& array,
                          std::span<const Request> requests) {
  return run(array, FaultTimeline::scripted({}), requests);
}

ScenarioResult run_degraded(const api::Array& array,
                            std::span<const Request> requests,
                            layout::DiskId failed) {
  return run(array, FaultTimeline::scripted({{0.0, failed}}), requests, 2,
             kNeverRebuild);
}

ScenarioResult run_rebuild(const api::Array& array,
                           std::span<const Request> requests,
                           layout::DiskId failed, std::uint32_t depth) {
  return run(array, FaultTimeline::scripted({{0.0, failed}}), requests,
             depth);
}

/// Per-disk accesses of the user requests alone: a run's accesses minus
/// its rebuild reads and writes.
std::vector<std::uint64_t> user_accesses(const ScenarioResult& result) {
  std::vector<std::uint64_t> user = result.disk_accesses;
  for (std::size_t d = 0; d < user.size(); ++d)
    user[d] -= result.rebuild_reads_per_disk[d] +
               result.rebuild_writes_per_disk[d];
  return user;
}

TEST(ArraySim, WorkingSetIsTheArraysDataUnits) {
  EXPECT_EQ(ScenarioSimulator(plain(layout::raid5_layout(4, 4)), {})
                .working_set(),
            12u);
  // Spare units hold no data: ring(17, 3) has 272 stripes of 3 units.
  const auto ring = layout::ring_based_layout(17, 3);
  EXPECT_EQ(ScenarioSimulator(plain(ring), {}).working_set(), 544u);
  EXPECT_EQ(ScenarioSimulator(spared(ring), {}).working_set(), 272u);
}

TEST(ArraySim, IdleReadLatencyIsOneAccess) {
  const std::vector<Request> reqs = {{0.0, 0, false}};
  const auto result = run_normal(plain(layout::raid5_layout(4, 4)), reqs);
  EXPECT_EQ(result.user.read_latency_ms.count(), 1u);
  EXPECT_DOUBLE_EQ(result.user.read_latency_ms.mean(), 12.0);
}

TEST(ArraySim, IdleWriteLatencyIsTwoPhases) {
  // Small write: parallel reads (12 ms), then parallel writes (12 ms).
  const std::vector<Request> reqs = {{0.0, 0, true}};
  const auto result = run_normal(plain(layout::raid5_layout(4, 4)), reqs);
  EXPECT_EQ(result.user.write_latency_ms.count(), 1u);
  EXPECT_DOUBLE_EQ(result.user.write_latency_ms.mean(), 24.0);
}

TEST(ArraySim, QueueingDelaysShowUp) {
  // Two simultaneous reads of the same unit serialize on one disk.
  const std::vector<Request> reqs = {{0.0, 0, false}, {0.0, 0, false}};
  auto result = run_normal(plain(layout::raid5_layout(4, 4)), reqs);
  EXPECT_DOUBLE_EQ(result.user.read_latency_ms.max(), 24.0);
  EXPECT_DOUBLE_EQ(result.user.read_latency_ms.min(), 12.0);
}

TEST(ArraySim, DegradedReadFansOutToSurvivors) {
  const api::Array array = plain(layout::ring_based_layout(5, 3));
  // Find a logical unit living on disk 0.
  std::uint64_t on_disk0 = 0;
  while (array.map(on_disk0).disk != 0) ++on_disk0;
  // The failure at t = 0 lands before the read arriving at t = 0.
  const std::vector<Request> reqs = {{0.0, on_disk0, false}};
  const auto degraded = run_degraded(array, reqs, 0);
  // k-1 = 2 parallel reads on two different disks: latency = 12 ms, and
  // two disks were touched.
  EXPECT_DOUBLE_EQ(degraded.user.read_latency_ms.mean(), 12.0);
  const auto user = user_accesses(degraded);
  std::uint64_t touched = 0;
  for (const auto a : user) touched += a;
  EXPECT_EQ(touched, 2u);
  // The failed disk itself was never accessed.
  EXPECT_EQ(user[0], 0u);
}

TEST(ArraySim, DegradedModeNeverTouchesFailedDisk) {
  const api::Array array = plain(layout::ring_based_layout(7, 3));
  const WorkloadConfig wconfig{.arrival_per_ms = 0.05,
                               .write_fraction = 0.5,
                               .working_set = array.data_units_per_iteration(),
                               .duration_ms = 2000.0,
                               .seed = 11};
  const auto result = run_degraded(array, generate_workload(wconfig), 3);
  EXPECT_GT(result.user.read_latency_ms.count(), 0u);
  EXPECT_EQ(user_accesses(result)[3], 0u);
}

TEST(ArraySim, RebuildCompletesAndCountsMatchReconstructionMatrix) {
  const auto layout = layout::ring_based_layout(5, 3);
  const auto result = run_rebuild(plain(layout), {}, /*failed=*/1, 4);

  // Row 1 of the matrix: what each survivor reads when disk 1 fails.
  const auto matrix = layout::reconstruction_matrix(layout);
  std::uint64_t total_reads = 0;
  for (layout::DiskId d = 0; d < 5; ++d) total_reads += matrix[5 + d];
  // One job per stripe crossing disk 1; each reads k-1 = 2 survivors.
  ASSERT_EQ(result.rebuilds.size(), 1u);
  EXPECT_EQ(result.rebuilds[0].stripes_rebuilt, total_reads / 2);
  EXPECT_GT(result.rebuilds[0].end_ms, 0.0);
  for (layout::DiskId d = 0; d < 5; ++d) {
    EXPECT_EQ(result.rebuild_reads_per_disk[d], matrix[5 + d])
        << "disk " << d;
  }
}

TEST(ArraySim, RebuildDepthSpeedsUpRebuild) {
  const api::Array array = plain(layout::ring_based_layout(9, 4));
  const auto slow = run_rebuild(array, {}, 0, 1);
  const auto fast = run_rebuild(array, {}, 0, 8);
  EXPECT_LT(fast.rebuilds.at(0).end_ms, slow.rebuilds.at(0).end_ms);
}

TEST(ArraySim, DeclusteringReducesRebuildTime) {
  // RAID5 (k = v) vs declustered (k = 3) on 9 disks with the same size,
  // both rebuilding into distributed spares: the declustered rebuild
  // reads (k-2)/(v-1) of each survivor.
  const auto declustered = spared(layout::ring_based_layout(9, 3));
  const auto raid5 = spared(layout::raid5_layout(9, 24));
  const auto d = run_rebuild(declustered, {}, 0, 4);
  const auto r = run_rebuild(raid5, {}, 0, 4);
  EXPECT_LT(d.rebuilds.at(0).end_ms, r.rebuilds.at(0).end_ms)
      << "declustered rebuild must beat RAID5";
}

TEST(ArraySim, UserLatencyDuringRebuildDegradesLessWhenDeclustered) {
  const auto declustered = spared(layout::ring_based_layout(9, 3));
  const auto raid5 = spared(layout::raid5_layout(9, 24));
  const auto stressed_reads = [](const api::Array& array) {
    const WorkloadConfig wconfig{
        .arrival_per_ms = 0.02,
        .write_fraction = 0.3,
        .working_set = array.data_units_per_iteration(),
        .duration_ms = 3000.0,
        .seed = 21};
    const auto result =
        run_rebuild(array, generate_workload(wconfig), 0, 2);
    SampleStats reads;
    for (const PhaseRecord& phase : result.phases)
      if (phase.phase == ScenarioPhase::kRebuilding)
        reads = phase.user.read_latency_ms;
    return reads;
  };
  const SampleStats d = stressed_reads(declustered);
  const SampleStats r = stressed_reads(raid5);
  ASSERT_GT(d.count(), 0u);
  ASSERT_GT(r.count(), 0u);
  EXPECT_LT(d.mean(), r.mean());
}

// Rebuild accounting splits reads from spare writes, so "rebuild load on
// disk d" stays separate from the user traffic the spares' disks also
// serve.  Pin (a) reads-only semantics of rebuild_reads_per_disk, (b)
// writes matching layout/sparing's offline analysis, and (c) both being
// independent of concurrent user traffic.
TEST(ArraySim, DistributedRebuildSplitsReadAndWriteAccounting) {
  const auto spared_layout =
      layout::add_distributed_sparing(layout::ring_based_layout(9, 3));
  const api::Array array = api::Array::adopt_spared(spared_layout).value();
  const layout::DiskId failed = 1;

  const auto quiet = run_rebuild(array, {}, failed, 4);

  // Expected reads: for each stripe that lost a non-spare unit, every unit
  // that is neither on the failed disk nor the (empty) spare is read once.
  std::vector<std::uint64_t> want_reads(9, 0);
  for (std::size_t s = 0; s < spared_layout.layout.num_stripes(); ++s) {
    const layout::Stripe& st = spared_layout.layout.stripes()[s];
    const std::uint32_t spare = spared_layout.spare_pos[s];
    bool lost_non_spare = false;
    for (std::uint32_t p = 0; p < st.units.size(); ++p)
      lost_non_spare |= st.units[p].disk == failed && p != spare;
    if (!lost_non_spare) continue;
    for (std::uint32_t p = 0; p < st.units.size(); ++p) {
      if (st.units[p].disk == failed || p == spare) continue;
      ++want_reads[st.units[p].disk];
    }
  }
  const auto want_writes =
      layout::distributed_rebuild_writes(spared_layout, failed);
  for (layout::DiskId d = 0; d < 9; ++d) {
    EXPECT_EQ(quiet.rebuild_reads_per_disk[d], want_reads[d]) << "disk " << d;
    EXPECT_EQ(quiet.rebuild_writes_per_disk[d], want_writes[d])
        << "disk " << d;
    // With no user traffic the per-disk access totals decompose exactly.
    EXPECT_EQ(quiet.disk_accesses[d], quiet.rebuild_reads_per_disk[d] +
                                          quiet.rebuild_writes_per_disk[d])
        << "disk " << d;
  }
  EXPECT_EQ(quiet.rebuild_writes_per_disk[failed], 0u);

  // The same rebuild under heavy user traffic (which the spare disks also
  // serve) must report identical rebuild read/write counters.
  const WorkloadConfig wconfig{.arrival_per_ms = 0.2,
                               .write_fraction = 0.5,
                               .working_set = array.data_units_per_iteration(),
                               .duration_ms = 2000.0,
                               .seed = 5};
  const auto busy = run_rebuild(array, generate_workload(wconfig), failed, 4);
  EXPECT_GT(busy.user.write_latency_ms.count(), 0u);
  EXPECT_EQ(busy.rebuild_reads_per_disk, quiet.rebuild_reads_per_disk);
  EXPECT_EQ(busy.rebuild_writes_per_disk, quiet.rebuild_writes_per_disk);
}

TEST(ArraySim, ParityFailedWriteIsSingleAccess) {
  const api::Array array = plain(layout::raid5_layout(4, 4));
  // Find a logical whose parity is on disk 2 but data is elsewhere.
  for (std::uint64_t l = 0; l < array.data_units_per_iteration(); ++l) {
    if (array.parity_of(l).disk == 2 && array.map(l).disk != 2) {
      const std::vector<Request> reqs = {{0.0, l, true}};
      const auto result = run_degraded(array, reqs, 2);
      EXPECT_DOUBLE_EQ(result.user.write_latency_ms.mean(), 12.0);
      return;
    }
  }
  FAIL() << "no suitable logical unit found";
}

}  // namespace
}  // namespace pdl::sim
