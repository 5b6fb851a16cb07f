#include "layout/sparing.hpp"

#include <gtest/gtest.h>

#include "flow/parity_assign.hpp"
#include "layout/raid.hpp"
#include "layout/ring_layout.hpp"
#include "api/array.hpp"
#include "sim/fault_timeline.hpp"
#include "sim/rebuild_scheduler.hpp"
#include "sim/scenario.hpp"

namespace pdl::layout {
namespace {

TEST(Sparing, SpareNeverCollidesWithParity) {
  const auto spared = add_distributed_sparing(ring_based_layout(9, 4));
  ASSERT_EQ(spared.spare_pos.size(), spared.layout.num_stripes());
  for (std::size_t s = 0; s < spared.layout.num_stripes(); ++s) {
    const Stripe& st = spared.layout.stripes()[s];
    EXPECT_NE(spared.spare_pos[s], st.parity_pos);
    EXPECT_LT(spared.spare_pos[s], st.units.size());
  }
}

TEST(Sparing, SparesAreBalancedWithinFlowBound) {
  const auto base = ring_based_layout(9, 4);
  const auto spared = add_distributed_sparing(base);
  // Spare load: one of k-1 non-parity units per stripe.
  std::vector<std::vector<std::uint32_t>> candidates;
  for (const Stripe& st : base.stripes()) {
    std::vector<std::uint32_t> disks;
    for (std::uint32_t p = 0; p < st.units.size(); ++p) {
      if (p != st.parity_pos) disks.push_back(st.units[p].disk);
    }
    candidates.push_back(std::move(disks));
  }
  const auto loads = flow::parity_loads(candidates, 9);
  const auto per_disk = spared.spares_per_disk();
  for (DiskId d = 0; d < 9; ++d) {
    EXPECT_GE(per_disk[d], loads.floor_of(d));
    EXPECT_LE(per_disk[d], loads.ceil_of(d));
  }
}

TEST(Sparing, RingLayoutSparesPerfectlyBalanced) {
  // b = v(v-1) stripes over v disks: v | b, so spares can be perfectly
  // balanced at (v-1) spares per disk... the flow bound guarantees within
  // one; check the spread is minimal.
  const auto spared = add_distributed_sparing(ring_based_layout(8, 4));
  const auto per_disk = spared.spares_per_disk();
  const auto [lo, hi] = std::minmax_element(per_disk.begin(), per_disk.end());
  EXPECT_LE(*hi - *lo, 1u);
}

TEST(Sparing, RebuildWritesAreDeclustered) {
  const auto spared = add_distributed_sparing(ring_based_layout(9, 4));
  const auto writes = distributed_rebuild_writes(spared, 0);
  EXPECT_EQ(writes[0], 0u) << "no writes to the failed disk";
  std::uint64_t total = 0;
  std::uint32_t max_writes = 0;
  for (DiskId d = 1; d < 9; ++d) {
    total += writes[d];
    max_writes = std::max(max_writes, writes[d]);
  }
  EXPECT_GT(total, 0u);
  // Declustered: no single survivor absorbs more than ~2x the average.
  const double avg = static_cast<double>(total) / 8.0;
  EXPECT_LE(max_writes, 2.0 * avg + 1.0);
}

TEST(Sparing, RejectsTinyStripes) {
  Layout l(3, 1);
  l.append_stripe({0}, 0);
  l.append_stripe({1}, 0);
  l.append_stripe({2}, 0);
  EXPECT_THROW(add_distributed_sparing(l), std::invalid_argument);
}

/// One failure of `failed` at t = 0 over the spared layout, no user load.
sim::ScenarioResult rebuild_into_spares(const SparedLayout& spared,
                                        DiskId failed,
                                        std::uint32_t depth) {
  const sim::ScenarioSimulator simulator(
      api::Array::adopt_spared(spared).value(),
      sim::ScenarioConfig{.disk = {}, .rebuild_depth = depth});
  return simulator.run(sim::FaultTimeline::scripted({{0.0, failed}}), {},
                       *sim::make_fifo_scheduler());
}

TEST(Sparing, SimulatedDistributedRebuildCompletes) {
  const auto spared = add_distributed_sparing(ring_based_layout(9, 4));
  const auto result = rebuild_into_spares(spared, 0, 4);
  ASSERT_EQ(result.rebuilds.size(), 1u);
  EXPECT_GT(result.rebuilds[0].stripes_rebuilt, 0u);
  EXPECT_GT(result.rebuilds[0].end_ms, 0.0);
  // Reads never touch the failed disk; counts match stripes * (k-2).
  EXPECT_EQ(result.rebuild_reads_per_disk[0], 0u);
  std::uint64_t reads = 0;
  for (const auto r : result.rebuild_reads_per_disk) reads += r;
  EXPECT_EQ(reads, result.rebuilds[0].stripes_rebuilt * (4 - 2));
}

TEST(Sparing, DistributedRebuildSkipsSpareOnlyLosses) {
  const auto spared = add_distributed_sparing(ring_based_layout(8, 4));
  const auto result = rebuild_into_spares(spared, 3, 2);
  // Stripes whose unit on disk 3 was the spare need no rebuild: jobs <
  // stripes crossing disk 3 (= r = k(v-1) = 28) whenever disk 3 holds
  // spares.
  const auto spares = spared.spares_per_disk();
  ASSERT_EQ(result.rebuilds.size(), 1u);
  EXPECT_EQ(result.rebuilds[0].stripes_rebuilt, 4u * 7u - spares[3]);
}

TEST(Sparing, InvalidSparePositionsRejected) {
  const auto base = ring_based_layout(8, 3);
  std::vector<std::uint32_t> bad(base.num_stripes(), 0);
  // Position 0 is the parity position for ring layouts (parity = disk x at
  // tuple position 0), so no array (and so no simulator) takes this map.
  EXPECT_EQ(api::Array::adopt_spared({base, bad}).status().code(),
            StatusCode::kInvalidArgument);
  std::vector<std::uint32_t> short_vec(3, 1);
  EXPECT_EQ(api::Array::adopt_spared({base, short_vec}).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace pdl::layout
