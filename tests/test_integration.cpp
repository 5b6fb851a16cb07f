// End-to-end integration tests: build an array through the pdl::api::Array
// front door, map addresses, simulate failures, and recover actual data
// through the XOR codec -- the full pipeline a storage system would run.

#include <gtest/gtest.h>

#include <map>
#include <random>

#include "core/pdl.hpp"

namespace pdl {
namespace {

TEST(Integration, EndToEndDataRecovery) {
  // Build a declustered array, write synthetic data through the mapper,
  // fail a disk, and recover every lost unit via the rebuild plan.
  const auto array = api::Array::create({.num_disks = 13, .stripe_size = 4});
  ASSERT_TRUE(array.ok()) << array.status().to_string();
  const layout::Layout& l = array->layout();
  const layout::AddressMapper mapper(l);

  // Simulated physical storage: (disk, offset) -> unit contents.
  constexpr std::size_t kUnitBytes = 8;
  std::map<std::pair<std::uint32_t, std::uint64_t>,
           std::vector<std::uint8_t>>
      storage;
  std::mt19937_64 rng(1234);

  // Write every logical data unit with random content.
  for (std::uint64_t logical = 0;
       logical < mapper.data_units_per_iteration(); ++logical) {
    std::vector<std::uint8_t> unit(kUnitBytes);
    for (auto& byte : unit) byte = static_cast<std::uint8_t>(rng());
    const auto phys = mapper.map(logical);
    storage[{phys.disk, phys.offset}] = std::move(unit);
  }
  // Compute parity for every stripe.
  for (const layout::Stripe& st : l.stripes()) {
    std::vector<std::vector<std::uint8_t>> data;
    for (std::uint32_t pos = 0; pos < st.units.size(); ++pos) {
      if (pos == st.parity_pos) continue;
      data.push_back(storage.at({st.units[pos].disk, st.units[pos].offset}));
    }
    storage[{st.parity_unit().disk, st.parity_unit().offset}] =
        core::xor_parity(data);
  }

  // Fail disk 5, attach its replacement, and recover every unit from the
  // rebuild plan.
  const layout::DiskId failed = 5;
  api::Array state = *array;
  ASSERT_TRUE(state.fail_disk(failed).ok());
  ASSERT_TRUE(state.replace_disk(failed).ok());
  const auto plan = state.plan_rebuild();
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->steps.size(), l.units_per_disk());
  for (const api::RebuildStep& step : plan->steps) {
    std::vector<std::vector<std::uint8_t>> survivors;
    for (const auto& read : step.reads) {
      survivors.push_back(storage.at({read.disk, read.offset}));
    }
    const auto recovered = core::xor_reconstruct(survivors);
    EXPECT_EQ(step.target.disk, failed);
    EXPECT_EQ(recovered, storage.at({step.target.disk, step.target.offset}))
        << "stripe " << step.stripe;
  }
}

TEST(Integration, MapperAndSimulatorAgreeOnWorkingSet) {
  const auto array = api::Array::create({.num_disks = 16, .stripe_size = 4});
  ASSERT_TRUE(array.ok());
  const sim::ScenarioSimulator simulator(*array, {});
  EXPECT_EQ(simulator.working_set(), array->data_units_per_iteration());
}

TEST(Integration, RebuildSimulationMatchesRecoveryPlanReadCounts) {
  const auto array = api::Array::create({.num_disks = 9, .stripe_size = 3});
  ASSERT_TRUE(array.ok());
  const layout::DiskId failed = 7;
  const sim::ScenarioSimulator simulator(
      *array, sim::ScenarioConfig{.disk = {}, .rebuild_depth = 4});
  const auto rebuild =
      simulator.run(sim::FaultTimeline::scripted({{0.0, failed}}), {},
                    *sim::make_fifo_scheduler());
  api::Array state = *array;
  ASSERT_TRUE(state.fail_disk(failed).ok());
  ASSERT_TRUE(state.replace_disk(failed).ok());
  const auto plan = state.plan_rebuild();
  ASSERT_TRUE(plan.ok());
  const auto matrix = layout::reconstruction_matrix(array->layout());
  for (layout::DiskId d = 0; d < 9; ++d) {
    EXPECT_EQ(rebuild.rebuild_reads_per_disk[d], plan->reads_per_disk[d]);
    EXPECT_EQ(plan->reads_per_disk[d], matrix[failed * 9 + d]);
  }
}

TEST(Integration, DeclusteredBeatsRaid5OnRebuildAcrossSizes) {
  // The paper's headline shape: at equal array size, smaller k rebuilds
  // faster (reads less of each survivor).  Both rebuild into distributed
  // spares, so no replacement disk's write queue bounds either.
  const auto fail_disk0 = sim::FaultTimeline::scripted({{0.0, 0}});
  const auto fifo = sim::make_fifo_scheduler();
  const sim::ScenarioConfig config{.disk = {}, .rebuild_depth = 4};
  for (const std::uint32_t v : {8u, 13u}) {
    const auto declustered = api::Array::create(
        {.num_disks = v, .stripe_size = 3}, {},
        {.sparing = api::SparingMode::kDistributed});
    ASSERT_TRUE(declustered.ok());
    const auto raid5 = api::Array::adopt_spared(layout::add_distributed_sparing(
        layout::raid5_layout(v, declustered->units_per_disk())));
    ASSERT_TRUE(raid5.ok());
    const auto d = sim::ScenarioSimulator(*declustered, config)
                       .run(fail_disk0, {}, *fifo);
    const auto r =
        sim::ScenarioSimulator(*raid5, config).run(fail_disk0, {}, *fifo);
    EXPECT_LT(d.rebuilds.at(0).end_ms, r.rebuilds.at(0).end_ms) << "v=" << v;
  }
}

TEST(Integration, UmbrellaHeaderExposesEverything) {
  // Compile-time check that pdl.hpp pulls in all the public pieces;
  // exercise one symbol from each namespace.
  EXPECT_TRUE(algebra::is_prime(13));
  EXPECT_TRUE(design::ring_design_exists(13, 4));
  EXPECT_EQ(flow::copies_for_perfect_balance(39, 13), 1u);
  EXPECT_EQ(layout::kDefaultUnitBudget, 10'000u);
}

}  // namespace
}  // namespace pdl
