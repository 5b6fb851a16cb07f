#include "engine/planner.hpp"

#include <gtest/gtest.h>

#include <set>

#include "layout/feasibility.hpp"

namespace pdl::engine {
namespace {

using core::ArraySpec;
using core::BuildOptions;
using core::Construction;

const ConstructionPlanner& planner() {
  return ConstructionPlanner::default_planner();
}

TEST(ConstructionPlanner, AllSixConstructionsRegistered) {
  EXPECT_EQ(planner().num_builders(), 6u);
  for (const Construction c :
       {Construction::kRaid5, Construction::kRingLayout,
        Construction::kBibdFlow, Construction::kBibdPerfect,
        Construction::kRemoval, Construction::kStairway}) {
    const LayoutBuilder* builder = planner().find(c);
    ASSERT_NE(builder, nullptr) << core::construction_name(c);
    EXPECT_EQ(builder->construction(), c);
    EXPECT_FALSE(builder->name().empty());
  }
}

TEST(ConstructionPlanner, DuplicateRegistrationThrows) {
  // A fresh planner with the defaults refuses a second copy of any of them.
  ConstructionPlanner fresh;
  register_default_builders(fresh);
  EXPECT_THROW(register_default_builders(fresh), std::invalid_argument);
  EXPECT_THROW(fresh.register_builder(nullptr), std::invalid_argument);
}

TEST(ConstructionPlanner, InvalidSpecsRejected) {
  EXPECT_THROW((void)planner().rank_plans({.num_disks = 1, .stripe_size = 1},
                                          {}),
               std::invalid_argument);
  EXPECT_THROW((void)planner().build_best({.num_disks = 4, .stripe_size = 5}),
               std::invalid_argument);
  EXPECT_THROW((void)planner().build_with(Construction::kRingLayout,
                                          {.num_disks = 4, .stripe_size = 1}),
               std::invalid_argument);
}

TEST(ConstructionPlanner, RankingIsSortedAndAdmissible) {
  const BuildOptions options{.unit_budget = 100'000};
  const auto plans =
      planner().rank_plans({.num_disks = 33, .stripe_size = 5}, options);
  ASSERT_FALSE(plans.empty());
  for (std::size_t i = 0; i + 1 < plans.size(); ++i) {
    const bool ordered =
        plans[i].balance < plans[i + 1].balance ||
        (plans[i].balance == plans[i + 1].balance &&
         plans[i].units_per_disk <= plans[i + 1].units_per_disk);
    EXPECT_TRUE(ordered) << "rank " << i;
  }
  for (const auto& plan : plans) {
    EXPECT_LE(plan.units_per_disk, options.unit_budget);
    EXPECT_EQ(plan.spec.num_disks, 33u);
    EXPECT_EQ(plan.table_entries(), 33u * plan.units_per_disk);
  }

  // C(v, k) saturates 64 bits at these specs: no route may be admitted
  // with a wrapped (zero) size, and building must not throw.
  const BuildOptions defaults;
  for (const ArraySpec spec :
       {ArraySpec{.num_disks = 1000, .stripe_size = 20},
        ArraySpec{.num_disks = 500, .stripe_size = 20}}) {
    for (const auto& plan : planner().rank_plans(spec, defaults))
      EXPECT_GT(plan.units_per_disk, 0u)
          << "v=" << spec.num_disks << " " << plan.description;
    EXPECT_NO_THROW((void)planner().build_best(spec, defaults))
        << "v=" << spec.num_disks;
  }
}

TEST(ConstructionPlanner, PolicyFiltersApply) {
  const ArraySpec spec{.num_disks = 100, .stripe_size = 5};
  // Perfect-parity requirement drops every plan that does not predict it.
  for (const auto& plan : planner().rank_plans(
           spec, {.unit_budget = 100'000, .require_perfect_parity = true})) {
    EXPECT_TRUE(plan.perfect_parity);
  }
  // Disallowing approximate routes drops the Section 3 constructions.
  for (const auto& plan : planner().rank_plans(
           spec, {.unit_budget = 100'000, .allow_approximate = false})) {
    EXPECT_NE(plan.balance, BalanceClass::kApproximate);
  }
  // A tiny budget drops everything.
  EXPECT_TRUE(planner().rank_plans(spec, {.unit_budget = 10}).empty());
}

TEST(ConstructionPlanner, RaidOnlyWhenKEqualsV) {
  const auto plans =
      planner().rank_plans({.num_disks = 8, .stripe_size = 8}, {});
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_EQ(plans.front().construction, Construction::kRaid5);
  EXPECT_EQ(plans.front().units_per_disk, 8u);

  for (const auto& plan :
       planner().rank_plans({.num_disks = 16, .stripe_size = 4},
                            {.unit_budget = 100'000})) {
    EXPECT_NE(plan.construction, Construction::kRaid5);
  }
}

TEST(ConstructionPlanner, BuildWithForcesConstruction) {
  const ArraySpec spec{.num_disks = 33, .stripe_size = 5};
  const BuildOptions options{.unit_budget = 100'000};
  const auto stairway =
      planner().build_with(Construction::kStairway, spec, options);
  ASSERT_TRUE(stairway.has_value());
  EXPECT_EQ(stairway->construction, Construction::kStairway);
  EXPECT_TRUE(stairway->layout.validate().empty());

  const auto removal =
      planner().build_with(Construction::kRemoval, spec, options);
  ASSERT_TRUE(removal.has_value());
  EXPECT_EQ(removal->construction, Construction::kRemoval);

  // Ring layout does not apply at (33, 5).
  EXPECT_FALSE(
      planner().build_with(Construction::kRingLayout, spec, options));
}

TEST(ConstructionPlanner, BuildBestMatchesTopRankedPlan) {
  const BuildOptions options{.unit_budget = 100'000};
  for (const std::uint32_t v : {8u, 13u, 16u, 21u, 33u, 50u}) {
    for (const std::uint32_t k : {3u, 4u, 5u}) {
      const ArraySpec spec{.num_disks = v, .stripe_size = k};
      const auto plans = planner().rank_plans(spec, options);
      const auto built = planner().build_best(spec, options);
      ASSERT_EQ(built.has_value(), !plans.empty()) << "v=" << v << " k=" << k;
      if (built) {
        EXPECT_EQ(built->construction, plans.front().construction)
            << "v=" << v << " k=" << k;
      }
    }
  }
}

// The engine's core contract: plan() is an exact prediction of build().
TEST(ConstructionPlanner, PlansMatchMeasuredMetricsAcrossSweep) {
  const BuildOptions options{.unit_budget = 100'000};
  std::size_t built_count = 0;
  for (const std::uint32_t v : {6u, 8u, 9u, 13u, 16u, 17u, 20u, 21u, 25u,
                                33u, 50u}) {
    for (const std::uint32_t k : {3u, 4u, 5u, v}) {
      if (k > v) continue;
      const ArraySpec spec{.num_disks = v, .stripe_size = k};
      for (const auto& builder : planner().builders()) {
        const auto plan = builder->plan(spec, options);
        if (!plan) continue;
        EXPECT_EQ(plan->construction, builder->construction());
        if (plan->units_per_disk > 20'000) continue;  // keep the test fast
        const core::BuiltLayout built = builder->build(*plan);
        ++built_count;
        const std::string where = "v=" + std::to_string(v) +
                                  " k=" + std::to_string(k) + " via " +
                                  std::string(builder->name());
        EXPECT_EQ(built.construction, plan->construction) << where;
        EXPECT_EQ(built.metrics.units_per_disk, plan->units_per_disk)
            << where;
        EXPECT_EQ(built.layout.num_disks(), v) << where;
        EXPECT_TRUE(built.layout.validate().empty()) << where;
        if (plan->perfect_parity) {
          EXPECT_EQ(built.metrics.min_parity_units,
                    built.metrics.max_parity_units)
              << where;
        }
      }
    }
  }
  // The sweep must actually exercise a healthy number of builds.
  EXPECT_GE(built_count, 30u);
}

}  // namespace
}  // namespace pdl::engine
