#include "core/declustered_array.hpp"

#include <gtest/gtest.h>

#include "engine/planner.hpp"

namespace pdl::core {
namespace {

// The selection policy under test lives in the engine's planner: the
// best layout for a spec, or nullopt when no construction fits.
std::optional<BuiltLayout> build_layout(const ArraySpec& spec,
                                        const BuildOptions& options = {}) {
  return engine::ConstructionPlanner::default_planner().build_best(spec,
                                                                   options);
}

TEST(BuildLayout, KEqualsVGivesRaid5) {
  const auto built = build_layout({.num_disks = 8, .stripe_size = 8});
  ASSERT_TRUE(built.has_value());
  EXPECT_EQ(built->construction, Construction::kRaid5);
  EXPECT_EQ(built->layout.num_disks(), 8u);
  EXPECT_EQ(built->metrics.max_stripe_size, 8u);
}

TEST(BuildLayout, PrimePowerPrefersPerfectlyBalancedRoute) {
  const auto built = build_layout({.num_disks = 17, .stripe_size = 5});
  ASSERT_TRUE(built.has_value());
  // Ring layout (size 80, perfect balance) or an equally-perfect BIBD
  // route; either way the result must be perfectly balanced and small.
  EXPECT_EQ(built->metrics.min_parity_units, built->metrics.max_parity_units);
  EXPECT_LE(built->metrics.units_per_disk, 5u * 16u);
  EXPECT_TRUE(built->layout.validate().empty());
}

TEST(BuildLayout, AwkwardVFallsBackToApproximate) {
  // v = 100, k = 5: M(100) = 4 < 5, no exact BIBD in the catalog fits
  // gracefully; an approximate route must be chosen.
  const auto built = build_layout({.num_disks = 100, .stripe_size = 5});
  ASSERT_TRUE(built.has_value());
  EXPECT_TRUE(built->construction == Construction::kRemoval ||
              built->construction == Construction::kStairway ||
              built->construction == Construction::kBibdPerfect ||
              built->construction == Construction::kBibdFlow)
      << construction_name(built->construction);
  EXPECT_EQ(built->layout.num_disks(), 100u);
  EXPECT_LE(built->metrics.units_per_disk, layout::kDefaultUnitBudget);
  EXPECT_TRUE(built->layout.validate().empty());
}

TEST(BuildLayout, RequirePerfectParityIsHonored) {
  const auto built = build_layout(
      {.num_disks = 100, .stripe_size = 5},
      {.unit_budget = 100'000, .require_perfect_parity = true});
  if (built) {
    EXPECT_EQ(built->metrics.min_parity_units,
              built->metrics.max_parity_units);
  }
}

TEST(BuildLayout, BudgetIsRespected) {
  // A tiny budget leaves no options.
  const auto built = build_layout({.num_disks = 100, .stripe_size = 5},
                                  {.unit_budget = 10});
  EXPECT_FALSE(built.has_value());
}

TEST(BuildLayout, ApproximateCanBeDisabled) {
  const auto with = build_layout({.num_disks = 100, .stripe_size = 5},
                                 {.allow_approximate = true});
  const auto without = build_layout({.num_disks = 100, .stripe_size = 5},
                                    {.unit_budget = 600,
                                     .allow_approximate = false});
  ASSERT_TRUE(with.has_value());
  // Without approximate routes and with a tight budget, (100, 5) has no
  // exact construction of size <= 600.
  EXPECT_FALSE(without.has_value());
}

TEST(BuildLayout, MetricsAreMeasuredNotPredicted) {
  const auto built = build_layout({.num_disks = 16, .stripe_size = 4});
  ASSERT_TRUE(built.has_value());
  EXPECT_EQ(built->metrics.num_disks, 16u);
  EXPECT_EQ(built->metrics.units_per_disk,
            built->layout.units_per_disk());
  EXPECT_GT(built->metrics.num_stripes, 0u);
}

TEST(BuildLayout, InvalidSpecRejected) {
  EXPECT_THROW(build_layout({.num_disks = 1, .stripe_size = 1}),
               std::invalid_argument);
  EXPECT_THROW(build_layout({.num_disks = 4, .stripe_size = 5}),
               std::invalid_argument);
  EXPECT_THROW(build_layout({.num_disks = 4, .stripe_size = 1}),
               std::invalid_argument);
}

TEST(BuildLayout, ConstructionNamesAreStable) {
  EXPECT_EQ(construction_name(Construction::kRaid5), "RAID5");
  EXPECT_EQ(construction_name(Construction::kStairway),
            "stairway (Thm 10-12)");
}

TEST(BuildLayout, SweepManySpecsAllValid) {
  for (const std::uint32_t v : {6u, 9u, 13u, 16u, 21u, 33u, 50u}) {
    for (const std::uint32_t k : {3u, 4u, 5u}) {
      if (k > v) continue;
      const auto built = build_layout({.num_disks = v, .stripe_size = k},
                                      {.unit_budget = 100'000});
      ASSERT_TRUE(built.has_value()) << "v=" << v << " k=" << k;
      EXPECT_TRUE(built->layout.validate().empty())
          << "v=" << v << " k=" << k << " via "
          << construction_name(built->construction);
      EXPECT_EQ(built->layout.num_disks(), v);
      EXPECT_EQ(built->metrics.max_stripe_size, k);
    }
  }
}

}  // namespace
}  // namespace pdl::core
