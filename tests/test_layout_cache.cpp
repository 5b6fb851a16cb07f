#include "engine/layout_cache.hpp"

#include <gtest/gtest.h>

#include "engine/engine.hpp"

namespace pdl::engine {
namespace {

using core::ArraySpec;
using core::BuildOptions;

TEST(LayoutCache, RepeatedGetsShareOneInstance) {
  LayoutCache cache;
  const ArraySpec spec{.num_disks = 16, .stripe_size = 4};
  const auto first = cache.get(spec);
  const auto second = cache.get(spec);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().get(), second.value().get());

  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(LayoutCache, OptionsArePartOfTheKey) {
  LayoutCache cache;
  const ArraySpec spec{.num_disks = 16, .stripe_size = 4};
  const auto default_opts = cache.get(spec);
  const auto big_budget = cache.get(spec, {.unit_budget = 100'000});
  ASSERT_TRUE(default_opts.ok());
  ASSERT_TRUE(big_budget.ok());
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(LayoutCache, NegativeResultsAreCachedAsUnsupported) {
  LayoutCache cache;
  const ArraySpec spec{.num_disks = 100, .stripe_size = 5};
  const BuildOptions tiny{.unit_budget = 10};
  const auto first = cache.get(spec, tiny);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kUnsupported);
  const auto second = cache.get(spec, tiny);
  EXPECT_EQ(second.status().code(), StatusCode::kUnsupported);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(LayoutCache, InvalidSpecIsTypedErrorAndNotCached) {
  LayoutCache cache;
  const auto result = cache.get({.num_disks = 4, .stripe_size = 5});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(LayoutCache, ClearResetsEverything) {
  LayoutCache cache;
  (void)cache.get({.num_disks = 9, .stripe_size = 3});
  cache.clear();
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.entries, 0u);
}

TEST(LayoutCache, CachedResultMatchesDirectBuild) {
  LayoutCache cache;
  const ArraySpec spec{.num_disks = 33, .stripe_size = 5};
  const BuildOptions options{.unit_budget = 100'000};
  const auto cached = cache.get(spec, options);
  const auto direct =
      ConstructionPlanner::default_planner().build_best(spec, options);
  ASSERT_TRUE(cached.ok());
  ASSERT_TRUE(direct.has_value());
  EXPECT_EQ((*cached)->construction, direct->construction);
  EXPECT_EQ((*cached)->metrics.units_per_disk,
            direct->metrics.units_per_disk);
}

TEST(LayoutCache, SparedSharesTheBaseDerivation) {
  LayoutCache cache;
  const ArraySpec spec{.num_disks = 17, .stripe_size = 5};
  const auto spared = cache.get_spared(spec);
  ASSERT_TRUE(spared.ok());
  EXPECT_EQ((*spared)->spare_pos.size(), (*spared)->layout.num_stripes());
  // A second lookup is a pure hit.
  const auto again = cache.get_spared(spec);
  EXPECT_EQ((*again).get(), (*spared).get());
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(Engine, GlobalFacadeBuildsAndCaches) {
  auto& engine = Engine::global();
  const ArraySpec spec{.num_disks = 13, .stripe_size = 4};
  const auto first = engine.build(spec);
  const auto second = engine.build(spec);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().get(), second.value().get());
  EXPECT_FALSE(engine.rank_plans(spec).empty());
  EXPECT_EQ(&engine.planner(), &ConstructionPlanner::default_planner());
}

}  // namespace
}  // namespace pdl::engine
