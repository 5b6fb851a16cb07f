// Condition 3's reconstruction workload, read from the layout structure
// alone: reconstruction_matrix gives the units each survivor reads to
// rebuild a failed disk, and compute_metrics the extreme fractions over
// every (failed, survivor) pair.

#include <gtest/gtest.h>

#include "layout/metrics.hpp"
#include "layout/raid.hpp"
#include "layout/ring_layout.hpp"
#include "layout/stairway.hpp"

namespace pdl::layout {
namespace {

TEST(Reconstruction, RingLayoutReadsExactFraction) {
  const auto layout = ring_based_layout(9, 3);
  ASSERT_EQ(layout.units_per_disk(), 24u);
  const auto matrix = reconstruction_matrix(layout);
  // Disk 4 fails: every survivor reads lambda = k(k-1) = 6 units =
  // (k-1)/(v-1) of itself.
  std::uint64_t total = 0;
  for (DiskId d = 0; d < 9; ++d) {
    EXPECT_EQ(matrix[4 * 9 + d], d == 4 ? 0u : 6u) << "disk " << d;
    total += matrix[4 * 9 + d];
  }
  EXPECT_EQ(total, 8u * 6u);
  const LayoutMetrics metrics = compute_metrics(layout);
  EXPECT_DOUBLE_EQ(metrics.max_recon_workload, 2.0 / 8.0);
  EXPECT_DOUBLE_EQ(metrics.min_recon_workload, 2.0 / 8.0);
}

TEST(Reconstruction, Raid5ReadsWholeArray) {
  const LayoutMetrics metrics = compute_metrics(raid5_layout(5, 10));
  EXPECT_DOUBLE_EQ(metrics.max_recon_workload, 1.0);
  EXPECT_DOUBLE_EQ(metrics.min_recon_workload, 1.0);
}

TEST(Reconstruction, WorstCaseOverAllFailures) {
  EXPECT_DOUBLE_EQ(compute_metrics(ring_based_layout(9, 3)).max_recon_workload,
                   0.25);
  EXPECT_DOUBLE_EQ(compute_metrics(raid5_layout(9, 9)).max_recon_workload,
                   1.0);
}

TEST(Reconstruction, StairwayWithinTheoremBounds) {
  const auto plan = plan_stairway(9, 12, 3);
  ASSERT_TRUE(plan.has_value());
  const LayoutMetrics metrics = compute_metrics(
      build_stairway_layout(design::make_ring_design(9, 3), *plan));
  EXPECT_LE(metrics.max_recon_workload, plan->recon_workload_hi() + 1e-12);
  EXPECT_GE(metrics.min_recon_workload, plan->recon_workload_lo() - 1e-12);
}

TEST(Reconstruction, DeclusteringRatioDrivesTheFraction) {
  // Holland-Gibson's declustering ratio alpha = (k-1)/(v-1): the fraction
  // read from each survivor.  Check monotonicity in k at fixed v.
  double last = 0.0;
  for (const std::uint32_t k : {2u, 3u, 5u, 7u, 9u}) {
    const double f =
        compute_metrics(ring_based_layout(13, k)).max_recon_workload;
    EXPECT_DOUBLE_EQ(f, static_cast<double>(k - 1) / 12.0);
    EXPECT_GT(f, last);
    last = f;
  }
}

}  // namespace
}  // namespace pdl::layout
