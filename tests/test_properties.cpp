// Cross-cutting property tests over every layout family the library can
// produce: structural invariants, mapping round-trips, balance bounds, and
// failure-injection checks on the validators.

#include <gtest/gtest.h>

#include <numeric>

#include "core/pdl.hpp"

namespace pdl {
namespace {

using layout::Layout;

struct Family {
  std::string name;
  Layout layout;
};

std::vector<Family> all_families() {
  std::vector<Family> families;
  families.push_back({"raid5_7", layout::raid5_layout(7, 14)});
  families.push_back({"raid4_6", layout::raid4_layout(6, 6)});
  families.push_back({"ring_9_3", layout::ring_based_layout(9, 3)});
  families.push_back({"ring_13_4", layout::ring_based_layout(13, 4)});
  families.push_back({"ring_12_3", layout::ring_based_layout(12, 3)});
  families.push_back({"removal_9_4_1", layout::removal_layout(9, 4, 1)});
  families.push_back({"removal_16_9_3", layout::removal_layout(16, 9, 3)});
  families.push_back({"stairway_8_10_3", layout::stairway_layout(8, 10, 3)});
  families.push_back({"stairway_9_13_4", layout::stairway_layout(9, 13, 4)});
  families.push_back(
      {"hg_7_3", layout::holland_gibson_layout(design::build_best_design(7, 3))});
  families.push_back(
      {"flow_16_4",
       layout::flow_balanced_layout(design::make_subfield_design(16, 4), 1)});
  return families;
}

class LayoutFamily : public ::testing::TestWithParam<std::size_t> {
 protected:
  static const Family& family() {
    static const std::vector<Family> families = all_families();
    return families[GetParam()];
  }
};

TEST_P(LayoutFamily, StructurallyValid) {
  EXPECT_TRUE(family().layout.validate().empty()) << family().name;
}

TEST_P(LayoutFamily, MappingRoundTripsEveryDataUnit) {
  const layout::AddressMapper mapper(family().layout);
  for (std::uint64_t l = 0; l < mapper.data_units_per_iteration(); ++l) {
    ASSERT_EQ(mapper.logical_at(mapper.map(l)), l) << family().name;
  }
}

TEST_P(LayoutFamily, EverySlotIsDataOrParityExactlyOnce) {
  const Layout& l = family().layout;
  const layout::AddressMapper mapper(l);
  std::uint64_t data = 0, parity = 0;
  for (layout::DiskId d = 0; d < l.num_disks(); ++d) {
    for (std::uint32_t o = 0; o < l.units_per_disk(); ++o) {
      if (mapper.logical_at({d, o}) == layout::AddressMapper::kParity) {
        ++parity;
      } else {
        ++data;
      }
    }
  }
  EXPECT_EQ(parity, l.num_stripes());
  EXPECT_EQ(data + parity,
            static_cast<std::uint64_t>(l.num_disks()) * l.units_per_disk());
}

TEST_P(LayoutFamily, ParityUnitIsInItsOwnStripe) {
  const Layout& l = family().layout;
  for (const layout::Stripe& st : l.stripes()) {
    const auto& p = st.parity_unit();
    const auto& occ = l.at(p.disk, p.offset);
    EXPECT_EQ(occ.stripe, &st - l.stripes().data());
  }
}

TEST_P(LayoutFamily, ReconstructionMatrixRowSumsMatchStripeSizes) {
  // Sum over survivors of units read when d fails = sum over stripes
  // crossing d of (size - 1).
  const Layout& l = family().layout;
  const auto matrix = layout::reconstruction_matrix(l);
  const std::uint32_t v = l.num_disks();
  std::vector<std::uint64_t> expected(v, 0);
  for (const layout::Stripe& st : l.stripes()) {
    for (const auto& u : st.units) {
      expected[u.disk] += st.units.size() - 1;
    }
  }
  for (std::uint32_t f = 0; f < v; ++f) {
    std::uint64_t row = 0;
    for (std::uint32_t d = 0; d < v; ++d) {
      row += matrix[static_cast<std::size_t>(f) * v + d];
    }
    EXPECT_EQ(row, expected[f]) << family().name << " disk " << f;
  }
}

TEST_P(LayoutFamily, RecoveryPlanIsConsistentWithReconstructionMatrix) {
  // Fail disk 0, attach its replacement, and plan the rebuild: one step
  // per lost unit, none reading the failed disk, and per-disk reads equal
  // to row 0 of the layout's reconstruction matrix.
  const Layout& l = family().layout;
  auto array = api::Array::adopt(l);
  ASSERT_TRUE(array.ok()) << family().name;
  ASSERT_TRUE(array->fail_disk(0).ok());
  ASSERT_TRUE(array->replace_disk(0).ok());
  const auto plan = array->plan_rebuild();
  ASSERT_TRUE(plan.ok());
  const auto matrix = layout::reconstruction_matrix(l);
  const std::vector<std::uint32_t> row0(matrix.begin(),
                                        matrix.begin() + l.num_disks());

  ASSERT_EQ(plan->steps.size(), l.units_per_disk()) << family().name;
  std::vector<bool> offset_seen(l.units_per_disk(), false);
  std::uint64_t total = 0;
  for (const api::RebuildStep& step : plan->steps) {
    ASSERT_LT(step.stripe, l.num_stripes());
    const layout::Stripe& st = l.stripes()[step.stripe];
    // The step rebuilds the stripe's unit on disk 0, in place.
    EXPECT_EQ(st.units[step.lost_pos].disk, 0u) << family().name;
    EXPECT_EQ(step.target.disk, 0u) << family().name;
    EXPECT_EQ(step.target.offset, st.units[step.lost_pos].offset);
    EXPECT_FALSE(offset_seen[step.target.offset]) << family().name;
    offset_seen[step.target.offset] = true;
    // Reads are the stripe's other units, none on the failed disk.
    EXPECT_EQ(step.reads.size() + 1, st.units.size()) << family().name;
    for (const auto& read : step.reads) EXPECT_NE(read.disk, 0u);
    total += step.reads.size();
  }
  EXPECT_EQ(total,
            std::accumulate(row0.begin(), row0.end(), std::uint64_t{0}))
      << family().name;
  EXPECT_EQ(plan->reads_per_disk, row0) << family().name;
}

TEST_P(LayoutFamily, SerializationRoundTrip) {
  const Layout& original = family().layout;
  const Layout restored =
      layout::parse_layout(layout::serialize_layout(original)).value();
  ASSERT_EQ(restored.num_stripes(), original.num_stripes());
  for (std::size_t s = 0; s < original.num_stripes(); ++s) {
    ASSERT_EQ(restored.stripes()[s].units, original.stripes()[s].units);
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, LayoutFamily,
                         ::testing::Range<std::size_t>(0, 11),
                         [](const auto& info) {
                           return all_families()[info.param].name;
                         });

// ---- Failure injection on the validators -------------------------------

TEST(FailureInjection, VerifyBibdCatchesSingleElementCorruption) {
  auto design = design::make_ring_design(9, 3).design;
  ASSERT_TRUE(design::verify_bibd(design).ok);
  // Corrupt one element of one block; the verifier must notice (either a
  // duplicate in the block or replication/pair imbalance).
  for (const std::size_t victim : {0ul, design.blocks.size() / 2}) {
    auto corrupted = design;
    corrupted.blocks[victim][0] =
        (corrupted.blocks[victim][0] + 1) % design.v;
    EXPECT_FALSE(design::verify_bibd(corrupted).ok) << victim;
  }
}

TEST(FailureInjection, Theorem2ExhaustiveOnSmallComposites) {
  // Brute-force confirmation of Theorem 2's "only if" direction: in the
  // canonical ring of order v, NO subset of size M(v)+1 has all pairwise
  // differences invertible.
  for (const std::uint32_t v : {6u, 10u, 12u}) {
    const auto [ring, gens] = algebra::make_ring_with_generators(v);
    const auto m = static_cast<std::uint32_t>(
        algebra::min_prime_power_factor(v));
    // Enumerate all (m+1)-subsets of the ring's elements.
    std::vector<std::uint32_t> idx(m + 1);
    for (std::uint32_t i = 0; i <= m; ++i) idx[i] = i;
    bool found = false;
    while (!found) {
      std::vector<algebra::Elem> subset(idx.begin(), idx.end());
      if (algebra::is_generator_set(*ring, subset)) found = true;
      // Next combination.
      int i = static_cast<int>(m);
      while (i >= 0 && idx[i] == v - (m + 1) + i) --i;
      if (i < 0) break;
      ++idx[i];
      for (std::uint32_t j = i + 1; j <= m; ++j) idx[j] = idx[j - 1] + 1;
    }
    EXPECT_FALSE(found) << "v=" << v
                        << ": found a generator set larger than M(v)";
  }
}

TEST(FailureInjection, MetricsDetectParityPileup) {
  // Move every stripe's parity to position 0; metrics must show imbalance
  // for layouts where position 0 is disk-correlated.
  auto layout = layout::raid4_layout(5, 10);
  const auto m = layout::compute_metrics(layout);
  EXPECT_GT(m.max_parity_units, m.min_parity_units);
}

}  // namespace
}  // namespace pdl
