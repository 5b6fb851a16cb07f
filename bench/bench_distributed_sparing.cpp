// E17 (Section 5: distributed sparing): spare units distributed per
// stripe by the generalized Theorem 14 assignment, so rebuild writes
// decluster like rebuild reads.  Compares rebuild time and write
// distribution against a dedicated replacement disk rebuilt in place.

#include <algorithm>
#include <cstdio>

#include "bench_util.hpp"
#include "core/pdl.hpp"

int main() {
  using namespace pdl;
  bench::header("E17 / Section 5: distributed sparing",
                "distributing spare space like parity declusters rebuild "
                "writes; no dedicated spare, no write bottleneck");

  std::printf("%-10s %-4s %-12s %-14s %-14s %-12s\n", "layout", "k",
              "spares/disk", "rebuild(ms)", "dedicated(ms)", "writes max");
  bench::rule();

  const auto fail_disk0 = sim::FaultTimeline::scripted({{0.0, 0}});
  const auto fifo = sim::make_fifo_scheduler();
  for (const std::uint32_t k : {3u, 4u, 5u, 8u}) {
    // Both arrays come through the api::Array front door, pinned to the
    // ring construction for the sweep: the spared one and the plain one
    // whose failed disk is replaced and rebuilt in place.
    const auto array = api::Array::create(
        {.num_disks = 17, .stripe_size = k}, {},
        {.sparing = api::SparingMode::kDistributed,
         .construction = core::Construction::kRingLayout});
    const auto plain = api::Array::create(
        {.num_disks = 17, .stripe_size = k}, {},
        {.construction = core::Construction::kRingLayout});
    if (!array.ok() || !plain.ok()) {
      std::fprintf(stderr, "ring v=17 k=%u: %s\n", k,
                   (array.ok() ? plain : array).status().to_string().c_str());
      return 1;
    }
    const layout::SparedLayout& spared = *array->spared_layout();
    const auto spares = spared.spares_per_disk();
    const auto [lo, hi] =
        std::minmax_element(spares.begin(), spares.end());

    const sim::ScenarioConfig config{.disk = {}, .rebuild_depth = 4};
    const auto distributed =
        sim::ScenarioSimulator(*array, config).run(fail_disk0, {}, *fifo);
    const auto dedicated =
        sim::ScenarioSimulator(*plain, config).run(fail_disk0, {}, *fifo);
    const auto writes = layout::distributed_rebuild_writes(spared, 0);
    const auto max_writes = *std::max_element(writes.begin(), writes.end());

    std::printf("%-10s %-4u %u..%-9u %-14.0f %-14.0f %-12u\n", "ring v=17",
                k, *lo, *hi, distributed.rebuilds.at(0).end_ms,
                dedicated.rebuilds.at(0).end_ms, max_writes);
  }

  std::printf("\nspare balance: per-disk spare counts within 1 (generalized "
              "Thm 14); rebuild writes spread over all survivors instead of "
              "one spare disk.\n");
  std::printf("note: the dedicated column rebuilds in place onto disk 0's "
              "replacement, which takes one write per lost unit; distributed "
              "sparing spreads those writes over every survivor and needs "
              "no replacement disk.\n");
  return 0;
}
