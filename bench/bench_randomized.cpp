// E19 (Section 5's proposed study): randomized stripe partitioning
// (Merchant & Yu style) vs BIBD-based layouts, with parity balanced
// identically by the Section 4 flow method -- isolating reconstruction-
// workload balance from parity placement, exactly as the paper proposes.

#include <cstdio>

#include "bench_util.hpp"
#include "core/pdl.hpp"

int main() {
  using namespace pdl;
  bench::header("E19 / Section 5: randomized vs BIBD stripe partitioning",
                "flow-balanced parity decouples parity placement; compare "
                "reconstruction-workload balance of the partitions alone");

  std::printf("%-26s %-8s %-14s %-14s %-10s\n", "layout", "size",
              "recon units", "recon frac", "parity");
  bench::rule();

  struct Row {
    std::string name;
    layout::Layout layout;
  };
  const std::uint32_t v = 17, k = 5;
  const std::uint32_t size = k * (v - 1);  // match the ring layout's size
  std::vector<Row> rows;
  rows.push_back({"ring BIBD (exact)", layout::ring_based_layout(v, k)});
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    rows.push_back({"randomized seed=" + std::to_string(seed),
                    layout::randomized_layout(v, k, size, seed)});
  }

  for (const auto& row : rows) {
    const auto m = layout::compute_metrics(row.layout);
    std::printf("%-26s %-8u %3u..%-9u %.3f..%-7.3f %u..%u\n",
                row.name.c_str(), m.units_per_disk, m.min_recon_units,
                m.max_recon_units, m.min_recon_workload,
                m.max_recon_workload, m.min_parity_units,
                m.max_parity_units);
  }

  // Rebuild-time consequence of the workload spread, with distributed
  // spares so the rebuild writes decluster like the reads.
  std::printf("\nsimulated rebuild of disk 0 into distributed spares (no "
              "user load):\n");
  std::printf("%-26s %-12s %-14s\n", "layout", "rebuild(ms)",
              "max survivor reads");
  bench::rule();
  const auto fifo = sim::make_fifo_scheduler();
  for (const auto& row : rows) {
    const auto array =
        api::Array::adopt_spared(layout::add_distributed_sparing(row.layout));
    if (!array.ok()) {
      std::fprintf(stderr, "%s: %s\n", row.name.c_str(),
                   array.status().to_string().c_str());
      return 1;
    }
    const sim::ScenarioSimulator simulator(
        *array, sim::ScenarioConfig{.disk = {}, .rebuild_depth = 4});
    const auto result =
        simulator.run(sim::FaultTimeline::scripted({{0.0, 0}}), {}, *fifo);
    std::uint64_t max_reads = 0;
    for (const auto r : result.rebuild_reads_per_disk) {
      max_reads = std::max(max_reads, r);
    }
    std::printf("%-26s %-12.0f %-14llu\n", row.name.c_str(),
                result.rebuilds.at(0).end_ms,
                static_cast<unsigned long long>(max_reads));
  }

  std::printf("\nexpected shape: the BIBD layout's reconstruction counts "
              "are a single exact value (lambda = k(k-1)); randomized "
              "partitions spread around the same mean (here roughly "
              "0.5x..1.7x), so their busiest survivor reads 25-70%% more. "
              "An idle rebuild into distributed spares stays close in "
              "wall-clock (pipelining hides the imbalance when disks are "
              "otherwise idle); the spread is what "
              "degrades tail latency under load.  Parity stays within one "
              "unit everywhere -- the flow method's doing, not the "
              "partition's.\n");
  return 0;
}
