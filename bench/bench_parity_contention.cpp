// E16 (Condition 2 motivation): parity-update contention under small
// writes.  The disk with the most parity units bottlenecks every write
// burst; compares flow-balanced parity against naive round-robin parity
// and RAID4 (all parity on one disk) under a write-heavy workload.

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "bench_util.hpp"
#include "core/pdl.hpp"

namespace {

void run_row(const char* name, const pdl::layout::Layout& layout) {
  using namespace pdl;
  const auto m = layout::compute_metrics(layout);
  const auto array = api::Array::adopt(layout);
  if (!array.ok()) {
    std::fprintf(stderr, "%s: %s\n", name, array.status().to_string().c_str());
    std::exit(1);
  }
  const sim::ScenarioSimulator simulator(
      *array, sim::ScenarioConfig{.disk = {}, .rebuild_depth = 1});
  const sim::WorkloadConfig wconfig{
      .arrival_per_ms = 0.03,
      .write_fraction = 1.0,  // pure small writes: parity traffic dominates
      .working_set = simulator.working_set(),
      .duration_ms = 5000.0,
      .seed = 3};
  // No failures: every request is served by the healthy array.
  const auto result =
      simulator.run(sim::FaultTimeline::scripted({}),
                    sim::generate_workload(wconfig),
                    *sim::make_fifo_scheduler());
  auto user = result.user;
  const double max_busy = *std::max_element(result.disk_busy_ms.begin(),
                                            result.disk_busy_ms.end());
  std::printf("%-24s %u..%-8u %-12.1f %-12.1f %.3f\n", name,
              m.min_parity_units, m.max_parity_units,
              user.write_latency_ms.mean(), user.write_latency_ms.max(),
              max_busy / result.horizon_ms);
}

}  // namespace

int main() {
  using namespace pdl;
  bench::header("E16 / parity-update contention (Condition 2)",
                "the disk with the most parity units is the write "
                "bottleneck; balanced parity minimizes it");

  const auto design = design::make_subfield_design(16, 4);  // b = 20, v = 16

  std::printf("write-only workload on (v=16, k=4) layouts:\n\n");
  std::printf("%-24s %-12s %-12s %-12s %s\n", "parity placement",
              "parity/disk", "mean(ms)", "max(ms)", "max util");
  bench::rule();

  run_row("flow-balanced (Thm 14)", layout::flow_balanced_layout(design, 1));
  run_row("round-robin", layout::round_robin_parity_layout(design, 1));
  run_row("perfect (lcm copies)", layout::perfectly_balanced_layout(design));
  run_row("RAID4 (one disk)", layout::raid4_layout(16, 5));

  std::printf("\nexpected shape: mean/max write latency and peak disk "
              "utilization grow with parity imbalance; RAID4 is the "
              "pathology, the flow method the floor\n");
  return 0;
}
