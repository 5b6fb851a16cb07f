// Reconstruction simulation: fail a disk under live load and watch the
// rebuild race, comparing a parity-declustered layout against RAID5, both
// rebuilding into distributed spares; then replay a failure with a
// detection delay for the phase-by-phase view (normal -> degraded ->
// rebuilding -> restored) of a rebuild onto a replacement disk.
//
//   $ ./reconstruction_sim [v] [k] [arrival_per_sec]
//     (defaults: v = 17, k = 5, 20 req/s; k >= 3 leaves room for a spare)

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "core/pdl.hpp"

namespace {

void report(const char* name, const pdl::api::Array& array,
            double arrival_per_ms) {
  using namespace pdl;
  const sim::ScenarioSimulator simulator(
      array, sim::ScenarioConfig{.disk = {}, .rebuild_depth = 4});
  const sim::WorkloadConfig wconfig{
      .arrival_per_ms = arrival_per_ms,
      .write_fraction = 0.3,
      .working_set = simulator.working_set(),
      .duration_ms = 5000.0,
      .seed = 17};
  const auto requests = sim::generate_workload(wconfig);
  const auto fifo = sim::make_fifo_scheduler();

  const auto healthy =
      simulator.run(sim::FaultTimeline::scripted({}), requests, *fifo);
  const auto rebuild =
      simulator.run(sim::FaultTimeline::scripted({{0.0, 0}}), requests, *fifo);
  // With no detection delay the rebuild starts at once: the reads that
  // arrived during it are the rebuilding phase's.
  sim::SampleStats during;
  for (const sim::PhaseRecord& phase : rebuild.phases)
    if (phase.phase == sim::ScenarioPhase::kRebuilding)
      during = phase.user.read_latency_ms;
  const auto busiest =
      std::max_element(rebuild.rebuild_reads_per_disk.begin(),
                       rebuild.rebuild_reads_per_disk.end());

  std::printf("%s\n", name);
  std::printf("  size %u units/disk; busiest survivor reads %.1f%% of "
              "itself\n",
              array.units_per_disk(),
              100.0 * static_cast<double>(*busiest) / array.units_per_disk());
  std::printf("  rebuild: %.0f ms (%llu stripes)\n",
              rebuild.rebuilds.at(0).end_ms,
              static_cast<unsigned long long>(
                  rebuild.rebuilds.at(0).stripes_rebuilt));
  std::printf("  user read latency: healthy %.1f ms -> during rebuild "
              "%.1f ms (p95 %.1f ms, %zu reads)\n\n",
              healthy.user.read_latency_ms.mean(), during.mean(),
              during.percentile(0.95), during.count());
}

// The same failure through the scenario engine: phase timeline with
// per-phase latency and utilization.
void report_phases(const pdl::api::Array& array, double arrival_per_ms) {
  using namespace pdl;
  const sim::ScenarioConfig config{
      .disk = {}, .rebuild_depth = 4, .rebuild_delay_ms = 100.0};
  const sim::ScenarioSimulator simulator(array, config);
  const sim::WorkloadConfig wconfig{
      .arrival_per_ms = arrival_per_ms,
      .write_fraction = 0.3,
      .working_set = simulator.working_set(),
      .duration_ms = 5000.0,
      .seed = 17};
  const auto scheduler = sim::make_scheduler("fifo");
  const auto result =
      simulator.run(sim::FaultTimeline::scripted({{1000.0, 0}}),
                    sim::generate_workload(wconfig), *scheduler);

  std::printf("phase timeline (failure at t=1000, 100 ms detection):\n");
  for (const sim::PhaseRecord& phase : result.phases) {
    sim::SampleStats reads = phase.user.read_latency_ms;
    std::printf("  %-11s [%6.0f, %6.0f) read mean %5.1f ms, max util %3.0f%%\n",
                std::string(sim::phase_name(phase.phase)).c_str(),
                phase.start_ms, phase.end_ms, reads.mean(),
                100.0 * phase.max_disk_utilization());
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pdl;
  const std::uint32_t v = argc > 1 ? std::atoi(argv[1]) : 17;
  const std::uint32_t k = argc > 2 ? std::atoi(argv[2]) : 5;
  if (v < 3 || k < 3 || k > v) {
    // A stripe needs room for its parity, its spare and data.
    std::fprintf(stderr, "need 3 <= k <= v\n");
    return 1;
  }
  const double per_sec = argc > 3 ? std::atof(argv[3]) : 20.0;

  const core::ArraySpec spec{.num_disks = v, .stripe_size = k};
  const auto array = api::Array::create(spec);
  const auto spared =
      api::Array::create(spec, {}, {.sparing = api::SparingMode::kDistributed});
  if (!array.ok() || !spared.ok()) {
    std::fprintf(stderr, "no declustered layout for v=%u k=%u: %s\n", v, k,
                 (array.ok() ? spared : array).status().to_string().c_str());
    return 1;
  }
  const auto raid5 = api::Array::adopt_spared(layout::add_distributed_sparing(
      layout::raid5_layout(v, spared->units_per_disk())));
  if (!raid5.ok()) {
    std::fprintf(stderr, "no RAID5 baseline for v=%u: %s\n", v,
                 raid5.status().to_string().c_str());
    return 1;
  }
  std::printf("failing disk 0 at t=0 under %.0f req/s (30%% writes), "
              "rebuilding into distributed spares...\n\n",
              per_sec);
  const std::string name =
      "declustered: " + construction_name(spared->construction());
  report(name.c_str(), *spared, per_sec / 1000.0);
  report("RAID5 baseline (k = v)", *raid5, per_sec / 1000.0);
  report_phases(*array, per_sec / 1000.0);
  std::printf("declustering spreads the rebuild load over all survivors: "
              "each reads about (k-2)/(v-1) of itself (one unit per stripe "
              "is its spare) where RAID5 reads nearly all of it.\n");
  return 0;
}
