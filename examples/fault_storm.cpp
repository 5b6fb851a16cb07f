// Fault storm walkthrough: inject a sequence of disk failures -- the
// second one arriving while the first rebuild is still running -- and
// watch the array move through its service phases, under both
// dedicated-replacement and distributed-sparing rebuilds.  Layouts come
// from the engine cache, so both simulators share one derivation.
//
//   $ ./fault_storm [v] [k] [scheduler]
//     (defaults: v = 17, k = 5, fifo; schedulers: fifo, max-parallelism,
//      throttled)

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/pdl.hpp"

namespace {

using namespace pdl;

void report(const char* mode, const sim::ScenarioResult& result) {
  std::printf("%s rebuild:\n", mode);
  std::printf("  %-11s %9s %9s %7s %10s %11s\n", "phase", "start", "end",
              "reads", "mean ms", "max util");
  for (const sim::PhaseRecord& phase : result.phases) {
    sim::SampleStats reads = phase.user.read_latency_ms;
    std::printf("  %-11s %9.0f %9.0f %7zu %10.1f %10.0f%%\n",
                std::string(sim::phase_name(phase.phase)).c_str(),
                phase.start_ms, phase.end_ms, reads.count(), reads.mean(),
                100.0 * phase.max_disk_utilization());
  }
  for (const sim::ScenarioEvent& event : result.events) {
    std::printf("  t=%7.0f  %-15s disk %u\n", event.time_ms,
                std::string(sim::event_kind_name(event.kind)).c_str(),
                event.disk);
  }
  if (result.data_loss) {
    std::printf("  DATA LOSS at t=%.0f: %llu stripe instance(s) lost two "
                "units; %llu request(s) unserved\n",
                result.first_data_loss_ms,
                static_cast<unsigned long long>(result.stripe_instances_lost),
                static_cast<unsigned long long>(result.unserved_reads +
                                                result.unserved_writes));
  } else {
    std::printf("  no data loss: every lost unit was rebuilt in time\n");
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint32_t v = argc > 1 ? std::atoi(argv[1]) : 17;
  const std::uint32_t k = argc > 2 ? std::atoi(argv[2]) : 5;
  const std::string policy = argc > 3 ? argv[3] : "fifo";
  if (v < 3 || k < 2 || k > v) {
    std::fprintf(stderr, "need 3 <= v and 2 <= k <= v\n");
    return 1;
  }
  bool known_policy = false;
  for (const std::string_view name : sim::scheduler_names())
    known_policy = known_policy || name == policy;
  if (!known_policy) {
    std::fprintf(stderr,
                 "unknown scheduler '%s' (fifo, max-parallelism, throttled)\n",
                 policy.c_str());
    return 1;
  }

  // Two arrays over one cached layout derivation: dedicated-replacement
  // and distributed-sparing rebuild modes.
  const core::ArraySpec spec{.num_disks = v, .stripe_size = k};
  const auto dedicated_array = api::Array::create(spec);
  const auto spared_array = api::Array::create(
      spec, {}, {.sparing = api::SparingMode::kDistributed});
  if (!dedicated_array.ok() || !spared_array.ok()) {
    std::fprintf(stderr, "no declustered layout for v=%u k=%u: %s\n", v, k,
                 (dedicated_array.ok() ? spared_array : dedicated_array)
                     .status().to_string().c_str());
    return 1;
  }

  const sim::ScenarioConfig config{
      .disk = {}, .rebuild_depth = 4, .rebuild_delay_ms = 100.0};
  const sim::ScenarioSimulator dedicated(*dedicated_array, config);
  const sim::ScenarioSimulator distributed(*spared_array, config);
  const auto scheduler = sim::make_scheduler(policy);

  // Place the second failure halfway through the first rebuild.
  const auto probe = dedicated.run(
      sim::FaultTimeline::scripted({{400.0, 0}}), {}, *scheduler);
  const double mid = 400.0 + 0.5 * (probe.rebuilds[0].end_ms - 400.0);
  const auto timeline =
      sim::FaultTimeline::scripted({{400.0, 0}, {mid, v / 2}});

  const sim::WorkloadConfig wconfig{
      .arrival_per_ms = 0.05,
      .write_fraction = 0.3,
      .working_set = dedicated.working_set(),
      .duration_ms = 6000.0,
      .seed = 17};

  std::printf("fault storm on %s (v=%u k=%u s=%u), %s scheduler:\n"
              "disk 0 fails at t=400, disk %u fails mid-rebuild at t=%.0f\n\n",
              construction_name(dedicated_array->construction()).c_str(), v,
              k, dedicated_array->units_per_disk(), policy.c_str(), v / 2,
              mid);

  report("dedicated-replacement",
         dedicated.run(timeline, sim::generate_workload(wconfig),
                       *scheduler));

  auto spared_wconfig = wconfig;
  spared_wconfig.working_set = distributed.working_set();
  report("distributed-sparing",
         distributed.run(timeline, sim::generate_workload(spared_wconfig),
                         *scheduler));

  const auto stats = engine::Engine::global().cache().stats();
  std::printf("engine cache: %llu hits, %llu misses (layout derived once, "
              "reused across scenario runs)\n",
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses));
  return 0;
}
