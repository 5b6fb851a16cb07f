// Multi-failure storm benchmark: a scripted two-failure scenario (second
// failure arriving mid-rebuild of the first) played across every layout
// construction that applies at (v, k) and every rebuild-scheduler policy,
// in both dedicated-replacement and distributed-sparing modes.  Emits one
// machine-readable "JSON {...}" line per (construction, scheduler, mode)
// run plus one per phase of the fifo/dedicated run, and verifies that the
// deterministic timeline reproduces bit-identical ScenarioResults.
//
//   $ ./bench_multi_failure [v] [k]     (defaults: v = 17, k = 5)

#include <cstdio>
#include <cstdlib>
#include <string>

#include "api/array.hpp"
#include "bench_util.hpp"
#include "engine/planner.hpp"
#include "sim/fault_timeline.hpp"
#include "sim/rebuild_scheduler.hpp"
#include "sim/scenario.hpp"

namespace {

using namespace pdl;

struct StormStats {
  double last_repair_ms = 0.0;
  double rebuilding_read_mean = 0.0;
  double rebuilding_read_p95 = 0.0;
  double normal_read_mean = 0.0;
  double max_util_rebuilding = 0.0;
};

StormStats summarize(const sim::ScenarioResult& result) {
  StormStats stats;
  for (const sim::RebuildSpan& span : result.rebuilds)
    stats.last_repair_ms = std::max(stats.last_repair_ms, span.end_ms);
  for (const sim::PhaseRecord& phase : result.phases) {
    if (phase.phase == sim::ScenarioPhase::kRebuilding ||
        phase.phase == sim::ScenarioPhase::kDegraded) {
      stats.max_util_rebuilding =
          std::max(stats.max_util_rebuilding, phase.max_disk_utilization());
    }
  }
  // Latency means pooled over phase kinds via count-weighted per-phase
  // means (SampleStats exposes no raw samples); the p95 is taken from the
  // stressed phase with the most samples.
  double stressed_sum = 0.0, normal_sum = 0.0;
  std::size_t stressed_n = 0, normal_n = 0;
  double p95 = 0.0;
  std::size_t p95_n = 0;
  for (const sim::PhaseRecord& phase : result.phases) {
    sim::SampleStats reads = phase.user.read_latency_ms;
    const bool stressed = phase.phase == sim::ScenarioPhase::kRebuilding ||
                          phase.phase == sim::ScenarioPhase::kDegraded;
    if (stressed) {
      stressed_sum += reads.mean() * static_cast<double>(reads.count());
      stressed_n += reads.count();
      if (reads.count() > p95_n) {
        p95_n = reads.count();
        p95 = reads.percentile(0.95);
      }
    } else {
      normal_sum += reads.mean() * static_cast<double>(reads.count());
      normal_n += reads.count();
    }
  }
  if (stressed_n > 0)
    stats.rebuilding_read_mean = stressed_sum / static_cast<double>(stressed_n);
  if (normal_n > 0)
    stats.normal_read_mean = normal_sum / static_cast<double>(normal_n);
  stats.rebuilding_read_p95 = p95;
  return stats;
}

bool same_user(const sim::UserStats& a, const sim::UserStats& b) {
  sim::SampleStats ar = a.read_latency_ms, br = b.read_latency_ms;
  sim::SampleStats aw = a.write_latency_ms, bw = b.write_latency_ms;
  return ar.count() == br.count() && ar.mean() == br.mean() &&
         ar.max() == br.max() && aw.count() == bw.count() &&
         aw.mean() == bw.mean() && aw.max() == bw.max();
}

bool bit_identical(const sim::ScenarioResult& a,
                   const sim::ScenarioResult& b) {
  if (a.horizon_ms != b.horizon_ms || a.events != b.events ||
      a.disk_busy_ms != b.disk_busy_ms ||
      a.disk_accesses != b.disk_accesses ||
      a.rebuild_reads_per_disk != b.rebuild_reads_per_disk ||
      a.rebuild_writes_per_disk != b.rebuild_writes_per_disk ||
      a.data_loss != b.data_loss ||
      a.first_data_loss_ms != b.first_data_loss_ms ||
      a.stripe_instances_lost != b.stripe_instances_lost ||
      a.unserved_reads != b.unserved_reads ||
      a.unserved_writes != b.unserved_writes || !same_user(a.user, b.user))
    return false;
  if (a.rebuilds.size() != b.rebuilds.size()) return false;
  for (std::size_t i = 0; i < a.rebuilds.size(); ++i) {
    if (a.rebuilds[i].disk != b.rebuilds[i].disk ||
        a.rebuilds[i].start_ms != b.rebuilds[i].start_ms ||
        a.rebuilds[i].end_ms != b.rebuilds[i].end_ms ||
        a.rebuilds[i].stripes_rebuilt != b.rebuilds[i].stripes_rebuilt)
      return false;
  }
  if (a.phases.size() != b.phases.size()) return false;
  for (std::size_t i = 0; i < a.phases.size(); ++i) {
    const sim::PhaseRecord& pa = a.phases[i];
    const sim::PhaseRecord& pb = b.phases[i];
    if (pa.phase != pb.phase || pa.start_ms != pb.start_ms ||
        pa.end_ms != pb.end_ms || pa.failed_disks != pb.failed_disks ||
        pa.disk_busy_ms != pb.disk_busy_ms ||
        pa.disk_accesses != pb.disk_accesses || !same_user(pa.user, pb.user))
      return false;
  }
  return true;
}

StormStats emit_run(const std::string& construction,
                    const std::string& scheduler, const char* mode,
                    std::uint32_t v, std::uint32_t k,
                    std::uint32_t units_per_disk,
                    const sim::ScenarioResult& result, bool deterministic) {
  const StormStats stats = summarize(result);
  bench::json_result("multi_failure", /*schema_version=*/2)
      .field("construction", construction)
      .field("scheduler", scheduler)
      .field("sparing", mode)
      .field("v", static_cast<std::uint64_t>(v))
      .field("k", static_cast<std::uint64_t>(k))
      .field("units_per_disk", static_cast<std::uint64_t>(units_per_disk))
      .field("data_loss", result.data_loss)
      .field("stripe_instances_lost", result.stripe_instances_lost)
      .field("unserved_reads", result.unserved_reads)
      .field("rebuild_count", static_cast<std::uint64_t>(result.rebuilds.size()))
      .field("last_repair_ms", stats.last_repair_ms)
      .field("normal_read_mean_ms", stats.normal_read_mean)
      .field("rebuilding_read_mean_ms", stats.rebuilding_read_mean)
      .field("rebuilding_read_p95_ms", stats.rebuilding_read_p95)
      .field("max_util_rebuilding", stats.max_util_rebuilding)
      .field("horizon_ms", result.horizon_ms)
      .field("deterministic", deterministic)
      .emit();
  return stats;
}

void emit_phases(const std::string& construction,
                 const std::string& scheduler, const char* mode,
                 const sim::ScenarioResult& result) {
  for (std::size_t i = 0; i < result.phases.size(); ++i) {
    const sim::PhaseRecord& phase = result.phases[i];
    sim::SampleStats reads = phase.user.read_latency_ms;
    bench::json_result("multi_failure_phase", /*schema_version=*/2)
        .field("construction", construction)
        .field("scheduler", scheduler)
        .field("sparing", mode)
        .field("phase_index", static_cast<std::uint64_t>(i))
        .field("phase", std::string(sim::phase_name(phase.phase)))
        .field("start_ms", phase.start_ms)
        .field("end_ms", phase.end_ms)
        .field("failed_disks", static_cast<std::uint64_t>(phase.failed_disks))
        .field("max_disk_utilization", phase.max_disk_utilization())
        .field("read_count", static_cast<std::uint64_t>(reads.count()))
        .field("read_mean_ms", reads.mean())
        .emit();
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint32_t v = argc > 1 ? std::atoi(argv[1]) : 17;
  const std::uint32_t k = argc > 2 ? std::atoi(argv[2]) : 5;
  if (v < 3 || k < 2 || k > v) {
    std::fprintf(stderr, "need 3 <= v and 2 <= k <= v\n");
    return 1;
  }

  bench::header("multi-failure fault storm",
                "declustering guarantees under failure sequences and "
                "concurrent rebuilds (Section 5 regime, generalized)");

  const auto& planner = engine::ConstructionPlanner::default_planner();
  const auto plans = planner.rank_plans({v, k}, {});
  const sim::ScenarioConfig config{
      .disk = {}, .rebuild_depth = 4, .rebuild_delay_ms = 100.0};

  std::size_t constructions_run = 0;
  for (const auto& plan : plans) {
    if (plan.units_per_disk > 2000) continue;  // skip lambda blowups
    // Both rebuild modes come through the api::Array front door, pinned to
    // this plan's construction.
    const auto dedicated_array = api::Array::create(
        {v, k}, {}, {.construction = plan.construction});
    const auto spared_array = api::Array::create(
        {v, k}, {},
        {.sparing = api::SparingMode::kDistributed,
         .construction = plan.construction});
    if (!dedicated_array.ok() || !spared_array.ok()) {
      std::fprintf(stderr, "skipping %s: %s\n",
                   core::construction_name(plan.construction).c_str(),
                   (dedicated_array.ok() ? spared_array : dedicated_array)
                       .status().to_string().c_str());
      continue;
    }
    const std::string construction =
        core::construction_name(dedicated_array->construction());
    const std::uint32_t units_per_disk = dedicated_array->units_per_disk();
    ++constructions_run;

    // One simulator per mode, reused across every scheduler run (the
    // compiled serving tables and the sparing flow are built once).
    const sim::ScenarioSimulator dedicated(*dedicated_array, config);
    const sim::ScenarioSimulator distributed(*spared_array, config);

    // Storm: first failure at t = 500 ms, second mid-rebuild of the first.
    const auto probe = dedicated.run(
        sim::FaultTimeline::scripted({{500.0, 0}}), {},
        *sim::make_fifo_scheduler());
    const double mid =
        500.0 + 0.5 * (probe.rebuilds[0].end_ms - 500.0);
    const auto timeline = sim::FaultTimeline::scripted(
        {{500.0, 0}, {mid, (v / 2)}});

    const sim::WorkloadConfig wconfig{
        .arrival_per_ms = 0.05,
        .write_fraction = 0.3,
        .working_set = dedicated.working_set(),
        .duration_ms = 5000.0,
        .seed = 17};
    const auto requests = sim::generate_workload(wconfig);
    auto spared_wconfig = wconfig;
    spared_wconfig.working_set = distributed.working_set();
    const auto spared_requests = sim::generate_workload(spared_wconfig);

    std::printf("%s (s = %u)\n", construction.c_str(),
                units_per_disk);
    for (const std::string_view name : sim::scheduler_names()) {
      const auto scheduler = sim::make_scheduler(name);
      const auto result = dedicated.run(timeline, requests, *scheduler);
      const bool deterministic = bit_identical(
          result, dedicated.run(timeline, requests, *scheduler));
      const StormStats stats =
          emit_run(construction, std::string(name), "dedicated", v, k,
                   units_per_disk, result, deterministic);
      if (name == "fifo")
        emit_phases(construction, std::string(name), "dedicated", result);

      const auto spared_result =
          distributed.run(timeline, spared_requests, *scheduler);
      const bool spared_deterministic = bit_identical(
          spared_result,
          distributed.run(timeline, spared_requests, *scheduler));
      emit_run(construction, std::string(name), "distributed", v, k,
               units_per_disk, spared_result,
               spared_deterministic);

      std::printf("  %-16s repair %.0f ms, stressed read %.1f ms, "
                  "lost %llu\n",
                  std::string(name).c_str(), stats.last_repair_ms,
                  stats.rebuilding_read_mean,
                  static_cast<unsigned long long>(
                      result.stripe_instances_lost));
    }
  }
  bench::rule();
  std::printf("constructions exercised: %zu (>= 3 expected at the default "
              "spec), schedulers: %zu\n",
              constructions_run, sim::scheduler_names().size());
  if (constructions_run < 3 && v == 17 && k == 5) {
    std::fprintf(stderr, "expected >= 3 constructions at v=17 k=5\n");
    return 1;
  }
  return 0;
}
