// Distributed sparing demo (the paper's Section 5 direction): reserve one
// spare unit per stripe, balanced across disks by the same network-flow
// machinery as parity, and rebuild a failed disk into the spares -- no
// dedicated spare disk, declustered rebuild writes.  Everything runs
// through the pdl::api::Array front door and its online failure/rebuild
// state machine.
//
//   $ ./distributed_sparing [v] [k]   (defaults: v = 17, k = 4)

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "core/pdl.hpp"

int main(int argc, char** argv) {
  using namespace pdl;
  const std::uint32_t v = argc > 1 ? std::atoi(argv[1]) : 17;
  const std::uint32_t k = argc > 2 ? std::atoi(argv[2]) : 4;

  auto array = api::Array::create({.num_disks = v, .stripe_size = k}, {},
                                  {.sparing = api::SparingMode::kDistributed});
  if (!array.ok()) {
    std::fprintf(stderr, "cannot build spared array: %s\n",
                 array.status().to_string().c_str());
    return 1;
  }

  const layout::SparedLayout& spared = *array->spared_layout();
  const auto spares = spared.spares_per_disk();
  const auto [lo, hi] = std::minmax_element(spares.begin(), spares.end());
  std::printf("array: %s, v=%u, k=%u, %u units/disk\n",
              construction_name(array->construction()).c_str(), v, k,
              array->units_per_disk());
  std::printf("spares per disk: %u..%u (balanced by the generalized "
              "Theorem 14 flow)\n",
              *lo, *hi);

  // Fail a disk and plan the rebuild through the state machine: every
  // lost unit targets its own stripe's spare on a surviving disk.
  const api::Array healthy = *array;  // the simulators below start healthy
  const layout::DiskId failed = 0;
  (void)array->fail_disk(failed);
  const auto plan = array->plan_rebuild();
  std::uint32_t max_writes = 0;
  for (std::uint32_t d = 0; d < v; ++d)
    if (d != failed)
      max_writes = std::max(max_writes, plan->writes_per_disk[d]);
  std::printf("\nafter disk %u fails, rebuild writes per survivor: max %u "
              "(dedicated spare would take all %u)\n",
              failed, max_writes, array->units_per_disk());

  const auto outcome = array->rebuild();
  std::printf("rebuilt %llu stripes into distributed spares without a "
              "replacement disk (%llu blocked)\n",
              static_cast<unsigned long long>(outcome->applied),
              static_cast<unsigned long long>(outcome->blocked));

  // Timing on the event-driven simulator: the same failure rebuilt into the
  // distributed spares, and in place onto a replacement disk of the same
  // layout without spares.
  const auto plain = api::Array::adopt(spared.layout);
  if (!plain.ok()) {
    std::fprintf(stderr, "cannot adopt the layout: %s\n",
                 plain.status().to_string().c_str());
    return 1;
  }
  const sim::ScenarioConfig config{.disk = {}, .rebuild_depth = 4};
  const auto timeline = sim::FaultTimeline::scripted({{0.0, failed}});
  const auto fifo = sim::make_fifo_scheduler();
  const auto distributed =
      sim::ScenarioSimulator(healthy, config).run(timeline, {}, *fifo);
  const auto dedicated =
      sim::ScenarioSimulator(*plain, config).run(timeline, {}, *fifo);
  std::printf("\nsimulated rebuild: distributed %.0f ms vs in-place "
              "replacement %.0f ms\n",
              distributed.rebuilds.at(0).end_ms,
              dedicated.rebuilds.at(0).end_ms);
  std::printf("(the replacement takes every rebuild write; the distributed "
              "array needs no replacement disk at all)\n");
  return 0;
}
