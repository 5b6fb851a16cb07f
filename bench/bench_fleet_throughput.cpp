// Fleet-tier throughput: one heterogeneous fleet (XOR next to
// Reed-Solomon shards, different geometries) served through the
// fleet::Fleet front door by a zipfian workload spanning every shard,
// measured through three phases:
//
//   * healthy          -- no failures, the routing baseline;
//   * rebuilding/fifo  -- one shard rebuilding at an UNGOVERNED rate
//                         (fifo policy, unlimited budget) under
//                         sustained pressure (the rebuilder re-fails
//                         the disk whenever the plan drains, so every
//                         foreground sample contends with rebuild);
//   * rebuilding/foreground-protecting -- the same scenario, but the
//                         RebuildGovernor throttles rebuild to a small
//                         floor whenever foreground traffic is hot.
//
// The fleet-governor trade-off is the headline: the protecting policy
// must buy MORE foreground MB/s than fifo under the same rebuild
// pressure, while the rebuild still completes (the floor is strictly
// positive, so repair is never starved).  A fleet_governor_tradeoff
// JSON record carries the comparison; CI greps tradeoff_ok.  A final
// fair-share experiment rebuilds TWO shards against one rate-limited
// budget and reports the per-shard grant split.
//
//   $ ./bench_fleet_throughput [--smoke]
//
// Every byte served is verified against the canonical content pattern
// and every phase ends with a full-space sweep, so the numbers come
// with a built-in correctness proof.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "api/array.hpp"
#include "bench_util.hpp"
#include "fleet/fleet.hpp"
#include "fleet/governor.hpp"
#include "io/workload_driver.hpp"

namespace {

using namespace pdl;

struct BenchConfig {
  std::uint32_t block_bytes = 4096;
  std::uint32_t iterations = 4;
  std::uint32_t threads = 8;
  std::uint64_t ops_per_thread = 60000;
  double read_fraction = 0.7;
  double protected_bytes_per_sec = 4.0 * 1024 * 1024;
  std::uint64_t burst_bytes = 256 * 1024;
};

fleet::ShardSpec make_shard(std::uint32_t v, std::uint32_t k,
                            core::CodecKind codec,
                            std::uint32_t iterations) {
  auto array = api::Array::create({.num_disks = v, .stripe_size = k}, {},
                                  {.codec = codec});
  if (!array.ok()) {
    std::fprintf(stderr, "array creation failed: %s\n",
                 array.status().to_string().c_str());
    std::exit(1);
  }
  return fleet::ShardSpec{.array = std::move(array).value(),
                          .iterations = iterations};
}

/// The bench's heterogeneous fleet: two XOR shards around one
/// Reed-Solomon P+Q shard, all behind one block space.
Result<fleet::Fleet> make_fleet(const BenchConfig& config,
                                fleet::GovernorPolicy policy) {
  std::vector<fleet::ShardSpec> shards;
  shards.push_back(make_shard(9, 4, core::CodecKind::kXorParity,
                              config.iterations));
  shards.push_back(make_shard(17, 5, core::CodecKind::kReedSolomonPQ,
                              std::max(1u, config.iterations / 2)));
  shards.push_back(make_shard(9, 4, core::CodecKind::kXorParity,
                              config.iterations));
  fleet::FleetOptions options{.block_bytes = config.block_bytes};
  options.governor.policy = policy;
  options.governor.rebuild_bytes_per_sec = 0;  // unlimited steady-state
  options.governor.protected_bytes_per_sec = config.protected_bytes_per_sec;
  // A small burst keeps the protecting floor binding from the first
  // pass -- a deep bucket would let a whole rebuild cycle through
  // ungoverned before the rate ever mattered.
  options.governor.burst_bytes = config.burst_bytes;
  return fleet::Fleet::create(std::move(shards), options);
}

struct PhaseResult {
  double mbps = 0;
  io::WorkloadStats stats;
};

PhaseResult run_phase(fleet::Fleet& fleet, const BenchConfig& config,
                      std::uint64_t seed) {
  io::WorkloadDriver driver(
      fleet, {.num_threads = config.threads,
              .ops_per_thread = config.ops_per_thread,
              .read_fraction = config.read_fraction,
              .pattern = io::AccessPattern::kZipfian,
              .seed = seed,
              .verify_reads = true});
  PhaseResult result;
  result.stats = driver.run();
  result.mbps = result.stats.mb_per_second();
  return result;
}

/// Full sweep of the fleet block space; returns mismatching blocks.
std::uint64_t verify_all(fleet::Fleet& fleet, std::uint64_t seed) {
  std::vector<std::uint8_t> block(fleet.block_bytes());
  std::vector<std::uint8_t> expected(fleet.block_bytes());
  std::uint64_t mismatches = 0;
  for (std::uint64_t b = 0; b < fleet.num_blocks(); ++b) {
    io::canonical_fill(b, seed, expected);
    if (!fleet.read(b, block).ok() || block != expected) ++mismatches;
  }
  return mismatches;
}

struct PolicyResult {
  double fg_mbps = 0;
  std::uint32_t read_p99_ns = 0;
  std::uint32_t write_p99_ns = 0;
  double rebuild_mbps = 0;
  std::uint64_t stripes_rebuilt = 0;
  bool completed = false;  ///< rebuild quiescent + fleet healthy at the end
  bool verified = false;
};

/// One rebuilding-under-fire phase under `policy`: shard
/// kRebuildShard's disk fails, a rebuilder thread keeps governed
/// rebuild pressure on for the whole foreground phase (re-failing the
/// disk whenever the plan drains), and the foreground workload is
/// measured against it.
constexpr std::uint32_t kRebuildShard = 0;
constexpr layout::DiskId kRebuildDisk = 2;

bool run_policy(fleet::GovernorPolicy policy, const BenchConfig& config,
                std::uint64_t seed, PolicyResult& out,
                fleet::GovernorStats* governor_stats = nullptr) {
  auto created = make_fleet(config, policy);
  if (!created.ok()) {
    std::fprintf(stderr, "fleet creation failed: %s\n",
                 created.status().to_string().c_str());
    return false;
  }
  fleet::Fleet& fleet = created.value();
  if (!io::fill_canonical(fleet, 0, fleet.num_blocks(), seed).ok())
    return false;

  if (!fleet.fail_disk(kRebuildShard, kRebuildDisk).ok() ||
      !fleet.replace_disk(kRebuildShard, kRebuildDisk).ok())
    return false;

  // Sustained rebuild pressure: whenever the shard's plan drains, the
  // rebuilder re-fails and re-replaces the same disk -- every
  // foreground sample contends with rebuild work (as governed by the
  // policy), not just the first moments of the phase.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> stripes{0};
  const auto phase_start = std::chrono::steady_clock::now();
  std::thread rebuilder([&] {
    for (;;) {
      const auto applied = fleet.rebuild_some(kRebuildShard, 4);
      if (!applied.ok()) break;
      stripes.fetch_add(*applied, std::memory_order_relaxed);
      if (*applied == 0) {
        if (stop.load(std::memory_order_relaxed)) break;
        if (!fleet.fail_disk(kRebuildShard, kRebuildDisk).ok() ||
            !fleet.replace_disk(kRebuildShard, kRebuildDisk).ok())
          break;
      }
    }
  });
  const PhaseResult foreground = run_phase(fleet, config, seed);
  const double phase_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    phase_start)
          .count();
  stop.store(true, std::memory_order_relaxed);
  rebuilder.join();

  // Finish the in-flight repair so the sweep sees a healed fleet --
  // the governor's floor guarantees this terminates under any policy.
  const auto outcome = fleet.rebuild(kRebuildShard);
  if (!outcome.ok()) return false;

  const std::uint64_t mismatches = verify_all(fleet, seed);
  out.fg_mbps = foreground.mbps;
  out.read_p99_ns = foreground.stats.read_latency_quantile_ns(0.99);
  out.write_p99_ns = foreground.stats.write_latency_quantile_ns(0.99);
  out.stripes_rebuilt = stripes.load(std::memory_order_relaxed);
  out.rebuild_mbps =
      phase_seconds > 0
          ? static_cast<double>(out.stripes_rebuilt) *
                fleet.shard(kRebuildShard).iterations() *
                config.block_bytes / 1e6 / phase_seconds
          : 0.0;
  out.completed = fleet.healthy();
  out.verified = mismatches == 0 && foreground.stats.verify_failures == 0 &&
                 foreground.stats.errors == 0 && out.completed;
  if (governor_stats != nullptr)
    *governor_stats = fleet.governor().shard_stats(kRebuildShard);

  std::printf(
      "rebuilding %-22s fg %8.1f MB/s  read p99 %9u ns  write p99 %9u ns  "
      "rebuild %7.1f MB/s  %s\n",
      std::string(fleet::governor_policy_name(policy)).c_str(), out.fg_mbps,
      out.read_p99_ns, out.write_p99_ns, out.rebuild_mbps,
      bench::okbad(out.verified));
  bench::json_result("fleet_throughput", /*schema_version=*/2)
      .field("phase", "rebuilding")
      .field("policy", std::string(fleet::governor_policy_name(policy)))
      .field("shards", static_cast<std::uint64_t>(fleet.num_shards()))
      .field("blocks", fleet.num_blocks())
      .field("block_bytes", static_cast<std::uint64_t>(fleet.block_bytes()))
      .field("threads", static_cast<std::uint64_t>(config.threads))
      .field("ops_per_thread", config.ops_per_thread)
      .field("fg_mbps", out.fg_mbps)
      .field("read_p99_ns", static_cast<std::uint64_t>(out.read_p99_ns))
      .field("write_p99_ns", static_cast<std::uint64_t>(out.write_p99_ns))
      .field("rebuild_mbps", out.rebuild_mbps)
      .field("stripes_rebuilt", out.stripes_rebuilt)
      .field("rebuild_completed", out.completed)
      .field("verified", out.verified)
      .emit();
  return true;
}

/// Fair-share: TWO shards rebuilding against one rate-limited budget;
/// the governor's grant split should track both shards rather than
/// letting the first-come shard monopolize.  Reported, not CI-gated
/// (the split ratio is timing-dependent).
bool run_fairshare(const BenchConfig& config, std::uint64_t seed) {
  auto created = make_fleet(config, fleet::GovernorPolicy::kFairShare);
  if (!created.ok()) return false;
  fleet::Fleet& fleet = created.value();
  if (!io::fill_canonical(fleet, 0, fleet.num_blocks(), seed).ok())
    return false;

  for (const std::uint32_t shard : {0u, 2u})
    if (!fleet.fail_disk(shard, 1).ok() || !fleet.replace_disk(shard, 1).ok())
      return false;

  std::vector<std::thread> rebuilders;
  std::atomic<bool> failed{false};
  for (const std::uint32_t shard : {0u, 2u})
    rebuilders.emplace_back([&fleet, &failed, shard] {
      if (!fleet.rebuild(shard).ok()) failed.store(true);
    });
  const PhaseResult foreground = run_phase(fleet, config, seed);
  for (std::thread& t : rebuilders) t.join();

  const bool verified = !failed.load() && fleet.healthy() &&
                        foreground.stats.verify_failures == 0 &&
                        verify_all(fleet, seed) == 0;
  const fleet::GovernorStats s0 = fleet.governor().shard_stats(0);
  const fleet::GovernorStats s2 = fleet.governor().shard_stats(2);
  std::printf(
      "fair-share  shard0 %8.1f MB granted  shard2 %8.1f MB granted  %s\n",
      static_cast<double>(s0.granted_bytes - s0.refunded_bytes) / 1e6,
      static_cast<double>(s2.granted_bytes - s2.refunded_bytes) / 1e6,
      bench::okbad(verified));
  bench::json_result("fleet_fairshare", /*schema_version=*/1)
      .field("shard0_granted_bytes", s0.granted_bytes - s0.refunded_bytes)
      .field("shard2_granted_bytes", s2.granted_bytes - s2.refunded_bytes)
      .field("fg_mbps", foreground.mbps)
      .field("verified", verified)
      .emit();
  return verified;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int arg = 1; arg < argc; ++arg) {
    if (std::strcmp(argv[arg], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke]\n", argv[0]);
      return 1;
    }
  }

  BenchConfig config;
  if (smoke) {
    config = {.block_bytes = 512,
              .iterations = 2,
              .threads = 2,
              .ops_per_thread = 60000,
              .read_fraction = 0.7,
              // A tiny floor makes the policies maximally distinct in
              // the short smoke window; full runs use a realistic one.
              .protected_bytes_per_sec = 64.0 * 1024,
              .burst_bytes = 16 * 1024};
  }
  const std::uint64_t seed = 42;

  bench::header(
      "fleet throughput & the rebuild-bandwidth governor",
      "many declustered arrays behind one front door: a shard map "
      "routes one block space over heterogeneous arrays, and a "
      "fleet-wide governor decides how rebuild bandwidth trades "
      "against foreground service");

  // Healthy baseline (no failures, fifo fleet).
  bool all_ok = true;
  {
    auto created = make_fleet(config, fleet::GovernorPolicy::kFifo);
    if (!created.ok()) {
      std::fprintf(stderr, "fleet creation failed: %s\n",
                   created.status().to_string().c_str());
      return 1;
    }
    fleet::Fleet& fleet = created.value();
    if (!io::fill_canonical(fleet, 0, fleet.num_blocks(), seed).ok())
      return 1;
    const PhaseResult healthy = run_phase(fleet, config, seed);
    const bool verified = healthy.stats.verify_failures == 0 &&
                          healthy.stats.errors == 0 &&
                          verify_all(fleet, seed) == 0;
    all_ok = all_ok && verified;
    std::printf(
        "healthy     %-22s fg %8.1f MB/s  read p99 %9u ns  write p99 %9u ns"
        "  %s\n",
        "(3 shards, no failures)", healthy.mbps,
        healthy.stats.read_latency_quantile_ns(0.99),
        healthy.stats.write_latency_quantile_ns(0.99),
        bench::okbad(verified));
    bench::json_result("fleet_throughput", /*schema_version=*/2)
        .field("phase", "healthy")
        .field("policy", "none")
        .field("shards", static_cast<std::uint64_t>(fleet.num_shards()))
        .field("blocks", fleet.num_blocks())
        .field("block_bytes", static_cast<std::uint64_t>(fleet.block_bytes()))
        .field("threads", static_cast<std::uint64_t>(config.threads))
        .field("ops_per_thread", config.ops_per_thread)
        .field("fg_mbps", healthy.mbps)
        .field("read_p99_ns",
               static_cast<std::uint64_t>(
                   healthy.stats.read_latency_quantile_ns(0.99)))
        .field("write_p99_ns",
               static_cast<std::uint64_t>(
                   healthy.stats.write_latency_quantile_ns(0.99)))
        .field("rebuild_mbps", 0.0)
        .field("stripes_rebuilt", std::uint64_t{0})
        .field("rebuild_completed", true)
        .field("verified", verified)
        .emit();
  }

  // The governor trade-off: identical rebuild pressure, fifo vs
  // foreground-protecting.
  PolicyResult fifo, protecting;
  fleet::GovernorStats protecting_gov;
  if (!run_policy(fleet::GovernorPolicy::kFifo, config, seed, fifo))
    return 1;
  if (!run_policy(fleet::GovernorPolicy::kForegroundProtecting, config, seed,
                  protecting, &protecting_gov))
    return 1;
  all_ok = all_ok && fifo.verified && protecting.verified;

  const bool tradeoff_ok = protecting.fg_mbps > fifo.fg_mbps &&
                           fifo.completed && protecting.completed;
  std::printf(
      "tradeoff    protecting fg %8.1f MB/s vs fifo fg %8.1f MB/s "
      "(%+5.1f%%)  throttled grants %llu  %s\n",
      protecting.fg_mbps, fifo.fg_mbps,
      fifo.fg_mbps > 0
          ? (protecting.fg_mbps / fifo.fg_mbps - 1.0) * 100.0
          : 0.0,
      static_cast<unsigned long long>(protecting_gov.throttled_grants),
      bench::okbad(tradeoff_ok));
  bench::json_result("fleet_governor_tradeoff", /*schema_version=*/2)
      .field("fifo_fg_mbps", fifo.fg_mbps)
      .field("protecting_fg_mbps", protecting.fg_mbps)
      .field("fifo_read_p99_ns", static_cast<std::uint64_t>(fifo.read_p99_ns))
      .field("protecting_read_p99_ns",
             static_cast<std::uint64_t>(protecting.read_p99_ns))
      .field("fifo_rebuild_mbps", fifo.rebuild_mbps)
      .field("protecting_rebuild_mbps", protecting.rebuild_mbps)
      .field("protecting_throttled_grants", protecting_gov.throttled_grants)
      .field("protecting_wait_us", protecting_gov.wait_us)
      .field("rebuilds_completed", fifo.completed && protecting.completed)
      .field("tradeoff_ok", tradeoff_ok)
      .emit();
  all_ok = all_ok && tradeoff_ok;

  if (!run_fairshare(config, seed)) all_ok = false;

  if (!all_ok) {
    std::fprintf(stderr, "fleet throughput: verification FAILED\n");
    return 1;
  }
  return 0;
}
