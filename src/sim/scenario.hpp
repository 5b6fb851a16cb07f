#pragma once
// Multi-failure scenario simulation: an api::Array served and rebuilt in
// simulated time under an arbitrary FaultTimeline, each failure's rebuild
// ordered and paced by a pluggable RebuildScheduler.
//
// The failure state is the array's own.  Each run() drives a copy of the
// healthy array the simulator was built from:
//  * a failure calls fail_disk; data loss is the rise in stripes_lost(),
//    so a stripe is lost once it loses more units than the codec bears
//    (two under XOR parity, three under Reed-Solomon P+Q), and requests
//    that address lost data are counted as unserved;
//  * requests are served from locate and plan_write: an intact unit is
//    one access, a lost one is decoded from its survivor set;
//  * at a failure's ready time (failure plus rebuild_delay_ms: detection
//    and hot-swap) the run calls replace_disk and queues, through the
//    scheduler, the steps of plan_rebuild that restore units this failure
//    lost; a later failure's units wait for its own ready time, even where
//    a spare could take them sooner.  A step reads its survivors,
//    writes its target, and is applied when the write lands.  A failure
//    since it was planned re-plans it before it reads or writes, a target
//    that went stale under the write (its spare's disk failed) re-plans
//    and retries it, and a step whose stripe was lost is dropped.
//
// Rebuild targets follow the array's sparing mode: a dedicated array
// rewrites lost units in place on the failed disk's replacement; a
// distributed-sparing array rebuilds each lost unit into its stripe's
// spare unit on a surviving disk (layout/sparing), so rebuild writes are
// declustered like the reads, and falls back to the home slot when that
// spare is consumed or sits on a disk that is not healthy.
//
// The run is cut into phases at every service-state transition
// (normal -> degraded -> rebuilding -> restored; a later failure reenters
// degraded/rebuilding).  Each PhaseRecord carries the per-disk busy time
// and access counts accrued in the phase (attributed at submit time) and
// the latency of user requests that ARRIVED in the phase.  Results are
// bit-identical across runs for the same inputs: the engine draws no
// randomness and never reads the clock.

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "api/array.hpp"
#include "sim/disk.hpp"
#include "sim/fault_timeline.hpp"
#include "sim/rebuild_scheduler.hpp"
#include "sim/stats.hpp"
#include "sim/workload.hpp"

namespace pdl::sim {

/// Service state of the array during a phase.
enum class ScenarioPhase : std::uint8_t {
  kNormal = 0,      ///< no failures so far
  kDegraded = 1,    ///< >= 1 failed disk, rebuild not dispatching
  kRebuilding = 2,  ///< >= 1 failed disk, rebuild jobs in flight or queued
  kRestored = 3,    ///< all failures repaired (recoverable data rebuilt)
};

[[nodiscard]] std::string_view phase_name(ScenarioPhase phase) noexcept;

/// One contiguous span of a single service state.
struct PhaseRecord {
  ScenarioPhase phase = ScenarioPhase::kNormal;
  double start_ms = 0.0;
  double end_ms = 0.0;
  std::uint32_t failed_disks = 0;  ///< unrepaired failures when it opened
  UserStats user;                  ///< requests that arrived in this phase
  std::vector<double> disk_busy_ms;            ///< accrued within the phase
  std::vector<std::uint64_t> disk_accesses;    ///< accrued within the phase

  [[nodiscard]] double duration_ms() const noexcept {
    return end_ms - start_ms;
  }
  /// Busy fraction of one disk over the phase (0 for empty phases).
  [[nodiscard]] double utilization(layout::DiskId disk) const;
  [[nodiscard]] double max_disk_utilization() const;
};

enum class ScenarioEventKind : std::uint8_t {
  kFailure = 0,
  kRebuildStart = 1,    ///< first job of a failure's batch dispatched
  kRepairComplete = 2,  ///< last job of a failure's batch finished
  kDataLoss = 3,        ///< a stripe lost more units than its codec bears
};

[[nodiscard]] std::string_view event_kind_name(
    ScenarioEventKind kind) noexcept;

struct ScenarioEvent {
  double time_ms = 0.0;
  ScenarioEventKind kind = ScenarioEventKind::kFailure;
  layout::DiskId disk = 0;

  friend bool operator==(const ScenarioEvent&, const ScenarioEvent&) = default;
};

/// One failure's rebuild, start of first job to completion of the last.
struct RebuildSpan {
  layout::DiskId disk = 0;
  double start_ms = 0.0;
  double end_ms = 0.0;
  std::uint64_t stripes_rebuilt = 0;  ///< stripe instances restored
};

/// Everything a scenario run produced.
struct ScenarioResult {
  std::vector<PhaseRecord> phases;    ///< the normal->...->restored timeline
  std::vector<ScenarioEvent> events;  ///< time-ordered state transitions
  std::vector<RebuildSpan> rebuilds;  ///< one per failure with lost data

  UserStats user;          ///< all phases together
  double horizon_ms = 0.0; ///< completion time of the last event

  bool data_loss = false;
  double first_data_loss_ms = 0.0;
  std::uint64_t stripe_instances_lost = 0;  ///< unrecoverable stripes
  std::uint64_t unserved_reads = 0;   ///< reads addressing unrecoverable data
  std::uint64_t unserved_writes = 0;  ///< writes addressing unrecoverable data

  std::vector<std::uint64_t> rebuild_reads_per_disk;
  std::vector<std::uint64_t> rebuild_writes_per_disk;
  std::vector<double> disk_busy_ms;          ///< whole run
  std::vector<std::uint64_t> disk_accesses;  ///< whole run
};

/// Scenario parameters.  `rebuild_delay_ms` models failure detection plus
/// replacement hot-swap: the window between a failure and its first rebuild
/// job, during which the array serves purely degraded (the kDegraded
/// phase).
struct ScenarioConfig {
  DiskParams disk;
  std::uint32_t rebuild_depth = 4;
  double rebuild_delay_ms = 0.0;
};

/// Simulates fault/rebuild scenarios over one api::Array.  Stateless across
/// runs; each run() replays its inputs from time zero on a fresh copy of
/// the array.
class ScenarioSimulator {
 public:
  /// Simulates `array` in its own codec and sparing mode.  Throws
  /// std::invalid_argument unless the array is healthy, rebuild_depth is
  /// at least 1 and rebuild_delay_ms is not negative.
  ScenarioSimulator(const api::Array& array, ScenarioConfig config);

  /// Logical data units addressable by workloads: the array's data units
  /// over one layout iteration (parity and spare units excluded).
  [[nodiscard]] std::uint64_t working_set() const noexcept {
    return array_.data_units_per_iteration();
  }

  /// Runs the scenario: user requests served under the failure timeline,
  /// with every failure's rebuild batch ordered and paced by `scheduler`.
  [[nodiscard]] ScenarioResult run(const FaultTimeline& timeline,
                                   std::span<const Request> requests,
                                   const RebuildScheduler& scheduler) const;

 private:
  api::Array array_;
  ScenarioConfig config_;
};

}  // namespace pdl::sim
