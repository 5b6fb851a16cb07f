#pragma once
// Pluggable rebuild scheduling.  When a failed disk's replacement is
// attached, the scenario engine takes from api::Array::plan_rebuild one
// rebuild step per unit that failure lost and hands the batch to a
// RebuildScheduler, which decides (a) the dispatch ORDER of the steps and
// (b) an optional PACING delay between them.  Three policies ship:
//
//  * fifo             -- sweep the failed disk in stripe order (the
//                        Holland & Gibson baseline the seed hard-coded);
//  * max-parallelism  -- greedy reorder so consecutive jobs touch disjoint
//                        survivor sets, the Condition 6 idea from
//                        layout/parallelism applied to rebuild traffic:
//                        with rebuild_depth > 1, concurrent jobs then queue
//                        on different disks instead of serializing;
//  * throttled        -- FIFO order, but after each job sleeps long enough
//                        that rebuild occupies at most a target fraction of
//                        time, leaving headroom for user traffic.

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "api/array.hpp"
#include "layout/layout.hpp"

namespace pdl::sim {

/// Rebuild policy interface.  Implementations must be deterministic and
/// stateless across runs (the same inputs must yield the same order), so
/// scenario results are reproducible.
class RebuildScheduler {
 public:
  virtual ~RebuildScheduler() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Reorders the batch of steps created by the failure of `failed`.  The
  /// engine dispatches from the front, rebuild_depth steps at a time.
  virtual void order(const layout::Layout& layout, layout::DiskId failed,
                     std::vector<api::RebuildStep>& steps) const = 0;

  /// Delay inserted between a job's completion and the dispatch of its
  /// successor, given how long the job took.  Default: none (rebuild at
  /// full speed).
  [[nodiscard]] virtual double pacing_delay_ms(
      double job_elapsed_ms) const noexcept {
    (void)job_elapsed_ms;
    return 0.0;
  }
};

/// FIFO sweep in stripe order.
[[nodiscard]] std::unique_ptr<RebuildScheduler> make_fifo_scheduler();

/// Greedy survivor-disjoint ordering (see header comment).  O(n^2 k) in the
/// batch size n; intended for the scenario scales the simulator targets.
[[nodiscard]] std::unique_ptr<RebuildScheduler> make_max_parallelism_scheduler();

/// FIFO order with pacing so rebuild occupies at most `target_utilization`
/// of wall-clock time (0 < target <= 1; 1 disables pacing).
[[nodiscard]] std::unique_ptr<RebuildScheduler> make_throttled_scheduler(
    double target_utilization);

/// Scheduler by name: "fifo", "max-parallelism", or "throttled" (target
/// 0.5).  Throws std::invalid_argument for unknown names.
[[nodiscard]] std::unique_ptr<RebuildScheduler> make_scheduler(
    std::string_view name);

/// The names make_scheduler accepts, for bench/CLI enumeration.
[[nodiscard]] std::vector<std::string_view> scheduler_names();

}  // namespace pdl::sim
