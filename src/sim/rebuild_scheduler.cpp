#include "sim/rebuild_scheduler.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace pdl::sim {

namespace {

bool by_stripe(const api::RebuildStep& a, const api::RebuildStep& b) {
  return a.stripe < b.stripe;
}

class FifoScheduler final : public RebuildScheduler {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "fifo";
  }

  void order(const layout::Layout&, layout::DiskId,
             std::vector<api::RebuildStep>& steps) const override {
    std::stable_sort(steps.begin(), steps.end(), by_stripe);
  }
};

// Greedy anti-affinity ordering: repeatedly pick the pending job whose
// survivor disks are least loaded by the jobs already scheduled, so a
// dispatch window of consecutive jobs spreads its reads over as many
// distinct disks as the layout allows (the rebuild-side analogue of
// Condition 6's window parallelism).
class MaxParallelismScheduler final : public RebuildScheduler {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "max-parallelism";
  }

  void order(const layout::Layout& layout, layout::DiskId failed,
             std::vector<api::RebuildStep>& steps) const override {
    // Deterministic starting point regardless of how the batch was built.
    std::stable_sort(steps.begin(), steps.end(), by_stripe);

    const auto& stripes = layout.stripes();
    std::vector<std::uint32_t> load(layout.num_disks(), 0);
    for (std::size_t next = 0; next + 1 < steps.size(); ++next) {
      std::size_t best = next;
      std::uint64_t best_max = std::numeric_limits<std::uint64_t>::max();
      std::uint64_t best_sum = std::numeric_limits<std::uint64_t>::max();
      for (std::size_t j = next; j < steps.size(); ++j) {
        std::uint64_t max_load = 0, sum = 0;
        for (const layout::StripeUnit& u : stripes[steps[j].stripe].units) {
          if (u.disk == failed) continue;
          max_load = std::max<std::uint64_t>(max_load, load[u.disk]);
          sum += load[u.disk];
        }
        if (max_load < best_max || (max_load == best_max && sum < best_sum)) {
          best = j;
          best_max = max_load;
          best_sum = sum;
        }
      }
      std::swap(steps[next], steps[best]);
      for (const layout::StripeUnit& u : stripes[steps[next].stripe].units) {
        if (u.disk != failed) ++load[u.disk];
      }
    }
  }
};

class ThrottledScheduler final : public RebuildScheduler {
 public:
  explicit ThrottledScheduler(double target) : target_(target) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "throttled";
  }

  void order(const layout::Layout& layout, layout::DiskId failed,
             std::vector<api::RebuildStep>& steps) const override {
    FifoScheduler().order(layout, failed, steps);
  }

  [[nodiscard]] double pacing_delay_ms(
      double job_elapsed_ms) const noexcept override {
    // A job that ran e ms is followed by e*(1-u)/u ms of idle time, so the
    // rebuild stream occupies a u fraction of time in steady state.
    if (target_ >= 1.0) return 0.0;
    return job_elapsed_ms * (1.0 - target_) / target_;
  }

 private:
  double target_;
};

}  // namespace

std::unique_ptr<RebuildScheduler> make_fifo_scheduler() {
  return std::make_unique<FifoScheduler>();
}

std::unique_ptr<RebuildScheduler> make_max_parallelism_scheduler() {
  return std::make_unique<MaxParallelismScheduler>();
}

std::unique_ptr<RebuildScheduler> make_throttled_scheduler(
    double target_utilization) {
  if (!(target_utilization > 0.0) || target_utilization > 1.0)
    throw std::invalid_argument(
        "make_throttled_scheduler: target in (0, 1] required");
  return std::make_unique<ThrottledScheduler>(target_utilization);
}

std::unique_ptr<RebuildScheduler> make_scheduler(std::string_view name) {
  if (name == "fifo") return make_fifo_scheduler();
  if (name == "max-parallelism") return make_max_parallelism_scheduler();
  if (name == "throttled") return make_throttled_scheduler(0.5);
  throw std::invalid_argument("make_scheduler: unknown policy '" +
                              std::string(name) + "'");
}

std::vector<std::string_view> scheduler_names() {
  return {"fifo", "max-parallelism", "throttled"};
}

}  // namespace pdl::sim
