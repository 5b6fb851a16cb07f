#pragma once
// Small statistics collectors for simulation results.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

namespace pdl::sim {

/// Accumulates samples and reports mean / min / max / percentiles.
class SampleStats {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }

  [[nodiscard]] std::size_t count() const noexcept { return samples_.size(); }

  [[nodiscard]] double mean() const {
    if (samples_.empty()) return 0.0;
    double sum = 0.0;
    for (const double x : samples_) sum += x;
    return sum / static_cast<double>(samples_.size());
  }

  [[nodiscard]] double min() const {
    if (samples_.empty()) return 0.0;
    return *std::min_element(samples_.begin(), samples_.end());
  }

  [[nodiscard]] double max() const {
    if (samples_.empty()) return 0.0;
    return *std::max_element(samples_.begin(), samples_.end());
  }

  /// p in [0, 1]; nearest-rank percentile.
  [[nodiscard]] double percentile(double p) {
    if (samples_.empty()) return 0.0;
    if (!sorted_) {
      std::sort(samples_.begin(), samples_.end());
      sorted_ = true;
    }
    const auto rank = static_cast<std::size_t>(
        p * static_cast<double>(samples_.size() - 1) + 0.5);
    return samples_[std::min(rank, samples_.size() - 1)];
  }

 private:
  std::vector<double> samples_;
  bool sorted_ = false;
};

/// Latency statistics for user requests.
struct UserStats {
  SampleStats read_latency_ms;
  SampleStats write_latency_ms;
};

}  // namespace pdl::sim
