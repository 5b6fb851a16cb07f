#pragma once
// Tracing for pdl_bench.  Spans are recorded only from the benchmark's own
// files, around each call the harness makes into io::StripeStore: read,
// write, fail_disk, replace_disk and rebuild_some.  Every workload serves
// through the memory backend's zero-copy views, so the store makes no
// backend call a decorator could time; what happens below the store call
// is counted from its receipts and stats instead (see pdl_bench.cpp).
//
// Spans are kept in memory and written out as Chrome trace JSON when the
// run ends.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace pdl_bench {

/// Nanoseconds on the steady clock.
[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// A duration in nanoseconds as a 32-bit sample (saturating at ~4.3 s).
[[nodiscard]] inline std::uint32_t clamp_ns(std::uint64_t ns) noexcept {
  return ns > UINT32_MAX ? UINT32_MAX : static_cast<std::uint32_t>(ns);
}

/// One finished span.  Times are steady-clock nanoseconds.
struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t id = 0;
  std::int64_t disk = -1;  ///< -1: no disk
  std::uint64_t arg = 0;   ///< logical unit, units touched, ...
  std::uint32_t tid = 0;   ///< set by Tracer::record
};

/// Bounded span buffer.  Thread-safe.
class Tracer {
 public:
  /// Spans kept in memory; later spans are counted but dropped.
  static constexpr std::size_t kMaxSpans = 100000;

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool on() const noexcept {
    return on_.load(std::memory_order_relaxed);
  }
  void set_on(bool on) noexcept { on_.store(on, std::memory_order_relaxed); }

  [[nodiscard]] std::uint64_t next_id() noexcept {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  void record(const Span& span);

  [[nodiscard]] std::uint64_t dropped_spans() const;

  /// Writes every buffered span as Chrome trace JSON (chrome://tracing,
  /// Perfetto).  Returns false when the file cannot be written.
  [[nodiscard]] bool write_chrome_json(const std::string& path) const;

 private:
  std::atomic<bool> on_{false};
  std::atomic<std::uint64_t> next_id_{1};
  std::uint64_t epoch_ns_ = now_ns();

  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

}  // namespace pdl_bench
