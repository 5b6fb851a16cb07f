#include "trace.hpp"

#include <algorithm>
#include <cstdio>

namespace pdl_bench {

namespace {

/// Small per-thread id for the Chrome trace's tid field.
[[nodiscard]] std::uint32_t thread_tag() noexcept {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t tag =
      next.fetch_add(1, std::memory_order_relaxed);
  return tag;
}

}  // namespace

void Tracer::record(const Span& span) {
  std::lock_guard lock(mutex_);
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return;
  }
  spans_.push_back(span);
  spans_.back().tid = thread_tag();
}

std::uint64_t Tracer::dropped_spans() const {
  std::lock_guard lock(mutex_);
  return dropped_;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard lock(mutex_);
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ts_us =
        static_cast<double>(s.start_ns - std::min(s.start_ns, epoch_ns_)) / 1e3;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu",
                 i == 0 ? "" : ",\n", s.name, s.tid, ts_us,
                 static_cast<double>(s.dur_ns) / 1e3,
                 static_cast<unsigned long long>(s.id));
    if (s.disk >= 0)
      std::fprintf(f, ",\"disk\":%lld", static_cast<long long>(s.disk));
    std::fprintf(f, ",\"arg\":%llu}}", static_cast<unsigned long long>(s.arg));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace pdl_bench
