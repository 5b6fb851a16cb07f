#include "io/workload_driver.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <mutex>
#include <random>
#include <thread>

namespace pdl::io {

namespace {

[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

double zipf_zetan(std::uint64_t n, double theta) {
  static std::mutex mutex;
  static std::vector<std::pair<std::pair<std::uint64_t, double>, double>>
      cache;
  {
    std::lock_guard lock(mutex);
    for (const auto& entry : cache)
      if (entry.first.first == n && entry.first.second == theta)
        return entry.second;
  }
  double zetan = 0;
  for (std::uint64_t i = 1; i <= n; ++i)
    zetan += 1.0 / std::pow(static_cast<double>(i), theta);
  std::lock_guard lock(mutex);
  cache.push_back({{n, theta}, zetan});
  return zetan;
}

const char* access_pattern_name(AccessPattern pattern) noexcept {
  switch (pattern) {
    case AccessPattern::kUniform: return "uniform";
    case AccessPattern::kSequential: return "sequential";
    case AccessPattern::kZipfian: return "zipfian";
  }
  return "?";
}

void WorkloadStats::merge(const WorkloadStats& other) {
  reads += other.reads;
  writes += other.writes;
  direct_reads += other.direct_reads;
  degraded_reads += other.degraded_reads;
  rmw_writes += other.rmw_writes;
  reconstruct_writes += other.reconstruct_writes;
  unprotected_writes += other.unprotected_writes;
  data_loss_ops += other.data_loss_ops;
  errors += other.errors;
  verify_failures += other.verify_failures;
  bytes_moved += other.bytes_moved;
  read_batches += other.read_batches;
  batched_reads += other.batched_reads;
  read_latency_ns.insert(read_latency_ns.end(), other.read_latency_ns.begin(),
                         other.read_latency_ns.end());
  write_latency_ns.insert(write_latency_ns.end(),
                          other.write_latency_ns.begin(),
                          other.write_latency_ns.end());
  // elapsed_seconds is wall time of the whole run; the caller sets it
  // once rather than summing per-thread times.
}

namespace {

[[nodiscard]] std::uint32_t latency_quantile(
    const std::vector<std::uint32_t>& samples, double p) {
  // Nearest-rank convention: the p-quantile of n samples is the
  // ceil(p*n)-th smallest (1-based), clamped into [1, n].  The previous
  // floor(p*(n-1)) spelling sat one rank low on small sample sets --
  // e.g. p99 of 100 samples returned the 99th value, not the 100th --
  // systematically underreporting tail latency.
  if (samples.empty()) return 0;
  std::vector<std::uint32_t> sorted(samples);
  const double clamped = std::clamp(p, 0.0, 1.0);
  const auto wanted = static_cast<std::size_t>(
      std::ceil(clamped * static_cast<double>(sorted.size())));
  const std::size_t rank = std::clamp<std::size_t>(wanted, 1, sorted.size()) - 1;
  std::nth_element(sorted.begin(),
                   sorted.begin() + static_cast<std::ptrdiff_t>(rank),
                   sorted.end());
  return sorted[rank];
}

}  // namespace

std::uint32_t WorkloadStats::read_latency_quantile_ns(double p) const {
  return latency_quantile(read_latency_ns, p);
}

std::uint32_t WorkloadStats::write_latency_quantile_ns(double p) const {
  return latency_quantile(write_latency_ns, p);
}

std::uint32_t latency_sample_ns(std::chrono::nanoseconds elapsed) noexcept {
  return static_cast<std::uint32_t>(std::clamp<std::chrono::nanoseconds::rep>(
      elapsed.count(), 0, std::numeric_limits<std::uint32_t>::max()));
}

void canonical_fill(std::uint64_t logical, std::uint64_t seed,
                    std::span<std::uint8_t> out) noexcept {
  std::uint64_t state = seed ^ (logical * 0xD1B54A32D192ED03ull);
  std::size_t i = 0;
  for (; i + 8 <= out.size(); i += 8) {
    const std::uint64_t word = splitmix64(state);
    std::memcpy(out.data() + i, &word, 8);
  }
  if (i < out.size()) {
    const std::uint64_t word = splitmix64(state);
    std::memcpy(out.data() + i, &word, out.size() - i);
  }
}

namespace {

/// YCSB's default skew; theta = 1 would be a pole of the generator.
constexpr double kZipfTheta = 0.99;

/// A StripeStore as a BlockTarget: its logical units are the blocks.
class StoreTarget final : public BlockTarget {
 public:
  explicit StoreTarget(StripeStore& store) : store_(store) {}

  std::uint64_t num_blocks() const noexcept override {
    return store_.num_logical_units();
  }
  std::uint32_t block_bytes() const noexcept override {
    return store_.unit_bytes();
  }
  bool async() const override { return store_.backend().async(); }
  Status read(std::uint64_t block, std::span<std::uint8_t> out,
              ReadReceipt* receipt) override {
    return store_.read(block, out, receipt);
  }
  Status read_batch(std::span<const std::uint64_t> blocks,
                    std::span<std::uint8_t> out, std::span<Status> statuses,
                    std::span<ReadReceipt> receipts) override {
    return store_.read_batch(blocks, out, statuses, receipts);
  }
  Status write(std::uint64_t block, std::span<const std::uint8_t> data,
               WriteReceipt* receipt) override {
    return store_.write(block, data, receipt);
  }

 private:
  StripeStore& store_;
};

}  // namespace

Status fill_canonical(BlockTarget& target, std::uint64_t first,
                      std::uint64_t last, std::uint64_t seed) {
  std::vector<std::uint8_t> block(target.block_bytes());
  for (std::uint64_t b = first; b < last; ++b) {
    canonical_fill(b, seed, block);
    if (Status written = target.write(b, block, nullptr); !written.ok())
      return written;
  }
  return OkStatus();
}

Status fill_canonical(StripeStore& store, std::uint64_t first,
                      std::uint64_t last, std::uint64_t seed) {
  StoreTarget target(store);
  return fill_canonical(target, first, last, seed);
}

WorkloadDriver::WorkloadDriver(StripeStore& store, WorkloadOptions options)
    : WorkloadDriver(std::make_unique<StoreTarget>(store), options) {}

WorkloadDriver::WorkloadDriver(std::unique_ptr<BlockTarget> store_target,
                               WorkloadOptions options)
    : WorkloadDriver(*store_target, options) {
  store_target_ = std::move(store_target);
}

WorkloadDriver::WorkloadDriver(BlockTarget& target, WorkloadOptions options)
    : target_(target), options_(options) {
  if (options_.num_threads == 0) options_.num_threads = 1;
  if (options_.queue_depth == 0) options_.queue_depth = 1;
  options_.read_fraction = std::clamp(options_.read_fraction, 0.0, 1.0);

  if (options_.pattern == AccessPattern::kZipfian) {
    // YCSB ZipfianGenerator parameters.
    const auto n = static_cast<double>(target_.num_blocks());
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, kZipfTheta);
    zipf_zetan_ = zipf_zetan(target_.num_blocks(), kZipfTheta);
    zipf_alpha_ = 1.0 / (1.0 - kZipfTheta);
    zipf_eta_ = (1.0 - std::pow(2.0 / n, 1.0 - kZipfTheta)) /
                (1.0 - zeta2 / zipf_zetan_);
  }
}

std::uint64_t WorkloadDriver::zipf_sample(double u) const noexcept {
  const std::uint64_t n = target_.num_blocks();
  const double uz = u * zipf_zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, kZipfTheta)) return 1;
  const auto rank = static_cast<std::uint64_t>(
      static_cast<double>(n) *
      std::pow(zipf_eta_ * u - zipf_eta_ + 1.0, zipf_alpha_));
  return std::min(rank, n - 1);
}

void WorkloadDriver::worker(std::uint32_t thread_index,
                            WorkloadStats& stats) const {
  const std::uint64_t n = target_.num_blocks();
  const std::uint32_t block_bytes = target_.block_bytes();
  // Against an async target the batch's reads go out as one read_batch
  // submission (queue_depth genuinely in flight); a synchronous target
  // would gain nothing, so reads are issued one by one.
  const bool batch_reads = target_.async();
  std::mt19937_64 rng(options_.seed * 0x9E3779B97F4A7C15ull + thread_index);
  std::uniform_real_distribution<double> unit_dist(0.0, 1.0);

  std::vector<std::uint8_t> buffer(block_bytes);
  std::vector<std::uint8_t> expected(block_bytes);
  std::vector<std::uint64_t> batch(options_.queue_depth);
  std::vector<bool> is_read(options_.queue_depth);
  std::vector<std::uint64_t> read_addrs(options_.queue_depth);
  std::vector<std::uint8_t> read_bytes(
      static_cast<std::size_t>(options_.queue_depth) * block_bytes);
  std::vector<Status> read_statuses(options_.queue_depth);
  std::vector<ReadReceipt> read_receipts(options_.queue_depth);
  std::uint64_t cursor = (n / options_.num_threads) * thread_index;

  using clock = std::chrono::steady_clock;
  const auto elapsed_ns = [](clock::time_point since) {
    return latency_sample_ns(clock::now() - since);
  };
  const auto tally_read = [&](std::uint64_t block, const Status& status,
                              const ReadReceipt& receipt,
                              std::span<const std::uint8_t> bytes,
                              std::uint32_t latency_ns) {
    if (status.ok()) {
      ++stats.reads;
      stats.bytes_moved += block_bytes;
      stats.read_latency_ns.push_back(latency_ns);
      if (receipt.kind == api::ReadPlan::Kind::kDegraded)
        ++stats.degraded_reads;
      else
        ++stats.direct_reads;
      if (options_.verify_reads) {
        canonical_fill(block, options_.seed, expected);
        if (!std::equal(bytes.begin(), bytes.end(), expected.begin()))
          ++stats.verify_failures;
      }
    } else if (status.code() == StatusCode::kDataLoss) {
      ++stats.data_loss_ops;
    } else {
      ++stats.errors;
    }
  };

  std::uint64_t remaining = options_.ops_per_thread;
  while (remaining > 0) {
    const std::uint64_t batch_size =
        std::min<std::uint64_t>(options_.queue_depth, remaining);
    for (std::uint64_t i = 0; i < batch_size; ++i) {
      switch (options_.pattern) {
        case AccessPattern::kUniform:
          batch[i] = rng() % n;
          break;
        case AccessPattern::kSequential:
          batch[i] = cursor;
          cursor = (cursor + 1) % n;
          break;
        case AccessPattern::kZipfian:
          batch[i] = zipf_sample(unit_dist(rng));
          break;
      }
      is_read[i] = unit_dist(rng) < options_.read_fraction;
    }

    // Writes first, one by one (each is already a batched parity
    // transaction inside a store)...
    for (std::uint64_t i = 0; i < batch_size; ++i) {
      if (is_read[i]) continue;
      const std::uint64_t block = batch[i];
      canonical_fill(block, options_.seed, buffer);
      WriteReceipt receipt;
      const auto write_started = clock::now();
      const Status status = target_.write(block, buffer, &receipt);
      if (status.ok()) {
        ++stats.writes;
        stats.bytes_moved += block_bytes;
        stats.write_latency_ns.push_back(elapsed_ns(write_started));
        switch (receipt.kind) {
          case api::WritePlan::Kind::kReadModifyWrite:
            ++stats.rmw_writes;
            break;
          case api::WritePlan::Kind::kReconstructWrite:
            ++stats.reconstruct_writes;
            break;
          case api::WritePlan::Kind::kUnprotectedWrite:
            ++stats.unprotected_writes;
            break;
          case api::WritePlan::Kind::kUnrecoverable:
            break;
        }
      } else if (status.code() == StatusCode::kDataLoss) {
        ++stats.data_loss_ops;
      } else {
        ++stats.errors;
      }
    }

    // ...then the batch's reads, as one deep submission when the
    // target is async.
    std::uint32_t num_reads = 0;
    for (std::uint64_t i = 0; i < batch_size; ++i)
      if (is_read[i]) read_addrs[num_reads++] = batch[i];
    if (batch_reads && num_reads > 0) {
      const auto started = clock::now();
      (void)target_.read_batch(
          {read_addrs.data(), num_reads},
          {read_bytes.data(),
           static_cast<std::size_t>(num_reads) * block_bytes},
          {read_statuses.data(), num_reads},
          {read_receipts.data(), num_reads});
      // Batched reads complete together: the submission's wall time is
      // each op's caller-visible latency.
      const std::uint32_t latency = elapsed_ns(started);
      ++stats.read_batches;
      stats.batched_reads += num_reads;
      for (std::uint32_t i = 0; i < num_reads; ++i)
        tally_read(read_addrs[i], read_statuses[i], read_receipts[i],
                   {read_bytes.data() + static_cast<std::size_t>(i) *
                                            block_bytes,
                    block_bytes},
                   latency);
    } else {
      for (std::uint32_t i = 0; i < num_reads; ++i) {
        ReadReceipt receipt;
        const auto started = clock::now();
        const Status status = target_.read(read_addrs[i], buffer, &receipt);
        tally_read(read_addrs[i], status, receipt, buffer,
                   elapsed_ns(started));
      }
    }
    remaining -= batch_size;
  }
}

WorkloadStats WorkloadDriver::run() {
  std::vector<WorkloadStats> per_thread(options_.num_threads);
  std::vector<std::thread> threads;
  threads.reserve(options_.num_threads);

  const auto start = std::chrono::steady_clock::now();
  for (std::uint32_t t = 0; t < options_.num_threads; ++t)
    threads.emplace_back(
        [this, t, &per_thread] { worker(t, per_thread[t]); });
  for (std::thread& thread : threads) thread.join();
  const auto end = std::chrono::steady_clock::now();

  WorkloadStats merged;
  for (const WorkloadStats& stats : per_thread) merged.merge(stats);
  merged.elapsed_seconds =
      std::chrono::duration<double>(end - start).count();
  return merged;
}

}  // namespace pdl::io
