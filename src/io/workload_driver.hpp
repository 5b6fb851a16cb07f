#pragma once
// Concurrent workload driver for the byte-level data path: a fixed pool
// of threads hammers a BlockTarget -- one StripeStore, or a sharded
// fleet of them -- with a configurable read/write mix over uniform,
// sequential, or zipfian address distributions, so one process can push
// millions of block accesses through the data path and measure healthy
// vs degraded vs rebuilding throughput.
//
// Content discipline: every write stores the canonical pattern for its
// logical address (a seeded splitmix64 stream), so concurrent writers
// racing on the same address still leave canonical bytes behind and
// reads can verify content integrity at any moment (verify_reads) --
// including degraded reads reconstructed from survivors mid-rebuild.
// A verification mismatch is counted, never asserted, so the driver is
// usable both as a benchmark loop and as a stress-test oracle.
//
// The driver is storage-substrate-agnostic: it hammers whatever
// DiskBackend the store was constructed over (zero-copy memory, file
// images, a fault-injecting decorator), and backend kIoError statuses
// are tallied under `errors` rather than aborting the run.

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "io/stripe_store.hpp"

namespace pdl::io {

enum class AccessPattern : std::uint8_t {
  kUniform = 0,     ///< independent uniform addresses
  kSequential = 1,  ///< per-thread contiguous scan, wrapping
  kZipfian = 2,     ///< YCSB-style zipfian (hot-spot) addresses
};

[[nodiscard]] const char* access_pattern_name(AccessPattern pattern) noexcept;

struct WorkloadOptions {
  std::uint32_t num_threads = 4;
  std::uint64_t ops_per_thread = 10000;
  double read_fraction = 0.7;        ///< probability an op is a read
  AccessPattern pattern = AccessPattern::kUniform;
  /// Addresses drawn per batch.  Against a synchronous target the
  /// batch is issued back-to-back (queue depth is a modelling fiction);
  /// against an async one (BlockTarget::async()) each thread's reads go
  /// out as ONE BlockTarget::read_batch submission, so up to
  /// queue_depth ops are genuinely in flight per thread and the stats
  /// report the depth actually achieved.
  std::uint32_t queue_depth = 8;
  std::uint64_t seed = 1;
  /// Check every successful read against the canonical pattern.  Only
  /// meaningful once the addressed range holds canonical content (see
  /// fill_canonical / the write-side discipline).
  bool verify_reads = false;
};

struct WorkloadStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t direct_reads = 0;
  std::uint64_t degraded_reads = 0;
  std::uint64_t rmw_writes = 0;
  std::uint64_t reconstruct_writes = 0;
  std::uint64_t unprotected_writes = 0;
  std::uint64_t data_loss_ops = 0;   ///< ops refused with kDataLoss
  std::uint64_t errors = 0;          ///< any other non-OK status
  std::uint64_t verify_failures = 0; ///< reads whose bytes were wrong
  std::uint64_t bytes_moved = 0;     ///< user payload (reads + writes)
  std::uint64_t read_batches = 0;    ///< batched read submissions issued
  std::uint64_t batched_reads = 0;   ///< reads carried by those submissions
  /// Caller-visible completion latency of every successful read, in
  /// nanoseconds (batched reads share their submission's wall time --
  /// that IS what the caller waited), as latency_sample_ns records it.
  /// merge() concatenates.
  std::vector<std::uint32_t> read_latency_ns;
  /// Caller-visible completion latency of every successful write, in
  /// nanoseconds (the full parity transaction -- RMW fan-in included --
  /// is what the caller waited), as latency_sample_ns records it.
  /// merge() concatenates.
  std::vector<std::uint32_t> write_latency_ns;
  double elapsed_seconds = 0;

  [[nodiscard]] double mb_per_second() const noexcept {
    return elapsed_seconds > 0
               ? static_cast<double>(bytes_moved) / 1e6 / elapsed_seconds
               : 0.0;
  }
  /// Mean ops actually in flight per batched submission -- the ACHIEVED
  /// queue depth, as opposed to WorkloadOptions::queue_depth, which is
  /// merely configured.  1.0 for a synchronous run (no batching).
  [[nodiscard]] double achieved_depth() const noexcept {
    return read_batches > 0 ? static_cast<double>(batched_reads) /
                                  static_cast<double>(read_batches)
                            : 1.0;
  }
  /// The p-quantile (0 <= p <= 1) of read_latency_ns, or 0 with no
  /// samples.  p = 0.99 is the foreground-p99 the benches report.
  [[nodiscard]] std::uint32_t read_latency_quantile_ns(double p) const;
  /// The p-quantile (0 <= p <= 1) of write_latency_ns, or 0 with no
  /// samples.
  [[nodiscard]] std::uint32_t write_latency_quantile_ns(double p) const;
  void merge(const WorkloadStats& other);
};

/// One latency sample: `elapsed` in whole nanoseconds, clamped into the
/// sample type, so an op slower than about 4.29 s reads as the type's
/// maximum instead of wrapping to a small value.
[[nodiscard]] std::uint32_t latency_sample_ns(
    std::chrono::nanoseconds elapsed) noexcept;

/// The storage a WorkloadDriver reads and writes: a flat space of
/// num_blocks() blocks, each block_bytes() wide, with StripeStore's
/// read / read_batch / write contracts.  fleet::Fleet is one; a
/// StripeStore is adapted privately, its logical units serving as the
/// blocks.
class BlockTarget {
 public:
  virtual ~BlockTarget() = default;

  [[nodiscard]] virtual std::uint64_t num_blocks() const noexcept = 0;
  [[nodiscard]] virtual std::uint32_t block_bytes() const noexcept = 0;
  /// True when read_batch keeps its reads in flight together, so the
  /// WorkloadDriver batches; false means it reads one block at a time.
  [[nodiscard]] virtual bool async() const = 0;
  [[nodiscard]] virtual Status read(std::uint64_t block,
                                    std::span<std::uint8_t> out,
                                    ReadReceipt* receipt) = 0;
  [[nodiscard]] virtual Status read_batch(
      std::span<const std::uint64_t> blocks, std::span<std::uint8_t> out,
      std::span<Status> statuses, std::span<ReadReceipt> receipts) = 0;
  [[nodiscard]] virtual Status write(std::uint64_t block,
                                     std::span<const std::uint8_t> data,
                                     WriteReceipt* receipt) = 0;

 protected:
  BlockTarget() = default;
  BlockTarget(const BlockTarget&) = default;
  BlockTarget(BlockTarget&&) = default;
  BlockTarget& operator=(const BlockTarget&) = default;
  BlockTarget& operator=(BlockTarget&&) = default;
};

/// The canonical content of a block under `seed`: what every
/// WorkloadDriver write stores and what verify_reads checks against.
void canonical_fill(std::uint64_t logical, std::uint64_t seed,
                    std::span<std::uint8_t> out) noexcept;

/// Writes canonical content to every block in [first, last).  Handy to
/// seed the target before a read-mostly or verifying run.
[[nodiscard]] Status fill_canonical(BlockTarget& target, std::uint64_t first,
                                    std::uint64_t last, std::uint64_t seed);
/// fill_canonical over the store's logical units.
[[nodiscard]] Status fill_canonical(StripeStore& store, std::uint64_t first,
                                    std::uint64_t last, std::uint64_t seed);

/// The zipfian harmonic normalizer zeta(n, theta) = sum_{i=1..n}
/// i^-theta, cached process-wide per (n, theta): the sum is an O(n)
/// pass, noticeable on multi-million-unit spaces, and every driver over
/// the same geometry (multi-phase harnesses, fleet shards) would
/// otherwise pay it per construction.  Pure in its arguments, so the
/// cache also pins determinism: every caller sees the identical value.
[[nodiscard]] double zipf_zetan(std::uint64_t n, double theta);

class WorkloadDriver {
 public:
  /// The target must outlive the WorkloadDriver; run() may be called
  /// repeatedly (e.g. once per phase of a failure scenario).
  WorkloadDriver(BlockTarget& target, WorkloadOptions options);
  /// Drives the store's logical units; the store must outlive the
  /// WorkloadDriver.
  WorkloadDriver(StripeStore& store, WorkloadOptions options);

  /// Spawns num_threads workers, runs ops_per_thread ops on each, joins,
  /// and returns the merged stats (elapsed_seconds is wall time of the
  /// whole run, counted once).
  [[nodiscard]] WorkloadStats run();

 private:
  WorkloadDriver(std::unique_ptr<BlockTarget> store_target,
                 WorkloadOptions options);

  std::unique_ptr<BlockTarget> store_target_;  ///< owned StripeStore adapter
  BlockTarget& target_;
  WorkloadOptions options_;
  // Precomputed zipfian parameters (YCSB ZipfianGenerator shape).
  double zipf_zetan_ = 0;
  double zipf_alpha_ = 0;
  double zipf_eta_ = 0;

  void worker(std::uint32_t thread_index, WorkloadStats& stats) const;
  [[nodiscard]] std::uint64_t zipf_sample(double u) const noexcept;
};

}  // namespace pdl::io
