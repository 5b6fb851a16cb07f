#pragma once
/// @file
/// pdl::io::AsyncDiskBackend -- the async batched I/O engine.
///
/// A decorator that puts one submission queue in front of every disk of
/// an inner DiskBackend and drains each queue with a per-disk worker
/// thread issuing the inner backend's read/write: one op in flight per
/// disk, cross-disk parallelism from the fan-out.  Every op goes through
/// the inner backend's own read/write, so its range checks and
/// durability options apply to queued traffic as to direct calls.
///
/// On top of the queues the engine layers the two things a real array
/// wins with (ROADMAP "Async batched I/O engine"):
///
///   * **request coalescing** -- exactly-adjacent same-direction ranges
///     on one disk merge into a single substrate op (kernel-style
///     elevator batching; parity-stripe fan-ins and sequential scans
///     collapse into unit*k-sized transfers);
///   * **a pluggable per-disk IoScheduler** (io_scheduler.hpp) -- fifo,
///     deadline, or rebuild-deprioritizing dispatch over IoClass-tagged
///     requests, so rebuild traffic can be held behind foreground I/O
///     with a bounded delay.
///
/// ## API
/// The batched surface is submit() -> Submission token -> wait(); the
/// inherited synchronous read()/write() are submit-one-plus-wait, so
/// every existing DiskBackend caller works unchanged (just scheduled).
/// execute_batch() overrides the sequential default with a real batched
/// submission.
///
/// ## Contract amendments
/// Requests of outstanding batches complete concurrently and in
/// scheduler order, not submission order; the read/write thread-safety
/// contract therefore extends across a batch: no two requests of
/// outstanding batches may touch overlapping ranges with at least one
/// writing (StripeStore's shard locks provide exactly that).  Buffers
/// and the IoRequest array must stay alive until wait() returns (a
/// Submission's destructor waits, so dropping the token is safe, just
/// blocking).  sync() and discard() drain the disk's queue first, so
/// their ordering guarantees match the synchronous backend's.
/// memory_view() is empty by design: every byte must cross the queues
/// for scheduling and coalescing to apply.

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "core/status.hpp"
#include "io/disk_backend.hpp"
#include "io/io_scheduler.hpp"

namespace pdl::io {

/// Construction knobs for AsyncDiskBackend.
struct AsyncBackendOptions {
  /// Per-disk dispatch policy: "fifo", "deadline", or
  /// "rebuild-deprioritizing" (see make_io_scheduler).
  std::string scheduler = "fifo";
  /// Merge exactly-adjacent same-direction requests into one substrate
  /// op before dispatch.
  bool coalesce = true;
  /// Upper bound on one merged op (keeps staging buffers and latency
  /// outliers bounded).
  std::uint64_t max_coalesced_bytes = 1u << 20;
};

/// Monotonic counters of what the engine actually did (since open).
struct AsyncBackendStats {
  std::uint64_t submitted = 0;       ///< requests enqueued
  std::uint64_t completed = 0;       ///< requests completed
  std::uint64_t batches = 0;         ///< submit() calls
  std::uint64_t substrate_ops = 0;   ///< merged ops issued to the substrate
  std::uint64_t coalesced = 0;       ///< requests absorbed into a neighbour's op
  std::uint64_t max_disk_queue = 0;  ///< high-water pending count on one disk
  std::array<std::uint64_t, 4> by_class{};  ///< submitted, indexed by IoClass
};

/// The async batched I/O engine.  See the file comment for the model
/// and contract; construction is cheap, workers start at open().
class AsyncDiskBackend final : public DiskBackend {
 public:
  /// Wait token for one submit() call.  Movable, not copyable; the
  /// destructor waits for completion (buffers are only free after).
  class Submission {
   public:
    Submission() = default;
    Submission(Submission&&) noexcept = default;
    Submission& operator=(Submission&&) noexcept = default;
    Submission(const Submission&) = delete;
    Submission& operator=(const Submission&) = delete;
    ~Submission();

    /// Shared completion state (defined in async_backend.cpp; public so
    /// the engine internals can hold it, opaque to callers).
    struct State;

   private:
    friend class AsyncDiskBackend;
    std::shared_ptr<State> state_;
  };

  explicit AsyncDiskBackend(std::unique_ptr<DiskBackend> inner,
                            AsyncBackendOptions options = {});
  /// Drains every queue and joins the workers.
  ~AsyncDiskBackend() override;

  AsyncDiskBackend(const AsyncDiskBackend&) = delete;
  AsyncDiskBackend& operator=(const AsyncDiskBackend&) = delete;

  // ------------------------------------------------ DiskBackend surface

  [[nodiscard]] Status open(const BackendGeometry& geometry) override;
  /// Synchronous read = submit one kForegroundRead + wait.
  [[nodiscard]] Status read(DiskId disk, std::uint64_t offset,
                            std::span<std::uint8_t> out) override;
  /// Synchronous write = submit one kForegroundWrite + wait.
  [[nodiscard]] Status write(DiskId disk, std::uint64_t offset,
                             std::span<const std::uint8_t> data) override;
  /// Drains the disk's queue, then syncs the inner backend.
  [[nodiscard]] Status sync(DiskId disk) override;
  /// Drains the disk's queue, then discards on the inner backend.
  [[nodiscard]] Status discard(DiskId disk, std::uint8_t fill) override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "async";
  }
  /// One real batched submission (submit + wait); returns the first
  /// non-OK request status, with per-request statuses in the batch.
  [[nodiscard]] Status execute_batch(std::span<IoRequest> batch) override;
  [[nodiscard]] bool async() const noexcept override { return true; }
  // Journal calls pass straight through to the substrate.  Safe with the
  // queues: the store calls journal_begin BEFORE submitting a batch's
  // writes and journal_commit after wait(), so the record always covers
  // writes that have not yet been (fully) issued.
  [[nodiscard]] bool journaled() const noexcept override {
    return inner_->journaled();
  }
  [[nodiscard]] Result<std::uint64_t> journal_begin(
      std::span<const IoRequest> batch) override {
    return inner_->journal_begin(batch);
  }
  [[nodiscard]] Status journal_commit(std::uint64_t token) override {
    return inner_->journal_commit(token);
  }

  // ------------------------------------------------- batched submission

  /// Enqueues every request onto its disk's queue and returns a wait
  /// token.  Requests complete concurrently, in scheduler order; see
  /// the contract amendments in the file comment for buffer lifetime
  /// and overlap rules.  Requests naming an out-of-range disk complete
  /// immediately with kInvalidArgument (they never reach a queue).
  [[nodiscard]] Submission submit(std::span<IoRequest> batch);

  /// Blocks until every request of `submission` has completed and
  /// returns the first non-OK request status (OkStatus when all
  /// succeeded).  Idempotent; a default-constructed token is OK.
  [[nodiscard]] Status wait(Submission& submission);

  // ------------------------------------------------------ introspection

  /// The decorated substrate.  Read-only surfaces are fair game;
  /// writing through it bypasses the queues.
  [[nodiscard]] DiskBackend& inner() noexcept { return *inner_; }
  /// The per-disk scheduling policy's name.
  [[nodiscard]] std::string_view scheduler() const noexcept {
    return options_.scheduler;
  }
  /// Snapshot of the engine counters.
  [[nodiscard]] AsyncBackendStats stats() const;

 private:
  struct Impl;  ///< queues, workers, clock, stats

  /// One disk's drain loop (scheduler pick, coalescing, inner read/write).
  void worker_loop(DiskId disk);
  /// Blocks until the disk's queue is empty and nothing is in flight.
  [[nodiscard]] Status drain(DiskId disk);

  std::unique_ptr<DiskBackend> inner_;
  AsyncBackendOptions options_;
  std::unique_ptr<Impl> impl_;
};

/// Convenience factory (the common construction spelling).
[[nodiscard]] std::unique_ptr<AsyncDiskBackend> make_async_backend(
    std::unique_ptr<DiskBackend> inner, AsyncBackendOptions options = {});

}  // namespace pdl::io
