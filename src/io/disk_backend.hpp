#pragma once
/// @file
/// pdl::io::DiskBackend -- the storage-substrate seam under StripeStore.
///
/// The layout mathematics (algebra -> design -> layout -> engine -> api)
/// is deliberately independent of where bytes physically live.  A
/// DiskBackend is the one interface that binds the byte-moving data path
/// to a substrate: the store addresses it purely in (disk, byte-offset)
/// coordinates and never sees vectors, file descriptors, or sockets.
/// Three implementations ship in-tree:
///
///   * MemoryBackend         -- one anonymous mapping holding every
///                              disk, pre-faulted at open (on huge
///                              pages where the kernel gives them);
///                              exposes zero-copy views, so the store's
///                              gathers (reads, degraded decodes,
///                              small-write pre-images, rebuild
///                              survivors) copy nothing;
///   * FileBackend           -- one file per disk driven with
///                              pread/pwrite, surviving close + reopen
///                              (contents persist, parity-consistent);
///   * FaultInjectionBackend -- a decorator adding seeded bit-rot,
///                              transient I/O errors, and per-op latency
///                              to any inner backend.
///
/// Future substrates (file-backed mappings, sharded-over-sockets, object
/// stores) plug in here without touching the layout or parity layers.
///
/// ## Contract
///
/// **Lifecycle.**  A backend is constructed cold, then `open()`ed exactly
/// once with the array geometry before any I/O; `open()` either adopts an
/// existing image (file reopen) or presents `num_disks` zero-filled disks
/// of `disk_bytes` each.  Destruction releases all resources; call
/// `sync()` first if durability of the final state matters.
///
/// **Thread safety.**  After `open()`, `read`/`write`/`sync` may be
/// called from any number of threads concurrently, PROVIDED writes to
/// overlapping byte ranges are externally serialized (StripeStore's
/// per-stripe-instance shard locks provide exactly that).  `discard` is
/// only called under the store's exclusive lock, so it may assume no
/// concurrent I/O to its disk.
///
/// **Failure semantics.**  Every operation returns a typed pdl::Status:
/// kInvalidArgument for out-of-range disks or ranges (caller bugs),
/// kIoError for substrate failures (which may be transient -- callers
/// may retry; StripeStore propagates them to its caller untouched).  A
/// failed write leaves the addressed range in an unspecified state but
/// must not corrupt other ranges.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.hpp"
#include "layout/mapping.hpp"

/// @namespace pdl::io
/// @brief The byte-moving data path: DiskBackend substrates, the
/// StripeStore serving/rebuild engine, and the concurrent WorkloadDriver.
namespace pdl::io {

using layout::DiskId;

/// Fixed array geometry a backend is opened with: everything a substrate
/// needs to size itself.
struct BackendGeometry {
  std::uint32_t num_disks = 0;   ///< physical disks in the array
  std::uint64_t disk_bytes = 0;  ///< bytes per disk (units * unit_bytes)
};

// ------------------------------------------------------- batched requests

/// Traffic class of one I/O request.  Schedulers (io_scheduler.hpp) use
/// the class to order per-disk queues -- e.g. the rebuild-deprioritizing
/// policy serves foreground traffic first and holds rebuild/scrub I/O
/// back up to a bounded delay.
enum class IoClass : std::uint8_t {
  kForegroundRead = 0,   ///< latency-sensitive user read
  kForegroundWrite = 1,  ///< user write (incl. its parity maintenance I/O)
  kRebuild = 2,          ///< reconstruction traffic (survivor reads, slot writes)
  kScrub = 3,            ///< background verification sweeps
};

/// One element of a batched submission: a read into `read_buf` or a
/// write of `write_buf` at (disk, offset), tagged with a traffic class.
/// `status` is written on completion.  The request -- and both buffers --
/// must stay alive and untouched until the batch completes (execute_batch
/// returns, or AsyncDiskBackend::wait on the submission's token).
struct IoRequest {
  /// Direction of the transfer.
  enum class Op : std::uint8_t { kRead = 0, kWrite = 1 };

  Op op = Op::kRead;
  IoClass io_class = IoClass::kForegroundRead;
  DiskId disk = 0;
  std::uint64_t offset = 0;
  std::span<std::uint8_t> read_buf{};         ///< kRead: destination
  std::span<const std::uint8_t> write_buf{};  ///< kWrite: source
  Status status{};  ///< per-request completion status (OK by default)

  /// Transfer size in bytes.
  [[nodiscard]] std::uint64_t size() const noexcept {
    return op == Op::kRead ? read_buf.size() : write_buf.size();
  }

  /// A read request (convenience spelling).
  [[nodiscard]] static IoRequest read_of(IoClass io_class, DiskId disk,
                                         std::uint64_t offset,
                                         std::span<std::uint8_t> buf) noexcept {
    IoRequest r;
    r.op = Op::kRead;
    r.io_class = io_class;
    r.disk = disk;
    r.offset = offset;
    r.read_buf = buf;
    return r;
  }
  /// A write request (convenience spelling).
  [[nodiscard]] static IoRequest write_of(
      IoClass io_class, DiskId disk, std::uint64_t offset,
      std::span<const std::uint8_t> buf) noexcept {
    IoRequest r;
    r.op = Op::kWrite;
    r.io_class = io_class;
    r.disk = disk;
    r.offset = offset;
    r.write_buf = buf;
    return r;
  }
};

/// Abstract storage substrate addressed in (disk, byte-offset)
/// coordinates.  See the file comment for the full lifecycle /
/// thread-safety / failure contract.
class DiskBackend {
 public:
  virtual ~DiskBackend() = default;

  /// Binds the backend to the array geometry.  Called exactly once,
  /// before any other operation.  After it returns OK every disk
  /// presents either zeros (fresh substrate) or its persisted bytes
  /// (reopened substrate).  kFailedPrecondition when an existing image
  /// does not match `geometry`; kIoError on substrate failure.
  [[nodiscard]] virtual Status open(const BackendGeometry& geometry) = 0;

  /// Reads `out.size()` bytes at `offset` of `disk` into `out`.
  /// kInvalidArgument for an out-of-range disk or byte range; kIoError
  /// (possibly transient) on substrate failure.
  [[nodiscard]] virtual Status read(DiskId disk, std::uint64_t offset,
                                    std::span<std::uint8_t> out) = 0;

  /// Writes `data` at `offset` of `disk`.  Durability is deferred until
  /// sync() unless the implementation documents otherwise.  Error
  /// contract mirrors read(); a failed write leaves the addressed range
  /// unspecified but no other range touched.
  [[nodiscard]] virtual Status write(DiskId disk, std::uint64_t offset,
                                     std::span<const std::uint8_t> data) = 0;

  /// Flushes all completed writes to `disk` down to the substrate's
  /// durability point (fdatasync for files; a no-op for memory).
  [[nodiscard]] virtual Status sync(DiskId disk) = 0;

  /// Drops the disk's current contents and presents `fill` bytes
  /// instead -- the store's physical model of a platter swap (poison
  /// fill on fail_disk, zero fill on replace_disk).  Called only under
  /// the store's exclusive lock.
  [[nodiscard]] virtual Status discard(DiskId disk, std::uint8_t fill) = 0;

  /// Human-readable substrate name ("memory", "file", ...), stable for
  /// logs and bench JSON.
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Optional zero-copy window: a non-empty span is the disk's complete
  /// byte image, resident and addressable for the backend's lifetime
  /// (memory and future mmap backends).  Empty means "use read/write".
  /// A backend must answer uniformly -- all disks or none -- and a
  /// decorator that intercepts I/O must return empty.  A backend that
  /// exposes views must never fail an in-range write: StripeStore reads
  /// a transaction's old bytes straight from the view and commits over
  /// them, so it could not roll a partly failed batch back from those
  /// bytes.
  [[nodiscard]] virtual std::span<std::uint8_t> memory_view(
      DiskId disk) noexcept {
    (void)disk;
    return {};
  }

  /// Executes a batch of independent requests, writing each request's
  /// completion into its `status` field, and returns the first non-OK
  /// status encountered (OkStatus when every request succeeded).  The
  /// base implementation simply loops read()/write() sequentially --
  /// every backend is batched-capable by default -- and KEEPS GOING
  /// after a failed request, so one bad unit cannot veto its batchmates
  /// (callers needing all-or-nothing check the return value).
  ///
  /// AsyncDiskBackend (async_backend.hpp) overrides this with per-disk
  /// submission queues, request coalescing, and scheduled dispatch; the
  /// requests of one batch may then complete in any order and
  /// concurrently, so the read/write thread-safety contract applies
  /// within a batch too: no two requests of outstanding batches may
  /// write overlapping ranges (StripeStore's shard locks provide this).
  [[nodiscard]] virtual Status execute_batch(std::span<IoRequest> batch);

  /// True when submissions are actually asynchronous (per-disk queues
  /// drained by an engine) rather than executed inline by the caller.
  /// Drivers use this to decide whether issuing deeper batches can buy
  /// real in-flight parallelism.
  [[nodiscard]] virtual bool async() const noexcept { return false; }

  // ------------------------------------------- write-ahead journal seam
  //
  // A crash between the writes of one parity-maintenance batch (data
  // landed, parity did not) leaves the substrate torn in a way no
  // in-process protocol can repair.  A journaled backend closes the hole:
  // the caller records the batch's full write payloads FIRST
  // (journal_begin), performs the in-place writes, then retires the
  // record (journal_commit).  open() on a substrate with un-retired
  // records re-applies them -- replaying a complete record is idempotent
  // and lands the substrate in the batch's post-image -- or discards
  // records whose self-checksum shows the journal append itself tore.

  /// True when this backend persists journal records across open()
  /// (FileBackend).  The default is an unjournaled substrate; callers
  /// fall back to in-process torn-write protocols.
  [[nodiscard]] virtual bool journaled() const noexcept { return false; }

  /// Durably records the write requests of one atomic batch (reads in
  /// `batch` are ignored) and returns an opaque token for
  /// journal_commit.  kUnsupported on unjournaled backends or when the
  /// batch exceeds the journal's record capacity -- the caller proceeds
  /// unjournaled.  Thread-safe.
  [[nodiscard]] virtual Result<std::uint64_t> journal_begin(
      std::span<const IoRequest> batch) {
    (void)batch;
    return Status::unsupported("backend has no write-ahead journal");
  }

  /// Retires a journal_begin record once its in-place writes have been
  /// issued (they need not be durable: replaying the record reproduces
  /// them).  Every token must be committed exactly once.
  [[nodiscard]] virtual Status journal_commit(std::uint64_t token) {
    (void)token;
    return Status::unsupported("backend has no write-ahead journal");
  }
};

// ---------------------------------------------------------------- memory

/// RAM-resident substrate: one anonymous mmap holds every disk, and a
/// disk of at least kHugePageBytes starts on a kHugePageBytes boundary
/// (smaller disks on a page boundary).  open() leaves every disk
/// resident and zero: on Linux it advises each disk that can hold a
/// huge page MADV_HUGEPAGE and pre-faults each disk's bytes in the
/// kernel with MADV_POPULATE_WRITE; where that call fails (Linux before
/// 5.14, other systems) it writes one byte of each page itself.  So no
/// user-space pass zero-fills the array, and traffic never takes a
/// first-touch fault.  Each disk is followed by at least one page that
/// holds no disk bytes and is never advised or faulted; ASan builds
/// poison it, so an access just past a disk's view is reported.
///
/// Exposes memory_view, so StripeStore's gathers read straight out of
/// the disks with no copy; its commits arrive as write() calls, which
/// cannot fail in range (the memory_view contract).  Not persistent,
/// and not copyable: the destructor (or a second open()) releases the
/// whole mapping with one munmap.
class MemoryBackend final : public DiskBackend {
 public:
  /// Alignment of a disk that can hold a transparent huge page.
  static constexpr std::uint64_t kHugePageBytes = std::uint64_t{2} << 20;

  MemoryBackend() = default;
  ~MemoryBackend() override;

  MemoryBackend(const MemoryBackend&) = delete;
  MemoryBackend& operator=(const MemoryBackend&) = delete;

  [[nodiscard]] Status open(const BackendGeometry& geometry) override;
  [[nodiscard]] Status read(DiskId disk, std::uint64_t offset,
                            std::span<std::uint8_t> out) override;
  [[nodiscard]] Status write(DiskId disk, std::uint64_t offset,
                             std::span<const std::uint8_t> data) override;
  [[nodiscard]] Status sync(DiskId disk) override;
  [[nodiscard]] Status discard(DiskId disk, std::uint8_t fill) override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "memory";
  }
  [[nodiscard]] std::span<std::uint8_t> memory_view(
      DiskId disk) noexcept override;

 private:
  /// Range-checks one access; kInvalidArgument with context on failure.
  [[nodiscard]] Status check(DiskId disk, std::uint64_t offset,
                             std::uint64_t size) const;
  /// First byte of `disk` (unchecked).
  [[nodiscard]] std::uint8_t* bytes(DiskId disk) const noexcept {
    return disks_ + disk * stride_;
  }
  /// Releases the mapping (no-op before open()).
  void unmap() noexcept;

  BackendGeometry geometry_;
  void* mapping_ = nullptr;        ///< the one mmap, alignment slack included
  std::size_t mapping_bytes_ = 0;
  std::uint8_t* disks_ = nullptr;  ///< disk 0's first byte
  std::size_t stride_ = 0;         ///< disk d starts at disks_ + d * stride_
};

// ------------------------------------------------------------------ file

/// Construction options for FileBackend.
struct FileBackendOptions {
  /// Directory holding one image file per disk (`disk-NNNN.img`).
  /// Created (recursively) when missing.
  std::string directory;
  /// fdatasync every write before returning (slow; sync() batching is
  /// the intended discipline).
  bool sync_on_write = false;
};

/// Journal activity counters (monotonic since open()).
struct FileJournalStats {
  std::uint64_t records = 0;    ///< journal_begin records written
  std::uint64_t commits = 0;    ///< records retired by journal_commit
  std::uint64_t replayed = 0;   ///< valid records re-applied at open()
  std::uint64_t discarded = 0;  ///< torn records dropped at open()
};

/// File-per-disk substrate driven with buffered pread/pwrite at caller
/// offsets (thread-safe per POSIX, no shared file cursor).  open() adopts
/// existing image files byte-for-byte when their size matches the
/// geometry -- the crash-safe reopen path: a store re-created over the
/// same directory serves the bytes a previous process wrote, and parity
/// held by the previous store's write discipline still holds, so
/// degraded reads and rebuilds work across process restarts.  A
/// `backend.meta` manifest pins the directory's (num_disks, disk_bytes)
/// geometry, so a reopen under a different array shape -- and any
/// size-mismatched image -- is refused with kFailedPrecondition rather
/// than silently adopted.  Layout identity beyond the geometry
/// (construction, sparing mode) is the caller's to persist, e.g. via
/// api::Array::save/load beside the images.
///
/// Always journaled: a write-ahead journal (`journal.bin` beside the
/// images) backs journal_begin/journal_commit for atomic write batches,
/// and open() replays or discards un-retired records left by a crash
/// (see DiskBackend's journal seam).  The cost is one extra sequential
/// pwrite per journaled batch.
class FileBackend final : public DiskBackend {
 public:
  explicit FileBackend(FileBackendOptions options);
  ~FileBackend() override;

  FileBackend(const FileBackend&) = delete;
  FileBackend& operator=(const FileBackend&) = delete;

  [[nodiscard]] Status open(const BackendGeometry& geometry) override;
  [[nodiscard]] Status read(DiskId disk, std::uint64_t offset,
                            std::span<std::uint8_t> out) override;
  [[nodiscard]] Status write(DiskId disk, std::uint64_t offset,
                             std::span<const std::uint8_t> data) override;
  [[nodiscard]] Status sync(DiskId disk) override;
  [[nodiscard]] Status discard(DiskId disk, std::uint8_t fill) override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "file";
  }
  [[nodiscard]] bool journaled() const noexcept override { return true; }
  [[nodiscard]] Result<std::uint64_t> journal_begin(
      std::span<const IoRequest> batch) override;
  [[nodiscard]] Status journal_commit(std::uint64_t token) override;

  /// The image file backing `disk` (valid after open()).
  [[nodiscard]] std::string disk_path(DiskId disk) const;

  /// Journal activity since open().
  [[nodiscard]] FileJournalStats journal_stats() const;

 private:
  [[nodiscard]] Status check(DiskId disk, std::uint64_t offset,
                             std::uint64_t size) const;
  void close_all() noexcept;

  [[nodiscard]] Status open_journal();
  [[nodiscard]] Status replay_journal();

  FileBackendOptions options_;
  BackendGeometry geometry_;
  std::vector<int> fds_;  ///< one O_RDWR descriptor per disk
  struct JournalState;    ///< slot allocator + fd + stats behind a mutex
  std::unique_ptr<JournalState> journal_;
};

// ------------------------------------------------------- fault injection

/// Knobs for FaultInjectionBackend.  Probabilities are per operation in
/// [0, 1]; everything is driven by one seeded PRNG, so a fixed seed and
/// op sequence reproduce the same faults.
struct FaultInjectionOptions {
  std::uint64_t seed = 1;
  double read_error_probability = 0;   ///< P(read returns kIoError)
  double write_error_probability = 0;  ///< P(write returns kIoError)
  /// P(a successful read's payload gets one random bit flipped) --
  /// models silent media bit-rot *after* the inner backend read; the
  /// substrate image itself is never corrupted.
  double bit_rot_probability = 0;
  std::uint32_t read_latency_us = 0;   ///< sleep before each read
  std::uint32_t write_latency_us = 0;  ///< sleep before each write
  /// Scripted faults: 1-based ordinals into the decorator's lifetime
  /// WRITE counter; the Nth write() fails with kIoError before touching
  /// the inner backend.  Exact -- independent of the seed and of every
  /// probability above -- which is what lets a test force a precise
  /// partial-stripe-write interleaving (e.g. "data landed, parity
  /// failed, and the rollback rewrite failed too"): the base
  /// execute_batch executes its requests strictly in order, so in-batch
  /// write ordinals are deterministic.
  std::vector<std::uint64_t> fail_write_ops = {};
  /// Scripted bit-rot: 1-based ordinals into the decorator's lifetime
  /// READ counter; the Nth read() succeeds but flips one seeded bit of
  /// the returned payload.  Exact like fail_write_ops -- the integrity
  /// tests use it to corrupt precisely the next unit a healthy read will
  /// fetch.  arm_rot_on_reads() appends ordinals at runtime.
  std::vector<std::uint64_t> rot_read_ops = {};
};

/// Counters of what the decorator actually did (monotonic since open).
struct FaultInjectionStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t injected_read_errors = 0;
  std::uint64_t injected_write_errors = 0;
  std::uint64_t injected_bit_flips = 0;
};

/// Decorator that wraps any DiskBackend and injects configurable faults:
/// transient kIoError on read/write, single-bit rot in read payloads,
/// and fixed per-op latency.  Deterministic under a fixed seed and op
/// sequence (a mutex serializes the PRNG, so multi-threaded runs are
/// deterministic only in aggregate).  memory_view is always empty --
/// the store must route every byte through read/write for faults to
/// apply.  Injected errors are indistinguishable from real substrate
/// errors by design: they carry the same kIoError code.
class FaultInjectionBackend final : public DiskBackend {
 public:
  FaultInjectionBackend(std::unique_ptr<DiskBackend> inner,
                        const FaultInjectionOptions& options);
  ~FaultInjectionBackend() override;

  [[nodiscard]] Status open(const BackendGeometry& geometry) override;
  [[nodiscard]] Status read(DiskId disk, std::uint64_t offset,
                            std::span<std::uint8_t> out) override;
  [[nodiscard]] Status write(DiskId disk, std::uint64_t offset,
                             std::span<const std::uint8_t> data) override;
  [[nodiscard]] Status sync(DiskId disk) override;
  [[nodiscard]] Status discard(DiskId disk, std::uint8_t fill) override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "fault-injection";
  }
  // Journal calls pass through untouched: the decorator injects faults
  // into the data path only, never into crash-consistency bookkeeping.
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

  /// Snapshot of the injection counters.
  [[nodiscard]] FaultInjectionStats stats() const;

  /// Appends scripted rot ordinals (1-based lifetime read ordinals, like
  /// FaultInjectionOptions::rot_read_ops) at runtime: a test reads
  /// stats().reads and arms exactly the next read it knows the store
  /// will issue.  Thread-safe.
  void arm_rot_on_reads(std::span<const std::uint64_t> ordinals);

 private:
  struct Impl;  ///< PRNG + counters behind a mutex
  std::unique_ptr<DiskBackend> inner_;
  FaultInjectionOptions options_;
  std::unique_ptr<Impl> impl_;
};

/// @namespace pdl::io::detail
/// @brief Shared internals of the in-tree backends.  Not API.
namespace detail {

/// OkStatus when [offset, offset+size) of `disk` lies inside the
/// geometry; otherwise kInvalidArgument naming `backend` and the
/// violated bound.  Shared by every in-tree backend so the range
/// semantics (and error wording) cannot drift apart.
[[nodiscard]] Status check_range(std::string_view backend, DiskId disk,
                                 std::uint64_t offset, std::uint64_t size,
                                 const BackendGeometry& geometry);

}  // namespace detail

/// Convenience factories (the common construction spellings).
[[nodiscard]] std::unique_ptr<DiskBackend> make_memory_backend();
[[nodiscard]] std::unique_ptr<DiskBackend> make_file_backend(
    FileBackendOptions options);
[[nodiscard]] std::unique_ptr<DiskBackend> make_fault_injection_backend(
    std::unique_ptr<DiskBackend> inner, const FaultInjectionOptions& options);

}  // namespace pdl::io
