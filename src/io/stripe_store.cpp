#include "io/stripe_store.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include "core/codec.hpp"
#include "core/crc32c.hpp"
#include "core/xor_codec.hpp"
#include "io/parallel_for.hpp"

namespace pdl::io {

namespace {

/// Poison byte for failed platters: any read that erroneously touches a
/// failed disk shows up as garbage, not as stale-but-plausible data.
constexpr std::uint8_t kPoison = 0xDD;

/// Stripe-instance lock pool size: instance i takes lock i % 64.
constexpr std::uint32_t kLockShards = 64;

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

[[nodiscard]] std::uint64_t fnv1a(std::uint64_t hash,
                                  std::span<const std::uint8_t> bytes) {
  for (const std::uint8_t b : bytes) {
    hash ^= b;
    hash *= kFnvPrime;
  }
  return hash;
}

/// The first `size` bytes of a grow-only buffer: reuse never shrinks it,
/// so only growth allocates (and zero-fills).
[[nodiscard]] std::span<std::uint8_t> grow(std::vector<std::uint8_t>& buffer,
                                           std::size_t size) {
  if (buffer.size() < size) buffer.resize(size);
  return {buffer.data(), size};
}

/// Unit `i` of a buffer of back-to-back units.
[[nodiscard]] std::span<std::uint8_t> unit_slice(std::span<std::uint8_t> buf,
                                                 std::size_t i,
                                                 std::uint32_t unit_bytes) {
  return buf.subspan(i * unit_bytes, unit_bytes);
}

/// Decodes erased_index[0]'s bytes into `out` from gathered survivor
/// bytes through the codec; other erased units are decoded internally
/// but not materialized.  For XOR parity this is exactly
/// core::xor_reconstruct_into.
void decode_unit(const core::Codec& codec, std::uint32_t num_data,
                 std::span<const std::span<const std::uint8_t>> srcs,
                 std::span<const std::uint32_t> src_index,
                 std::span<const std::uint32_t> erased_index,
                 std::span<std::uint8_t> out) {
  std::array<std::span<std::uint8_t>, api::kMaxParityUnits> outs{};
  outs[0] = out;
  codec.reconstruct(num_data, srcs, src_index, erased_index,
                    {outs.data(), erased_index.size()});
}

/// Bytes each lane of a rebuild chunk must move -- survivors read plus
/// targets written -- for the chunk's stage and commit to fan out over
/// that many lanes.  Measured on a shared 4-vCPU VM whose host lent it
/// between one and four cores' worth of time: 3.3 MB Reed-Solomon
/// chunks (204 instances of 4 KiB units, three survivors each) rebuilt
/// about twice as fast on four lanes when the cores were there and up
/// to 7% slower when they were not.  1 MiB XOR chunks (51 instances,
/// four survivors each) gained 20-34% on three lanes when the cores
/// were there but lost 3-23% on two or three when they were not, so
/// chunks that small stay on one lane.
constexpr std::uint64_t kLaneBytes = 768 * 1024;

/// How many lanes a rebuild chunk's stage and commit split its (stripe,
/// iteration) instances over: one per kLaneBytes the chunk moves
/// (parallel_for caps it at the CPUs).
[[nodiscard]] std::size_t rebuild_lanes(
    std::span<const api::RebuildStep> steps, std::uint32_t iterations,
    std::uint32_t unit_bytes) {
  std::uint64_t units = 0;
  for (const api::RebuildStep& step : steps) units += step.reads.size() + 1;
  return static_cast<std::size_t>(std::max<std::uint64_t>(
      1, units * iterations * unit_bytes / kLaneBytes));
}

/// Calls fn(step, target, first) for a rebuild chunk's (stripe,
/// iteration) instances [begin, end), in the stage's step-major order:
/// `target` is the instance's index and `first` the index of its first
/// survivor in the stage's gather.
template <class Fn>
void for_each_instance(std::span<const api::RebuildStep> steps,
                       std::uint32_t iterations, std::size_t begin,
                       std::size_t end, Fn&& fn) {
  std::size_t target = 0;
  std::size_t first = 0;
  for (const api::RebuildStep& step : steps) {
    if (target >= end) return;
    const std::size_t n = step.reads.size();
    for (std::size_t t = std::max(begin, target);
         t < std::min<std::size_t>(end, target + iterations); ++t)
      fn(step, t, first + (t - target) * n);
    target += iterations;
    first += n * iterations;
  }
}

/// Whether a rebuild step must TRUST parity bytes (it decodes at least
/// one data unit) as opposed to merely re-encoding parity from data.
[[nodiscard]] bool step_decodes_data(const api::RebuildStep& step) {
  for (std::uint32_t e = 0; e < step.num_erased; ++e)
    if (step.erased_index[e] < step.num_data) return true;
  return false;
}

}  // namespace

// ------------------------------------------------- the stripe transaction

/// One stripe transaction's working set.  The vectors live in a slot of
/// a thread-local pool that each live Txn on a thread holds exclusively:
/// transactions that nest (a write's absorb folding inline, a staged
/// rebuild healing a rotten survivor) never share a buffer, and a
/// thread's vectors only ever grow, so steady-state transactions --
/// rebuild's multi-MiB staging included -- allocate and zero-fill
/// nothing.
struct StripeStore::Txn {
  struct Buffers {
    std::vector<Physical> units;       ///< queued for, then read by, gather
    std::vector<std::uint32_t> index;  ///< codec index per unit (decoders)
    std::vector<std::span<const std::uint8_t>> bytes;  ///< per unit
    /// Per-unit gather outcome; left empty when every unit succeeded,
    /// so the happy path constructs no Status per unit.
    std::vector<Status> status;
    std::vector<IoRequest> requests;   ///< gather reads, then commit writes
    std::vector<IoRequest> undo;       ///< a failed commit's rollback
    /// Commit queue: (gathered unit, new bytes), in write order.
    std::vector<std::pair<std::uint32_t, std::span<const std::uint8_t>>>
        writes;
    std::vector<std::array<std::uint8_t, 4>> words;  ///< staged CRC words
    std::vector<std::uint32_t> crcs;  ///< gathered units' CRCs, per unit
    std::vector<std::uint8_t> staging;  ///< gathered bytes without views
    std::vector<std::uint8_t> scratch;  ///< bytes the transaction computes
  };

  explicit Txn(std::uint32_t unit_bytes)
      : unit_bytes(unit_bytes), buf(acquire()) {
    buf.units.clear();
    buf.index.clear();
    buf.writes.clear();
  }
  ~Txn() { --depth(); }
  Txn(const Txn&) = delete;
  Txn& operator=(const Txn&) = delete;

  /// Queues a unit for the next gather, with its codec index when a
  /// decode will need it.  Units keep their queue order.
  void add(Physical unit, std::uint32_t codec_index = 0) {
    buf.units.push_back(unit);
    buf.index.push_back(codec_index);
  }
  [[nodiscard]] std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(buf.units.size());
  }
  [[nodiscard]] Physical unit(std::size_t i) const { return buf.units[i]; }
  /// Unit i's gathered bytes: valid until the transaction commits (a
  /// view backend's spans then show the new bytes).
  [[nodiscard]] std::span<const std::uint8_t> bytes(std::size_t i) const {
    return buf.bytes[i];
  }
  /// Gathered bytes of units [first, first + count), for a codec call.
  [[nodiscard]] std::span<const std::span<const std::uint8_t>> bytes(
      std::size_t first, std::size_t count) const {
    return {buf.bytes.data() + first, count};
  }
  [[nodiscard]] const Status& status(std::size_t i) const {
    static const Status ok;
    return buf.status.empty() ? ok : buf.status[i];
  }
  /// Records unit i's failed outcome.
  void fail(std::size_t i, Status failure) {
    if (buf.status.empty()) buf.status.resize(size());
    buf.status[i] = std::move(failure);
  }
  /// Whether unit `p` failed verification among the first `end` units.
  [[nodiscard]] bool rotten(Physical p, std::size_t end) const {
    if (buf.status.empty()) return false;
    for (std::size_t i = 0; i < end; ++i)
      if (buf.units[i] == p &&
          buf.status[i].code() == StatusCode::kChecksumMismatch)
        return true;
    return false;
  }
  /// `count` back-to-back unit slices for computed bytes.  Repeated calls
  /// with the same count return the same bytes; a larger count may move
  /// them.
  [[nodiscard]] std::span<std::uint8_t> scratch(std::size_t count) {
    return grow(buf.scratch, count * unit_bytes);
  }
  /// Queues gathered unit i to take `bytes` at commit (which writes the
  /// queue in order).
  void write(std::uint32_t i, std::span<const std::uint8_t> bytes) {
    buf.writes.emplace_back(i, bytes);
  }
  /// Reports the transaction in a write receipt: every gathered unit as
  /// read, every committed unit as written.
  void report(WriteReceipt* receipt) const {
    if (!receipt) return;
    receipt->num_reads = size();
    std::copy(buf.units.begin(), buf.units.end(), receipt->reads.begin());
    receipt->num_writes = static_cast<std::uint32_t>(buf.writes.size());
    for (std::size_t k = 0; k < buf.writes.size(); ++k)
      receipt->writes[k] = buf.units[buf.writes[k].first];
  }

  const std::uint32_t unit_bytes;
  Buffers& buf;

 private:
  static std::size_t& depth() {
    thread_local std::size_t live = 0;
    return live;
  }
  static Buffers& acquire() {
    thread_local std::vector<std::unique_ptr<Buffers>> pool;
    std::size_t& live = depth();
    if (pool.size() == live) pool.push_back(std::make_unique<Buffers>());
    return *pool[live++];
  }
};

/// One logical unit of a read: its plan and where its units sit in the
/// read's transaction.
struct StripeStore::ReadSlot {
  api::ReadPlan plan;
  std::uint32_t first = 0;  ///< the plan's first unit in the transaction
  std::uint32_t heat = 0;   ///< hotness estimate, for fill-on-miss
  bool gathered = false;    ///< waits on the gather (no hit, no failure)
};

Status StripeStore::gather(Txn& txn, IoClass io_class, bool verify) {
  Txn::Buffers& buf = txn.buf;
  const std::size_t n = buf.units.size();
  buf.bytes.resize(n);
  buf.status.clear();
  if (!views_.empty()) {
    for (std::size_t i = 0; i < n; ++i)
      buf.bytes[i] = views_[buf.units[i].disk].subspan(
          static_cast<std::size_t>(byte_offset(buf.units[i].offset)),
          unit_bytes_);
  } else if (n > 0) {
    // ONE batched submission fans every read out to its disk (an async
    // backend serves them concurrently).
    const auto staging = grow(buf.staging, n * unit_bytes_);
    buf.requests.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const auto slice = unit_slice(staging, i, unit_bytes_);
      buf.requests.push_back(
          IoRequest::read_of(io_class, buf.units[i].disk,
                             byte_offset(buf.units[i].offset), slice));
      buf.bytes[i] = slice;
    }
    (void)backend_->execute_batch(buf.requests);
    for (std::size_t i = 0; i < n; ++i)
      if (!buf.requests[i].status.ok())
        txn.fail(i, std::move(buf.requests[i].status));
  }
  if (verify && integrity_) (void)verify_units(txn, 0, n);
  for (const Status& status : buf.status)
    if (!status.ok()) return status;
  return OkStatus();
}

Status StripeStore::verify_units(Txn& txn, std::size_t first,
                                 std::size_t count, const Txn* counted,
                                 std::span<const std::uint32_t> taken) {
  if (!integrity_) return OkStatus();
  Status mismatch;
  for (std::size_t i = first; i < first + count; ++i) {
    if (!txn.status(i).ok()) continue;  // never read
    const Physical p = txn.unit(i);
    const std::uint32_t stored = crc_[p.disk][p.offset];
    if (stored == 0) continue;  // unverified: no claim to check against
    const std::uint32_t crc =
        taken.empty() ? core::crc32c_nonzero(txn.bytes(i)) : taken[i];
    if (crc == stored) {
      sync_->crc_verified.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    // A unit gathered twice (two decodes of one instance) and a unit the
    // caller's own check already found count once.
    if (!txn.rotten(p, i) && !(counted && counted->rotten(p, counted->size())))
      sync_->crc_mismatches.fetch_add(1, std::memory_order_relaxed);
    Status failed = Status::checksum_mismatch(
        "unit (disk " + std::to_string(p.disk) + ", unit " +
        std::to_string(p.offset) + ") failed CRC32C verification");
    if (mismatch.ok()) mismatch = failed;
    txn.fail(i, std::move(failed));
  }
  return mismatch;
}

Status StripeStore::gather_healed(Txn& txn, IoClass io_class,
                                  std::uint64_t instance) {
  const Status loaded = gather(txn, io_class, /*verify=*/true);
  if (loaded.code() != StatusCode::kChecksumMismatch) return loaded;
  if (!heal_instance_locked(
           static_cast<std::uint32_t>(instance % array_.num_stripes()),
           static_cast<std::uint32_t>(instance / array_.num_stripes()),
           nullptr, &txn)
           .ok())
    return loaded;
  return gather(txn, io_class, /*verify=*/true);
}

void StripeStore::stage_crc_words(Txn& txn, IoClass io_class) {
  if (!integrity_) return;
  Txn::Buffers& buf = txn.buf;
  const std::size_t n = buf.requests.size();
  for (std::size_t k = 0; k < n; ++k) {
    const DiskId disk = buf.requests[k].disk;
    const std::uint64_t unit = buf.requests[k].offset / unit_bytes_;
    buf.requests.push_back(IoRequest::write_of(io_class, disk,
                                             crc_media_offset(unit),
                                             buf.words[k]));
  }
}

void StripeStore::record_crc_words(const Txn& txn) {
  if (!integrity_) return;
  const Txn::Buffers& buf = txn.buf;
  for (std::size_t k = 0; k < buf.words.size(); ++k) {
    std::uint32_t crc = 0;
    std::memcpy(&crc, buf.words[k].data(), 4);
    crc_[buf.requests[k].disk][buf.requests[k].offset / unit_bytes_] = crc;
  }
}

Status StripeStore::commit(Txn& txn, std::uint64_t instance,
                           IoClass io_class) {
  Txn::Buffers& buf = txn.buf;
  const std::size_t n = buf.writes.size();
  std::vector<IoRequest>& batch = buf.requests;
  batch.clear();
  for (const auto& [i, bytes] : buf.writes)
    batch.push_back(IoRequest::write_of(io_class, buf.units[i].disk,
                                        byte_offset(buf.units[i].offset),
                                        bytes));
  if (integrity_) {
    buf.words.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      const std::uint32_t crc = core::crc32c_nonzero(batch[k].write_buf);
      std::memcpy(buf.words[k].data(), &crc, 4);
    }
  }
  stage_crc_words(txn, io_class);
  const Status stored = execute_batch_journaled(batch);
  // Landed bytes invalidate concurrently staged rebuild reads; a commit
  // that then rolls back bumps too, which only costs a retry.
  sync_->write_epoch.fetch_add(1, std::memory_order_relaxed);
  if (stored.ok()) {
    record_crc_words(txn);
    return OkStatus();
  }

  // The writes are concurrent, so ANY subset may have landed.  Roll each
  // landed unit back to its gathered old bytes and each landed CRC word
  // to its cached (pre-commit) value: the stripe returns to the
  // consistent pre-commit state and a caller retry is safe.  The CRC
  // words are best-effort -- a stale media word only costs a
  // reopen-time heal.  Nothing landed needs nothing.
  std::vector<IoRequest>& undo = buf.undo;
  undo.clear();
  for (std::size_t k = 0; k < n; ++k)
    if (batch[k].status.ok())
      undo.push_back(IoRequest::write_of(io_class, batch[k].disk,
                                         batch[k].offset,
                                         buf.bytes[buf.writes[k].first]));
  const std::size_t units_undone = undo.size();
  if (integrity_)
    for (std::size_t k = 0; k < n; ++k) {
      if (!batch[n + k].status.ok()) continue;
      const Physical p = buf.units[buf.writes[k].first];
      std::memcpy(buf.words[k].data(), &crc_[p.disk][p.offset], 4);
      undo.push_back(IoRequest::write_of(io_class, p.disk,
                                         crc_media_offset(p.offset),
                                         buf.words[k]));
    }
  if (!undo.empty()) (void)backend_->execute_batch(undo);
  for (std::size_t r = 0; r < units_undone; ++r) {
    if (undo[r].status.ok()) continue;
    // The rollback ALSO failed: parity and data now disagree on disk and
    // nothing in the stripe says so.  Record the tear so parity-trusting
    // paths (degraded reads, rebuild decodes) refuse the instance until
    // a heal re-encodes it.
    mark_torn(instance);
    return Status::parity_inconsistent(
        "rollback failed after a partial stripe write (" +
        undo[r].status.message() + "); stripe instance marked parity-torn");
  }
  return stored;
}

Status StripeStore::execute_batch_journaled(std::span<IoRequest> batch) {
  if (!backend_->journaled()) return backend_->execute_batch(batch);
  auto token = backend_->journal_begin(batch);
  if (!token.ok()) {
    // kUnsupported (no writes, record too big) degrades to the plain
    // unjournaled batch; a real journal failure aborts before any
    // in-place write starts.
    if (token.status().code() == StatusCode::kUnsupported)
      return backend_->execute_batch(batch);
    return token.status();
  }
  const Status executed = backend_->execute_batch(batch);
  // Retire the record on EVERY exit: on success the writes are all
  // in place; on partial failure the commit rolls back to the
  // pre-write image -- either way the record must not replay over the
  // state this call reports.  A crash BETWEEN the in-place writes and
  // this retire replays the full record, which is exactly the
  // consistent post-image.
  (void)backend_->journal_commit(*token);
  return executed;
}

// ------------------------------------------------------------- lifecycle

StripeStore::StripeStore(api::Array array, const StripeStoreOptions& options,
                         std::unique_ptr<DiskBackend> backend)
    : array_(std::move(array)),
      unit_bytes_(options.unit_bytes),
      iterations_(options.iterations),
      backend_(std::move(backend)),
      sync_(std::make_unique<Sync>(kLockShards)) {}

Result<StripeStore> StripeStore::create(api::Array array,
                                        const StripeStoreOptions& options,
                                        std::unique_ptr<DiskBackend> backend) {
  if (options.unit_bytes == 0)
    return Status::invalid_argument("unit_bytes must be positive");
  if (options.iterations == 0)
    return Status::invalid_argument("iterations must be positive");
  if (!array.healthy())
    return Status::failed_precondition(
        "StripeStore::create needs a healthy array: the backend's disks "
        "start zero-filled (or carry a prior store's parity-consistent "
        "image), which is only consistent with no pre-existing failure "
        "state");
  if (!backend) backend = make_memory_backend();

  StripeStore store(std::move(array), options, std::move(backend));
  store.integrity_ = store.array_.integrity();
  store.crc_base_ = store.disk_bytes();
  if (options.cache.enabled)
    store.cache_ = std::make_unique<StripeCache>(
        options.cache, options.unit_bytes,
        std::uint64_t{store.array_.num_stripes()} * options.iterations);
  // Under integrity each disk's media grows by a checksum region: one
  // CRC32C word per physical unit, appended after the data region.  A
  // persistent backend's manifest pins the extended size, so reopening
  // an image with the wrong integrity setting fails the geometry check
  // instead of silently mixing formats.
  const std::uint64_t units_per_disk = store.disk_bytes() / options.unit_bytes;
  const std::uint64_t media_bytes =
      store.disk_bytes() + (store.integrity_ ? units_per_disk * 4 : 0);
  const BackendGeometry geometry{store.array_.num_disks(), media_bytes};
  if (Status opened = store.backend_->open(geometry); !opened.ok())
    return opened;

  // Cache zero-copy views when the backend offers them (all disks or
  // none, per the DiskBackend contract).
  std::vector<std::span<std::uint8_t>> views;
  views.reserve(geometry.num_disks);
  for (DiskId disk = 0; disk < geometry.num_disks; ++disk) {
    const auto view = store.backend_->memory_view(disk);
    if (view.size() != geometry.disk_bytes) break;
    views.push_back(view);
  }
  if (views.size() == geometry.num_disks) store.views_ = std::move(views);

  // Load the checksum cache from media: fresh disks are all-zero
  // ("unverified" -- scrub adopts them), a reopened image supplies the
  // previous process's checksums.
  if (store.integrity_) {
    const std::size_t units = static_cast<std::size_t>(units_per_disk);
    store.crc_.resize(geometry.num_disks);
    std::vector<std::uint8_t> raw(units * 4);
    for (DiskId disk = 0; disk < geometry.num_disks; ++disk) {
      if (Status read = store.backend_->read(disk, store.crc_base_, raw);
          !read.ok())
        return read;
      store.crc_[disk].resize(units);
      std::memcpy(store.crc_[disk].data(), raw.data(), units * 4);
    }
  }
  return store;
}

std::uint64_t StripeStore::instance_of(std::uint64_t logical) const noexcept {
  const api::Array::LogicalRef ref = array_.logical_ref(logical);
  return ref.stripe + ref.iteration * array_.num_stripes();
}

std::shared_mutex& StripeStore::shard_for(std::uint64_t logical) noexcept {
  return sync_->shards[instance_of(logical) % sync_->shards.size()];
}

// ---------------------------------------------------------- torn parity

bool StripeStore::is_torn(std::uint64_t instance) const {
  // Relaxed fast path: the happy path (no torn stripe anywhere, ever)
  // never takes torn_mutex.  A racing mark_torn publishes its set insert
  // before the count bump, so a non-zero count always finds a coherent
  // set under the mutex.
  if (sync_->torn_count.load(std::memory_order_acquire) == 0) return false;
  std::lock_guard<std::mutex> lock(sync_->torn_mutex);
  return sync_->torn.count(instance) != 0;
}

void StripeStore::mark_torn(std::uint64_t instance) {
  std::lock_guard<std::mutex> lock(sync_->torn_mutex);
  if (sync_->torn.insert(instance).second)
    sync_->torn_count.fetch_add(1, std::memory_order_release);
}

void StripeStore::clear_torn(std::uint64_t instance) {
  std::lock_guard<std::mutex> lock(sync_->torn_mutex);
  if (sync_->torn.erase(instance) != 0)
    sync_->torn_count.fetch_sub(1, std::memory_order_release);
}

bool StripeStore::parity_torn(std::uint32_t stripe,
                              std::uint64_t iteration) const {
  return is_torn(stripe + iteration * array_.num_stripes());
}

// -------------------------------------------------------------- data path

Status StripeStore::read(std::uint64_t logical, std::span<std::uint8_t> out,
                         ReadReceipt* receipt) {
  if (logical >= num_logical_units())
    return Status::out_of_range("logical " + std::to_string(logical) +
                                " past the address space (" +
                                std::to_string(num_logical_units()) +
                                " units)");
  if (out.size() != unit_bytes_)
    return Status::invalid_argument(
        "read buffer is " + std::to_string(out.size()) + " bytes; units are " +
        std::to_string(unit_bytes_));

  std::shared_lock state(sync_->state);
  for (int attempt = 0;; ++attempt) {
    Txn txn(unit_bytes_);
    Status served;
    {
      std::shared_lock stripe(shard_for(logical));
      ReadSlot slot;
      (void)read_locked(txn, {&logical, 1}, out, {&served, 1},
                        receipt ? std::span<ReadReceipt>(receipt, 1)
                                : std::span<ReadReceipt>(),
                        {&slot, 1});
    }
    if (served.code() != StatusCode::kChecksumMismatch || attempt > 0)
      return served;
    // Detected rot: upgrade to the writer lock, heal the instance
    // through the codec (the units this read found rotten are not
    // counted again), and retry the read once.  An unhealable instance
    // (rot past the codec's tolerance) surfaces the mismatch.
    const api::Array::LogicalRef ref = array_.logical_ref(logical);
    std::unique_lock stripe(shard_for(logical));
    if (!heal_instance_locked(ref.stripe,
                              static_cast<std::uint32_t>(ref.iteration),
                              nullptr, &txn)
             .ok())
      return served;
  }
}

Status StripeStore::read_locked(Txn& txn,
                                std::span<const std::uint64_t> logicals,
                                std::span<std::uint8_t> out,
                                std::span<Status> statuses,
                                std::span<ReadReceipt> receipts,
                                std::span<ReadSlot> slots) {
  const auto out_slice = [&](std::size_t i) {
    return unit_slice(out, i, unit_bytes_);
  };
  Status first;
  const auto fail = [&](std::size_t i, Status status) {
    statuses[i] = std::move(status);
    if (first.ok()) first = statuses[i];
  };

  // Plan phase: resolve every unit, serve cache hits, and queue direct
  // targets and degraded survivor sets on ONE transaction.
  std::array<Physical, 64> survivors;
  std::array<std::uint32_t, 64> survivor_idx;
  for (std::size_t i = 0; i < logicals.size(); ++i) {
    ReadSlot& slot = slots[i];
    statuses[i] = OkStatus();
    if (!receipts.empty()) {
      receipts[i].kind = api::ReadPlan::Kind::kUnrecoverable;
      receipts[i].num_touched = 0;
    }
    if (logicals[i] >= num_logical_units()) {
      fail(i, Status::out_of_range(
                  "logical " + std::to_string(logicals[i]) +
                  " past the address space (" +
                  std::to_string(num_logical_units()) + " units)"));
      continue;
    }
    const auto plan =
        array_.locate(logicals[i], survivors,
                      {survivor_idx.data(), survivor_idx.size()});
    if (!plan.ok()) {
      fail(i, plan.status());
      continue;
    }
    slot.plan = *plan;
    const bool degraded = plan->kind == api::ReadPlan::Kind::kDegraded;
    const std::uint64_t instance =
        degraded || cache_ ? instance_of(logicals[i]) : 0;
    if (plan->kind == api::ReadPlan::Kind::kUnrecoverable) {
      fail(i, Status::data_loss("logical " + std::to_string(logicals[i]) +
                                " is on a stripe that lost more units than "
                                "its codec tolerates"));
      continue;
    }
    if (degraded && is_torn(instance)) {
      fail(i, Status::parity_inconsistent(
                  "logical " + std::to_string(logicals[i]) +
                  " needs degraded reconstruction, but its stripe instance "
                  "is parity-torn (a prior write's rollback failed)"));
      continue;
    }
    if (cache_) {
      slot.heat = cache_->note(instance);
      bool hit = false;
      // Read-your-writes: an absorbed (not yet folded) write's pinned
      // bytes are the unit's current value; media is one fold behind.
      // (Dirty instances are never degraded -- fail_disk flushes the
      // table first -- so only direct reads check the pins.)  An entry
      // is created under its instance's exclusive shard lock, which this
      // reader holds shared (or read_batch excludes every writer with
      // the state lock), so an empty table can skip its mutex.
      if (plan->kind == api::ReadPlan::Kind::kDirect && cache_->any_dirty())
        if (StripeCache::DirtyEntry* entry = cache_->dirty_find(instance))
          if (const StripeCache::DirtyUnit* unit = entry->find(logicals[i])) {
            std::memcpy(out_slice(i).data(), unit->bytes.data(), unit_bytes_);
            cache_->count_hit();
            hit = true;
          }
      // The cache is keyed by LOGICAL address and holds logical content
      // (CRC-verified at fill, invalidated on every write), so a hit
      // serves the unit without touching a disk -- for a degraded unit
      // it short-circuits the whole survivor fan-in and decode.
      if (hit || cache_->lookup(logicals[i], out_slice(i))) {
        if (!receipts.empty()) receipts[i].kind = plan->kind;
        continue;
      }
    }
    slot.first = txn.size();
    if (plan->kind == api::ReadPlan::Kind::kDirect) {
      txn.add(plan->target);
    } else {
      for (std::uint32_t s = 0; s < plan->num_survivors; ++s)
        txn.add(survivors[s], survivor_idx[s]);
    }
    slot.gathered = true;
  }

  // Fan-out phase: the whole read crosses the gather ONCE, verified --
  // a degraded decode trusts every survivor byte, so rot in ANY of them
  // would otherwise materialize as the "reconstructed" unit.
  (void)gather(txn, IoClass::kForegroundRead, /*verify=*/true);

  // Resolve phase: per-unit statuses, copies or decodes, receipts.
  for (std::size_t i = 0; i < logicals.size(); ++i) {
    const ReadSlot& slot = slots[i];
    if (!slot.gathered) continue;
    const bool direct = slot.plan.kind == api::ReadPlan::Kind::kDirect;
    const std::uint32_t count = direct ? 1 : slot.plan.num_survivors;
    const Status* failed = nullptr;
    for (std::uint32_t u = 0; u < count && !failed; ++u)
      if (const Status& unit = txn.status(slot.first + u); !unit.ok())
        failed = &unit;
    if (failed) {
      fail(i, *failed);
      continue;
    }
    if (direct) {
      std::memcpy(out_slice(i).data(), txn.bytes(slot.first).data(),
                  unit_bytes_);
    } else {
      decode_unit(array_.codec(), slot.plan.num_data,
                  txn.bytes(slot.first, count),
                  {txn.buf.index.data() + slot.first, count},
                  {slot.plan.erased_index.data(), slot.plan.num_erased},
                  out_slice(i));
    }
    // Caching the served content lets the NEXT read of this hot unit
    // skip the disk (and a degraded one the whole fan-in);
    // invalidate-on-write keeps it coherent.
    if (cache_ && slot.heat >= cache_->options().hot_threshold)
      cache_->fill(logicals[i], out_slice(i));
    if (!receipts.empty()) {
      receipts[i].kind = slot.plan.kind;
      receipts[i].num_touched = count;
      std::copy_n(txn.buf.units.begin() + slot.first, count,
                  receipts[i].touched.begin());
    }
  }
  return first;
}

Status StripeStore::read_batch(std::span<const std::uint64_t> logicals,
                               std::span<std::uint8_t> out,
                               std::span<Status> statuses,
                               std::span<ReadReceipt> receipts) {
  if (out.size() != logicals.size() * unit_bytes_)
    return Status::invalid_argument(
        "read_batch buffer is " + std::to_string(out.size()) + " bytes; " +
        std::to_string(logicals.size()) + " units need " +
        std::to_string(logicals.size() * static_cast<std::uint64_t>(
                                             unit_bytes_)));
  if (statuses.size() != logicals.size())
    return Status::invalid_argument(
        "read_batch statuses span is " + std::to_string(statuses.size()) +
        " wide; need one per unit (" + std::to_string(logicals.size()) + ")");
  if (!receipts.empty() && receipts.size() != logicals.size())
    return Status::invalid_argument(
        "read_batch receipts span is " + std::to_string(receipts.size()) +
        " wide; need none or one per unit (" +
        std::to_string(logicals.size()) + ")");
  if (logicals.empty()) return OkStatus();

  Txn txn(unit_bytes_);
  Status first;
  {
    // Lock every involved stripe shard in a deadlock-free global order
    // (sorted by address, deduplicated) -- the batch-wide analogue of
    // read()'s single shard lock.  Shared: reads exclude only writers.
    // A batch that sweeps more than kMaxHeldShards distinct shards takes
    // the state lock exclusively instead -- writers hold state shared,
    // so an exclusive hold excludes them wholesale -- which bounds how
    // many locks one thread holds (ThreadSanitizer's deadlock detector
    // aborts past 64).
    std::vector<std::shared_mutex*> shards;
    shards.reserve(logicals.size());
    for (const std::uint64_t logical : logicals)
      if (logical < num_logical_units()) shards.push_back(&shard_for(logical));
    std::sort(shards.begin(), shards.end());
    shards.erase(std::unique(shards.begin(), shards.end()), shards.end());
    constexpr std::size_t kMaxHeldShards = 16;
    std::shared_lock<std::shared_mutex> state(sync_->state, std::defer_lock);
    std::unique_lock<std::shared_mutex> exclusive(sync_->state,
                                                  std::defer_lock);
    std::vector<std::shared_lock<std::shared_mutex>> held;
    if (shards.size() > kMaxHeldShards) {
      exclusive.lock();
    } else {
      state.lock();
      held.reserve(shards.size());
      for (std::shared_mutex* shard : shards) held.emplace_back(*shard);
    }
    std::vector<ReadSlot> slots(logicals.size());
    first = read_locked(txn, logicals, out, statuses, receipts, slots);
  }
  if (!integrity_) return first;
  bool any_mismatch = false;
  for (const Status& s : statuses)
    if (s.code() == StatusCode::kChecksumMismatch) any_mismatch = true;
  if (!any_mismatch) return first;
  // Heal-and-retry pass: the batch's locks are released, so each rotten
  // instance is healed once under its writer lock (the units the batch
  // found rotten are not counted again), and each mismatched unit of a
  // healed instance goes back through read().  An unhealable instance
  // surfaces the mismatch.
  first = OkStatus();
  std::vector<std::pair<std::uint64_t, bool>> healed;  // instance, ok
  for (std::size_t i = 0; i < logicals.size(); ++i) {
    if (statuses[i].code() == StatusCode::kChecksumMismatch) {
      const std::uint64_t instance = instance_of(logicals[i]);
      auto it = std::find_if(healed.begin(), healed.end(),
                             [&](const auto& h) { return h.first == instance; });
      if (it == healed.end()) {
        std::shared_lock state(sync_->state);
        std::unique_lock stripe(shard_for(logicals[i]));
        const api::Array::LogicalRef ref = array_.logical_ref(logicals[i]);
        const Status heal = heal_instance_locked(
            ref.stripe, static_cast<std::uint32_t>(ref.iteration), nullptr,
            &txn);
        it = healed.insert(healed.end(), {instance, heal.ok()});
      }
      if (it->second)
        statuses[i] = read(logicals[i], unit_slice(out, i, unit_bytes_),
                           receipts.empty() ? nullptr : &receipts[i]);
    }
    if (!statuses[i].ok() && first.ok()) first = statuses[i];
  }
  return first;
}

Status StripeStore::write(std::uint64_t logical,
                          std::span<const std::uint8_t> data,
                          WriteReceipt* receipt) {
  if (logical >= num_logical_units())
    return Status::out_of_range("logical " + std::to_string(logical) +
                                " past the address space (" +
                                std::to_string(num_logical_units()) +
                                " units)");
  if (data.size() != unit_bytes_)
    return Status::invalid_argument(
        "write buffer is " + std::to_string(data.size()) +
        " bytes; units are " + std::to_string(unit_bytes_));

  std::shared_lock state(sync_->state);
  // Time-triggered flush sweep, BEFORE taking this write's own shard
  // lock (the sweep takes each dirty instance's shard lock in turn --
  // including, possibly, this write's).  One writer wins the interval
  // CAS and pays the sweep; errors are not this write's to report (the
  // entries stay dirty and the next trigger retries).
  if (cache_ && cache_->any_dirty() && cache_->flush_due())
    (void)flush_dirty();
  std::unique_lock stripe(shard_for(logical));
  return write_locked(logical, data, receipt);
}

Status StripeStore::write_locked(std::uint64_t logical,
                                 std::span<const std::uint8_t> data,
                                 WriteReceipt* receipt) {
  const auto plan = array_.plan_write(logical, {});
  if (!plan.ok()) return plan.status();
  if (receipt) {
    receipt->kind = plan->kind;
    receipt->num_reads = 0;
    receipt->num_writes = 0;
  }
  const std::uint64_t instance = instance_of(logical);
  if (cache_) {
    cache_->note(instance);
    // The ONE coherence rule: every write drops the unit's cached
    // payload (the absorb path re-pins the new bytes itself).
    cache_->invalidate(logical);
  }

  switch (plan->kind) {
    case api::WritePlan::Kind::kReadModifyWrite:
      if (!is_torn(instance)) {
        if (cache_ && array_.healthy()) {
          bool handled = false;
          Status absorbed = absorb_rmw(*plan, logical, data, instance,
                                       receipt, &handled);
          if (handled) return absorbed;
        }
        return write_rmw(*plan, data, instance, receipt);
      }
      // A torn instance's parity cannot absorb a delta, so the write
      // re-encodes it from the full data set instead -- the heal.
      // Absorbed writes still pending join it: media peers alone are
      // stale, so the fold re-encodes with every pinned write overlaid.
      if (cache_)
        if (StripeCache::DirtyEntry* entry = cache_->dirty_find(instance)) {
          entry->pin(logical, plan->data, plan->data_index, data);
          return fold_instance_locked(instance);
        }
      [[fallthrough]];
    case api::WritePlan::Kind::kReconstructWrite: {
      // The new bytes stand in for the addressed unit (lost, for a
      // reconstruct-write); the re-encode decodes any other lost data
      // unit first.
      std::array<std::span<const std::uint8_t>, 64> fresh{};
      fresh[plan->data_index] = data;
      return reencode_locked(instance, fresh, receipt);
    }
    case api::WritePlan::Kind::kUnprotectedWrite: {
      // Every parity is lost: the data unit lands alone.  Its old bytes
      // are gathered only so a failed commit can restore them.
      Txn txn(unit_bytes_);
      txn.add(plan->data);
      if (Status loaded = gather(txn, IoClass::kForegroundWrite, false);
          !loaded.ok())
        return loaded;
      txn.write(0, data);
      if (Status stored = commit(txn, instance, IoClass::kForegroundWrite);
          !stored.ok())
        return stored;
      txn.report(receipt);
      return OkStatus();
    }
    case api::WritePlan::Kind::kUnrecoverable:
      break;
  }
  return Status::data_loss("logical " + std::to_string(logical) +
                           " is on a stripe that lost more units than its "
                           "codec tolerates");
}

Status StripeStore::write_rmw(const api::WritePlan& plan,
                              std::span<const std::uint8_t> data,
                              std::uint64_t instance,
                              WriteReceipt* receipt) {
  const core::Codec& codec = array_.codec();
  const std::uint32_t np = plan.num_parities;
  // One gather loads the old data plus every surviving parity (distinct
  // disks by construction).  Verify BEFORE computing: rot in a pre-image
  // would otherwise be laundered into the new parity.
  Txn txn(unit_bytes_);
  txn.add(plan.data);
  for (std::uint32_t j = 0; j < np; ++j) txn.add(plan.parity_targets[j]);
  if (Status loaded = gather_healed(txn, IoClass::kForegroundWrite, instance);
      !loaded.ok())
    return loaded;
  // parity_j' = parity_j ^ c_j * (old ^ new): one fused pass per parity
  // over the gathered old bytes, then data and parities commit together.
  const auto parity = txn.scratch(np);
  txn.write(0, data);
  for (std::uint32_t j = 0; j < np; ++j) {
    const auto out = unit_slice(parity, j, unit_bytes_);
    codec.update_into(out, txn.bytes(1 + j), plan.parity_index[j],
                      plan.data_index, txn.bytes(0), data);
    txn.write(1 + j, out);
  }
  if (Status stored = commit(txn, instance, IoClass::kForegroundWrite);
      !stored.ok())
    return stored;
  txn.report(receipt);
  return OkStatus();
}

Status StripeStore::reencode_locked(
    std::uint64_t instance,
    std::span<const std::span<const std::uint8_t>> fresh,
    WriteReceipt* receipt) {
  const core::Codec& codec = array_.codec();
  const std::uint32_t m = array_.num_parity_units();
  const auto stripe =
      static_cast<std::uint32_t>(instance % array_.num_stripes());
  const std::uint64_t iteration = instance / array_.num_stripes();
  const std::uint64_t lift = iteration * array_.units_per_disk();
  std::array<api::Array::StripeUnitStatus, 64> units;
  const auto width = array_.stripe_units(stripe, units);
  if (!width.ok()) return width.status();
  const std::uint32_t kd = *width - m;
  const auto given = [&](std::uint32_t u) {
    return u < fresh.size() && !fresh[u].empty();
  };

  // Gather every present unit in codec order (data, then parities):
  // the data set, the survivors of any decode and every rollback
  // pre-image at once.  The decode and the re-encode trust these bytes,
  // so the gather verifies them -- except on a torn instance, whose
  // parity is untrustworthy by definition and whose data is taken as
  // ground truth.  That parity decodes nothing, so a torn instance that
  // lost a data unit cannot be re-encoded at all.
  const bool torn = is_torn(instance);
  Txn txn(unit_bytes_);
  std::array<std::uint32_t, 64> at{};  // codec index -> gathered unit
  std::array<std::uint32_t, 64> erased{};
  std::uint32_t num_erased = 0;
  for (std::uint32_t u = 0; u < *width; ++u) {
    if (units[u].lost) {
      erased[num_erased++] = u;
      continue;
    }
    at[u] = txn.size();
    txn.add(Physical{units[u].unit.disk, units[u].unit.offset + lift}, u);
  }
  if (torn && num_erased > 0 && erased[0] < kd)
    return Status::parity_inconsistent(
        "stripe " + std::to_string(stripe) + " iteration " +
        std::to_string(iteration) +
        " is parity-torn and lost a data unit: its parity cannot be "
        "re-encoded from data while that unit is lost");
  if (Status loaded =
          torn ? gather(txn, IoClass::kForegroundWrite, /*verify=*/false)
               : gather_healed(txn, IoClass::kForegroundWrite, instance);
      !loaded.ok())
    return loaded;

  // The data set: new bytes where given, media bytes where present, and
  // any other lost data unit decoded from the OLD code word (the
  // survivors exclude every erased unit, so the decode is consistent).
  // Scratch: m decode slots, then the m re-encoded parities.
  const auto scratch = txn.scratch(2 * static_cast<std::size_t>(m));
  std::array<std::span<const std::uint8_t>, 64> data;
  std::array<std::span<std::uint8_t>, api::kMaxParityUnits> decoded{};
  bool any_decode = false;
  for (std::uint32_t u = 0; u < kd; ++u)
    if (given(u))
      data[u] = fresh[u];
    else if (!units[u].lost)
      data[u] = txn.bytes(at[u]);
  for (std::uint32_t e = 0; e < num_erased; ++e)
    if (erased[e] < kd && !given(erased[e])) {
      decoded[e] = unit_slice(scratch, e, unit_bytes_);
      data[erased[e]] = decoded[e];
      any_decode = true;
    }
  if (any_decode)
    codec.reconstruct(kd, txn.bytes(0, txn.size()),
                      {txn.buf.index.data(), txn.size()},
                      {erased.data(), num_erased},
                      {decoded.data(), num_erased});
  std::array<std::span<std::uint8_t>, api::kMaxParityUnits> parity;
  for (std::uint32_t j = 0; j < m; ++j)
    parity[j] = unit_slice(scratch, m + j, unit_bytes_);
  codec.encode({data.data(), kd}, {parity.data(), m});

  // Commit the present new data units and every surviving parity (a
  // lost unit has nowhere to go -- rebuild re-creates it).  A failed
  // commit rolls back: a reconstruct-write's stripe keeps encoding the
  // lost unit's OLD value, and a torn instance simply stays torn, so the
  // heal can be retried.  Clearing the tear before every write landed
  // would let a parity-trusting read through too early.
  for (std::uint32_t u = 0; u < kd; ++u)
    if (given(u) && !units[u].lost) txn.write(at[u], fresh[u]);
  for (std::uint32_t j = 0; j < m; ++j)
    if (!units[kd + j].lost) txn.write(at[kd + j], parity[j]);
  if (Status stored = commit(txn, instance, IoClass::kForegroundWrite);
      !stored.ok())
    return stored;
  if (torn) clear_torn(instance);
  txn.report(receipt);
  return OkStatus();
}

// ------------------------------------------------------ cache internals

Status StripeStore::absorb_rmw(const api::WritePlan& plan,
                               std::uint64_t logical,
                               std::span<const std::uint8_t> data,
                               std::uint64_t instance, WriteReceipt* receipt,
                               bool* handled) {
  *handled = false;
  StripeCache::DirtyEntry* entry = cache_->dirty_find(instance);
  if (!entry) {
    // Only HOT instances are worth pinning memory for; everything else
    // falls through to the immediate RMW path.  So does a hot instance
    // when the table is full.
    if (!cache_->hot(instance)) return OkStatus();
    bool created = false;
    entry = cache_->dirty_ensure(instance, plan.num_parities, &created);
    if (!entry) return OkStatus();
    if (created)
      for (std::uint32_t j = 0; j < plan.num_parities; ++j) {
        entry->parity_home[j] = plan.parity_targets[j];
        entry->parity_index[j] = plan.parity_index[j];
      }
  }
  *handled = true;

  // Old bytes: the previously PINNED value when re-writing an
  // already-dirty unit (zero media traffic -- this is where the hot
  // set's RMW tax disappears), otherwise the unit's media pre-image.
  const core::Codec& codec = array_.codec();
  StripeCache::DirtyUnit* unit = entry->find(logical);
  Txn txn(unit_bytes_);
  std::span<const std::uint8_t> old;
  if (unit) {
    old = unit->bytes;
  } else {
    txn.add(plan.data);
    if (Status pre = gather_healed(txn, IoClass::kForegroundWrite, instance);
        !pre.ok()) {
      if (entry->units.empty()) cache_->dirty_erase(instance);
      return pre;
    }
    old = txn.bytes(0);
  }

  // Accumulate c_j * (old ^ new) into each parity's delta, then pin
  // the new bytes as the unit's current value.  Re-absorbing the same
  // unit is exact: its pinned bytes are the "old" the delta folds
  // against, so the accumulated sum telescopes.
  const auto delta = txn.scratch(1);
  const std::span<const std::uint8_t> change[] = {old, data};
  core::xor_parity_into(delta, change);
  for (std::uint32_t j = 0; j < entry->num_parity; ++j)
    codec.update(entry->delta[j], entry->parity_index[j], plan.data_index,
                 delta);
  entry->pin(logical, plan.data, plan.data_index, data);
  cache_->count_absorb();
  if (receipt) {
    // Same shape an immediate RMW would report: the units the write
    // LOGICALLY involves (the fold does the physical I/O later).
    receipt->num_reads = 1 + entry->num_parity;
    receipt->reads[0] = plan.data;
    receipt->num_writes = 1 + entry->num_parity;
    receipt->writes[0] = plan.data;
    for (std::uint32_t j = 0; j < entry->num_parity; ++j) {
      receipt->reads[1 + j] = entry->parity_home[j];
      receipt->writes[1 + j] = entry->parity_home[j];
    }
  }

  // Size trigger: a full entry folds inline under the already-held
  // locks (this bounds the fold's journal record too).  Capped at the
  // stripe's data width -- a narrow stripe (RS P+Q keeps few data
  // units) fills completely before a large max_dirty_units would ever
  // fire.
  const std::size_t fold_at = std::min<std::size_t>(
      cache_->options().max_dirty_units, plan.num_data);
  if (entry->units.size() >= std::max<std::size_t>(fold_at, 1))
    return fold_instance_locked(instance);
  return OkStatus();
}

Status StripeStore::fold_instance_locked(std::uint64_t instance) {
  StripeCache::DirtyEntry* entry = cache_->dirty_find(instance);
  if (!entry) return OkStatus();
  if (entry->units.empty()) {
    cache_->dirty_erase(instance);
    return OkStatus();
  }
  const auto nd = static_cast<std::uint32_t>(entry->units.size());
  if (is_torn(instance)) {
    // Torn parity cannot take the accumulated deltas, but a dirty
    // instance is fully present (dirty implies healthy): re-encode every
    // parity from media data with the pinned writes overlaid, landing
    // them and clearing the tear in one batch.  A failed commit keeps
    // the entry for a later retry.
    std::array<std::span<const std::uint8_t>, 64> fresh{};
    for (const StripeCache::DirtyUnit& u : entry->units)
      fresh[u.data_index] = u.bytes;
    if (Status healed = reencode_locked(instance, fresh, nullptr);
        !healed.ok())
      return healed;
    cache_->count_fold(nd);
    cache_->dirty_erase(instance);
    return OkStatus();
  }

  const std::uint32_t np = entry->num_parity;
  // Gather the np parity pre-images, then the nd dirty units' media
  // pre-images (the rollback needs them).  Verify every pre-image
  // BEFORE folding -- rot would otherwise be laundered into the new
  // parity.  The heal restores the original code word, so the
  // accumulated deltas stay applicable; unhealable rot keeps the entry.
  Txn txn(unit_bytes_);
  for (std::uint32_t j = 0; j < np; ++j) txn.add(entry->parity_home[j]);
  for (std::uint32_t i = 0; i < nd; ++i) txn.add(entry->units[i].home);
  if (Status loaded = gather_healed(txn, IoClass::kForegroundWrite, instance);
      !loaded.ok())
    return loaded;

  // parity_new = parity_old ^ accumulated delta.  Linearity over the
  // codec's field makes this byte-identical to folding every absorbed
  // write through per-op RMW, in any order.
  const auto parity = txn.scratch(np);
  for (std::uint32_t i = 0; i < nd; ++i)
    txn.write(np + i, entry->units[i].bytes);
  for (std::uint32_t j = 0; j < np; ++j) {
    const auto out = unit_slice(parity, j, unit_bytes_);
    const std::span<const std::uint8_t> srcs[] = {txn.bytes(j),
                                                  entry->delta[j]};
    core::xor_parity_into(out, srcs);
    txn.write(j, out);
  }
  // ONE committed batch: every dirty data unit, every folded parity,
  // and their checksums.  A crash mid-fold replays the whole record --
  // the consistent post-image -- on reopen; a failed batch rolls back
  // to the pre-fold image and the entry is KEPT (its deltas are still
  // valid against that image), so a later flush retries.
  if (Status stored = commit(txn, instance, IoClass::kForegroundWrite);
      !stored.ok())
    return stored;
  cache_->count_fold(nd);
  cache_->dirty_erase(instance);
  return OkStatus();
}

Status StripeStore::flush_dirty() {
  if (!cache_ || !cache_->any_dirty()) return OkStatus();
  Status first;
  for (const std::uint64_t instance : cache_->dirty_instances()) {
    std::unique_lock shard(sync_->shards[instance % sync_->shards.size()]);
    const Status folded = fold_instance_locked(instance);
    if (!folded.ok() && first.ok()) first = folded;
  }
  return first;
}

Status StripeStore::flush_cache() {
  std::shared_lock state(sync_->state);
  return flush_dirty();
}

Status StripeStore::sync() {
  std::unique_lock lock(sync_->state);  // exclude in-flight writers
  // Absorbed writes are not durable until folded: flush first, so the
  // backend sync below covers them.
  if (Status flushed = flush_dirty(); !flushed.ok())
    return flushed;
  for (DiskId disk = 0; disk < array_.num_disks(); ++disk)
    if (Status synced = backend_->sync(disk); !synced.ok()) return synced;
  return OkStatus();
}

// ------------------------------------------------- failure & rebuild

Status StripeStore::fail_disk(DiskId disk) {
  std::unique_lock lock(sync_->state);
  // Fold every absorbed write FIRST: the dirty-table invariant (dirty
  // implies a fully healthy stripe) must hold before the failure lands,
  // and folding against the still-complete array is the only fold that
  // is consistent.  On a fold error the failure is refused -- the
  // caller retries after the underlying fault clears.
  if (Status flushed = flush_dirty(); !flushed.ok())
    return flushed;
  sync_->write_epoch.fetch_add(1, std::memory_order_relaxed);
  kept_steps_.clear();  // the failure state changes: plan again
  ++kept_gen_;
  if (Status failed = array_.fail_disk(disk); !failed.ok()) return failed;
  if (Status discarded = backend_->discard(disk, kPoison); !discarded.ok())
    return discarded;
  return reset_disk_crcs(disk);
}

Status StripeStore::replace_disk(DiskId disk) {
  std::unique_lock lock(sync_->state);
  sync_->write_epoch.fetch_add(1, std::memory_order_relaxed);
  kept_steps_.clear();  // the failure state changes: plan again
  ++kept_gen_;
  if (Status replaced = array_.replace_disk(disk); !replaced.ok())
    return replaced;
  if (Status discarded = backend_->discard(disk, 0); !discarded.ok())
    return discarded;
  return reset_disk_crcs(disk);
}

Status StripeStore::reset_disk_crcs(DiskId disk) {
  // A discarded disk's units carry no valid checksums: zero the cache
  // and the media region ("unverified") so rebuilt units start clean --
  // discard() itself filled the region with the fill byte, which for
  // the poison fill would read as garbage claims.
  if (!integrity_) return OkStatus();
  std::fill(crc_[disk].begin(), crc_[disk].end(), 0u);
  const std::vector<std::uint8_t> zeros(crc_[disk].size() * 4, 0);
  return backend_->write(disk, crc_base_, zeros);
}

bool StripeStore::step_trusts_torn(const api::RebuildStep& step) const {
  // A step that decodes DATA through parity must refuse torn instances:
  // their parity no longer encodes the on-disk data, so the decode would
  // materialize garbage as if it were the lost unit.  (A step that only
  // re-encodes parity FROM data is safe -- it overwrites, not trusts,
  // the parity bytes.)
  if (!step_decodes_data(step)) return false;
  for (std::uint32_t it = 0; it < iterations_; ++it)
    if (is_torn(step.stripe +
                static_cast<std::uint64_t>(it) * array_.num_stripes()))
      return true;
  return false;
}

Status StripeStore::stage_steps(Txn& txn,
                                std::span<const api::RebuildStep> steps) {
  for (const api::RebuildStep& step : steps)
    if (step_trusts_torn(step))
      return Status::parity_inconsistent(
          "rebuild step for stripe " + std::to_string(step.stripe) +
          " would decode data through a parity-torn instance");

  // The ENTIRE survivor fan-in -- every survivor of every step and
  // iteration -- is one kRebuild-tagged gather (so a rebuild-
  // deprioritizing scheduler can hold it behind foreground I/O).  Then
  // one pass per stripe instance, split over lanes in contiguous ranges:
  // a lane checks the instance's survivors right before its decode reads
  // them, decodes it into the instance's own slice of scratch, and takes
  // the rebuilt unit's CRC word while the unit is still hot.  Lanes take
  // no locks -- the caller's hold covers them -- and count nothing: the
  // checks are counted after the join, in index order, so each rotten
  // unit counts once.  A mismatch is recorded on the transaction
  // (heal_staged finds it there); every instance is checked, so one heal
  // round sees all the rot.
  for (const api::RebuildStep& step : steps)
    for (std::uint32_t it = 0; it < iterations_; ++it) {
      const std::uint64_t lift =
          static_cast<std::uint64_t>(it) * array_.units_per_disk();
      for (const Physical& read : step.reads)
        txn.add(Physical{read.disk, read.offset + lift});
    }
  if (Status fanned = gather(txn, IoClass::kRebuild, /*verify=*/false);
      !fanned.ok())
    return fanned;
  const std::size_t targets = steps.size() * iterations_;
  const auto rebuilt = txn.scratch(targets);
  if (integrity_) {
    txn.buf.words.resize(targets);
    txn.buf.crcs.resize(txn.size());
  }
  const auto stage = [&](const api::RebuildStep& step, std::size_t target,
                         std::size_t first) {
    const std::size_t n = step.reads.size();
    bool clean = true;
    if (integrity_)
      for (std::size_t i = first; i < first + n; ++i) {
        const Physical p = txn.unit(i);
        const std::uint32_t stored = crc_[p.disk][p.offset];
        if (stored == 0) continue;  // unverified
        txn.buf.crcs[i] = core::crc32c_nonzero(txn.bytes(i));
        clean = clean && txn.buf.crcs[i] == stored;
      }
    if (!clean) return;
    const auto out = unit_slice(rebuilt, target, unit_bytes_);
    decode_unit(array_.codec(), step.num_data, txn.bytes(first, n),
                step.read_indices, {step.erased_index.data(), step.num_erased},
                out);
    if (integrity_) {
      const std::uint32_t crc = core::crc32c_nonzero(out);
      std::memcpy(txn.buf.words[target].data(), &crc, 4);
    }
  };
  parallel_for(targets, rebuild_lanes(steps, iterations_, unit_bytes_),
               [&](std::size_t begin, std::size_t end) {
                 for_each_instance(steps, iterations_, begin, end, stage);
               });
  return verify_units(txn, 0, txn.size(), nullptr, txn.buf.crcs);
}

Status StripeStore::commit_steps(Txn& txn,
                                 std::span<const api::RebuildStep> steps) {
  const std::size_t targets = steps.size() * iterations_;
  const auto rebuilt = txn.scratch(targets);
  std::vector<IoRequest>& batch = txn.buf.requests;
  batch.clear();
  for (const api::RebuildStep& step : steps)
    for (std::uint32_t it = 0; it < iterations_; ++it) {
      const std::uint64_t lift =
          static_cast<std::uint64_t>(it) * array_.units_per_disk();
      batch.push_back(IoRequest::write_of(
          IoClass::kRebuild, step.target.disk,
          byte_offset(step.target.offset + lift),
          unit_slice(rebuilt, batch.size(), unit_bytes_)));
    }
  // Rebuilt targets carry the checksums stage_steps took.  The lanes
  // split the instances as stage_steps did; each writes its slice of the
  // targets, then their CRC words, and every request keeps its own
  // status.  (Not journaled: a crash here leaves at most target units
  // checksum-stale, which the reopen-time heal reconstructs -- rebuild
  // is re-runnable anyway.)
  stage_crc_words(txn, IoClass::kRebuild);
  const std::span<IoRequest> units(batch.data(), targets);
  const std::span<IoRequest> words(batch.data() + targets,
                                   batch.size() - targets);
  parallel_for(targets, rebuild_lanes(steps, iterations_, unit_bytes_),
               [&](std::size_t begin, std::size_t end) {
                 (void)backend_->execute_batch(
                     units.subspan(begin, end - begin));
                 if (!words.empty())
                   (void)backend_->execute_batch(
                       words.subspan(begin, end - begin));
               });
  for (const IoRequest& request : batch)
    if (!request.status.ok()) return request.status;
  record_crc_words(txn);
  // The landed target bytes are survivor bytes from any OTHER
  // rebuilder's perspective: bump the epoch so a concurrently staged
  // chunk replans instead of committing stale reads.  (Without this
  // bump, a second rebuilder's staleness would only be caught by
  // apply_rebuild_step's kFailedPrecondition -- a hard error rather
  // than a retry.)  The caller holds the exclusive state lock, and
  // every epoch access happens under the state mutex, so relaxed
  // ordering suffices.
  sync_->write_epoch.fetch_add(1, std::memory_order_relaxed);
  for (const api::RebuildStep& step : steps)
    if (Status applied = array_.apply_rebuild_step(step); !applied.ok())
      return applied;
  return OkStatus();
}

Status StripeStore::heal_staged(const Txn& txn,
                                std::span<const api::RebuildStep> steps) {
  // Each rotten instance heals once, though several steps (one per lost
  // unit of a stripe) may have read it.
  std::vector<std::uint64_t> rotten;
  std::size_t next = 0;
  for (const api::RebuildStep& step : steps)
    for (std::uint32_t it = 0; it < iterations_; ++it) {
      bool rot = false;
      for (std::size_t i = 0; i < step.reads.size(); ++i, ++next)
        if (txn.status(next).code() == StatusCode::kChecksumMismatch)
          rot = true;
      if (rot)
        rotten.push_back(step.stripe +
                         static_cast<std::uint64_t>(it) * array_.num_stripes());
    }
  std::sort(rotten.begin(), rotten.end());
  rotten.erase(std::unique(rotten.begin(), rotten.end()), rotten.end());
  Status healed;
  for (const std::uint64_t instance : rotten)
    if (Status one = heal_instance_locked(
            static_cast<std::uint32_t>(instance % array_.num_stripes()),
            static_cast<std::uint32_t>(instance / array_.num_stripes()),
            nullptr, &txn);
        !one.ok() && healed.ok())
      healed = std::move(one);
  return healed;
}

Status StripeStore::apply_steps_locked(
    std::span<const api::RebuildStep> steps) {
  for (int attempt = 0;; ++attempt) {
    Txn txn(unit_bytes_);
    const Status staged = stage_steps(txn, steps);
    if (staged.ok()) return commit_steps(txn, steps);
    if (staged.code() != StatusCode::kChecksumMismatch || attempt > 0)
      return staged;
    // A survivor failed verification: heal its instances (the exclusive
    // state lock excludes all other traffic), then restage once.
    // Unhealable rot surfaces the mismatch.
    if (!heal_staged(txn, steps).ok()) return staged;
  }
}

Result<std::size_t> StripeStore::claim_steps_locked(
    std::size_t max, std::vector<api::RebuildStep>& chunk) {
  std::size_t set_aside = 0;
  bool planned = false;
  while (chunk.size() < max) {
    if (kept_steps_.empty()) {
      // Plan only for an empty chunk: a fresh plan lists the chunk's
      // steps again, since they are not applied yet.
      if (planned || !chunk.empty()) break;
      auto plan = array_.plan_rebuild();
      if (!plan.ok()) return plan.status();
      kept_steps_.assign(std::make_move_iterator(plan->steps.begin()),
                         std::make_move_iterator(plan->steps.end()));
      kept_blocked_ = plan->blocked;
      ++kept_gen_;
      planned = true;
      set_aside = 0;
      continue;
    }
    // A kept step whose unit is no longer lost was applied from a chunk
    // claimed before this plan was made; it is dropped.  A step that
    // would decode data through a torn instance is set aside, so one
    // torn stripe does not hold back the rest of the disk; the next
    // plan offers it again.
    const api::RebuildStep& step = kept_steps_.front();
    if (array_.is_lost(step.stripe, step.lost_pos)) {
      if (sync_->torn_count.load(std::memory_order_relaxed) != 0 &&
          step_trusts_torn(step))
        ++set_aside;
      else
        chunk.push_back(std::move(kept_steps_.front()));
    }
    kept_steps_.pop_front();
  }
  return set_aside;
}

void StripeStore::unclaim_steps_locked(std::span<api::RebuildStep> steps,
                                       std::uint64_t gen) {
  if (gen != kept_gen_) return;
  kept_steps_.insert(kept_steps_.begin(), std::make_move_iterator(steps.begin()),
                     std::make_move_iterator(steps.end()));
}

Result<std::uint64_t> StripeStore::rebuild_some(std::uint64_t max_steps,
                                                std::uint64_t* blocked) {
  // Chunk bounds: kMaxStageChunk keeps the exclusive commit hold short,
  // and kMaxStageShards keeps the number of simultaneously held locks
  // small (ThreadSanitizer's deadlock detector aborts a thread holding
  // 64+).
  constexpr std::uint64_t kMaxStageChunk = 8;
  constexpr std::size_t kMaxStageShards = 16;
  std::uint64_t applied = 0;
  if (blocked) *blocked = 0;
  while (applied < max_steps) {
    // Claim the next chunk of the kept plan under the exclusive lock.
    std::vector<api::RebuildStep> chunk;
    std::uint64_t epoch = 0;
    std::uint64_t gen = 0;
    {
      std::unique_lock lock(sync_->state);
      const auto set_aside = claim_steps_locked(
          static_cast<std::size_t>(
              std::min(max_steps - applied, kMaxStageChunk)),
          chunk);
      if (!set_aside.ok()) return set_aside.status();
      if (blocked) *blocked = kept_blocked_;
      // When only set-aside steps are left, a call that rebuilt nothing
      // says why; planning again could never apply them.
      if (chunk.empty() && *set_aside != 0 && applied == 0)
        return Status::parity_inconsistent(
            std::to_string(*set_aside) +
            " rebuild step(s) would decode data through a parity-torn "
            "instance; nothing else is left to rebuild");
      if (chunk.empty()) return applied;
      epoch = sync_->write_epoch.load(std::memory_order_relaxed);
      gen = kept_gen_;
    }

    // The chunk's stripe shard locks -- shared, one per iteration
    // instance, sorted like read_batch's -- exclude byte-level overlap
    // with foreground writes to the staged stripes without stalling
    // foreground reads; writes elsewhere proceed and are caught by the
    // epoch check below.
    std::vector<std::shared_mutex*> shards;
    shards.reserve(chunk.size() * iterations_);
    for (const api::RebuildStep& step : chunk)
      for (std::uint32_t it = 0; it < iterations_; ++it) {
        const std::uint64_t instance =
            step.stripe + static_cast<std::uint64_t>(it) * array_.num_stripes();
        shards.push_back(&sync_->shards[instance % sync_->shards.size()]);
      }
    std::sort(shards.begin(), shards.end());
    shards.erase(std::unique(shards.begin(), shards.end()), shards.end());

    // A chunk whose shard set is degenerate (huge iteration counts sweep
    // most of the shard pool) skips the shared stage and is staged under
    // the exclusive lock below instead, rather than hold half the pool
    // across a scheduler-delayed wave.
    const bool shared_stage = shards.size() <= kMaxStageShards;
    Txn txn(unit_bytes_);
    Status staged;
    if (shared_stage) {
      // Stage the chunk under ONE SHARED lock hold: foreground reads and
      // writes keep submitting, so rebuild reads genuinely compete in
      // the disk queues, and the store pays one state-lock round-trip
      // per chunk instead of per step.
      std::shared_lock lock(sync_->state);
      std::vector<std::shared_lock<std::shared_mutex>> held;
      held.reserve(shards.size());
      for (std::shared_mutex* shard : shards) held.emplace_back(*shard);
      staged = stage_steps(txn, chunk);
    }

    // Commit the chunk under ONE exclusive lock hold.  Whatever the hold
    // does not apply goes back to the front of the kept plan, so no
    // attempt that fails to commit plans again.
    std::unique_lock lock(sync_->state);
    std::span<api::RebuildStep> unapplied = chunk;
    Status done;
    if (staged.code() == StatusCode::kChecksumMismatch) {
      // A staged survivor failed verification: heal its instances (the
      // heal's commit bumps the epoch, invalidating any other
      // rebuilder's staged bytes); the next claim restages the chunk.
      // Unhealable rot surfaces the mismatch.
      if (!heal_staged(txn, chunk).ok()) done = staged;
    } else if (staged.code() != StatusCode::kParityInconsistent &&
               !staged.ok()) {
      done = staged;
    } else if (staged.ok() &&
               sync_->write_epoch.load(std::memory_order_relaxed) == epoch) {
      // An unchanged epoch proves no write, fail, replace or other
      // commit landed since the claim, so the staged bytes are current
      // and every step is exactly as valid as when planned.
      done = shared_stage ? commit_steps(txn, chunk)
                          : apply_steps_locked(chunk);
      if (done.ok()) {
        applied += chunk.size();
        unapplied = {};
      }
    } else if (staged.ok()) {
      // The staged bytes may be stale.  The chunk goes back, and the kept
      // plan's next step -- the chunk's first, unless a fail, a replace
      // or a fresh plan since the claim dropped the chunk -- is applied
      // under this hold: writers are excluded now, so progress is
      // guaranteed.
      unclaim_steps_locked(chunk, gen);
      chunk.clear();
      if (const auto claimed = claim_steps_locked(1, chunk); !claimed.ok())
        return claimed.status();
      gen = kept_gen_;
      unapplied = chunk;
      if (!chunk.empty()) {
        done = apply_steps_locked(chunk);
        if (done.ok()) {
          ++applied;
          unapplied = {};
        }
      }
    }
    // kParityInconsistent: a write tore one of the chunk's instances
    // after the claim, and the next claim sets that step aside.
    if (done.code() == StatusCode::kParityInconsistent) done = OkStatus();
    unclaim_steps_locked(unapplied, gen);
    if (!done.ok()) return done;
  }
  return applied;
}

Result<api::RebuildOutcome> StripeStore::rebuild() {
  api::RebuildOutcome outcome;
  for (;;) {
    // The pass that finds nothing left to apply has already planned the
    // final state, so its blocked count is the outcome's.
    std::uint64_t blocked = 0;
    auto applied = rebuild_some(~0ull, &blocked);
    if (!applied.ok()) return applied.status();
    if (*applied == 0) {
      outcome.blocked = blocked;
      return outcome;
    }
    outcome.applied += *applied;
  }
}

// ------------------------------------------------------------ verification

Result<std::uint64_t> StripeStore::checksum_disk_locked(DiskId disk) const {
  // Data region only: the checksum region (under integrity) is derived
  // state, and two stores with identical content must checksum equal
  // regardless of which units have been verified/adopted so far.
  // Stream the image through a bounded buffer.
  constexpr std::uint64_t kChunk = 1u << 18;
  std::vector<std::uint8_t> chunk(
      static_cast<std::size_t>(std::min<std::uint64_t>(kChunk, disk_bytes())));
  std::uint64_t hash = kFnvOffset;
  std::uint64_t offset = 0;
  while (offset < disk_bytes()) {
    const std::uint64_t n =
        std::min<std::uint64_t>(chunk.size(), disk_bytes() - offset);
    const std::span<std::uint8_t> window{chunk.data(),
                                         static_cast<std::size_t>(n)};
    if (Status read = backend_->read(disk, offset, window); !read.ok())
      return read;
    hash = fnv1a(hash, window);
    offset += n;
  }
  return hash;
}

Result<std::uint64_t> StripeStore::checksum_disk(DiskId disk) const {
  std::unique_lock lock(sync_->state);  // exclude in-flight writers
  return checksum_disk_locked(disk);
}

Result<std::vector<std::uint64_t>> StripeStore::checksum_disks() const {
  // One exclusive lock across ALL disks: the vector is a cross-disk-
  // consistent snapshot (no write can land between two entries).
  std::unique_lock lock(sync_->state);
  std::vector<std::uint64_t> sums;
  sums.reserve(array_.num_disks());
  for (DiskId disk = 0; disk < array_.num_disks(); ++disk) {
    auto sum = checksum_disk_locked(disk);
    if (!sum.ok()) return sum.status();
    sums.push_back(*sum);
  }
  return sums;
}

// --------------------------------------------------------------- integrity

IntegrityStats StripeStore::integrity_stats() const noexcept {
  IntegrityStats s;
  s.verified = sync_->crc_verified.load(std::memory_order_relaxed);
  s.mismatches = sync_->crc_mismatches.load(std::memory_order_relaxed);
  s.healed = sync_->crc_healed.load(std::memory_order_relaxed);
  s.unhealable = sync_->crc_unhealable.load(std::memory_order_relaxed);
  s.adopted = sync_->crc_adopted.load(std::memory_order_relaxed);
  s.scrubbed = sync_->scrubbed.load(std::memory_order_relaxed);
  return s;
}

Status StripeStore::heal_instance_locked(std::uint32_t stripe,
                                         std::uint32_t iteration,
                                         ScrubReport* report,
                                         const Txn* counted) {
  if (!integrity_) return OkStatus();
  if (stripe >= array_.num_stripes() || iteration >= iterations_)
    return Status::invalid_argument("heal: stripe/iteration out of range");
  const std::uint64_t instance =
      stripe + static_cast<std::uint64_t>(iteration) * array_.num_stripes();
  if (is_torn(instance)) {
    // A torn instance's parity is untrustworthy independent of
    // checksums; the write-path heal (full re-encode) owns it.
    if (report) ++report->skipped;
    return Status::parity_inconsistent(
        "stripe instance is parity-torn; a successful write heals it");
  }
  const core::Codec& codec = array_.codec();
  const std::uint32_t m = array_.num_parity_units();
  std::array<api::Array::StripeUnitStatus, 64> units;
  const auto width_r = array_.stripe_units(stripe, units);
  if (!width_r.ok()) return width_r.status();
  const std::uint32_t width = *width_r;
  const std::uint32_t kd = width - m;
  const std::uint64_t lift =
      static_cast<std::uint64_t>(iteration) * array_.units_per_disk();

  // Gather every present unit in one kScrub transaction, unverified:
  // the classification below needs every unit's verdict, not the first.
  // Lost units are erased outright.
  Txn txn(unit_bytes_);
  std::array<std::uint32_t, 64> erased_idx;
  std::uint32_t num_erased = 0;
  for (std::uint32_t u = 0; u < width; ++u) {
    if (units[u].lost)
      erased_idx[num_erased++] = u;
    else
      txn.add(Physical{units[u].unit.disk, units[u].unit.offset + lift}, u);
  }
  if (Status loaded = gather(txn, IoClass::kScrub, false); !loaded.ok())
    return loaded;

  // Classify: present units whose stored checksum disagrees with their
  // bytes are erased too (detected rot).  Rot the caller's transaction
  // already found (and counted) is not counted again.  Unverified units
  // pass and are adopted below.
  (void)verify_units(txn, 0, txn.size(), counted);
  std::array<bool, 64> bad{};
  std::uint32_t num_bad = 0;
  for (std::uint32_t g = 0; g < txn.size(); ++g) {
    if (txn.status(g).ok()) continue;
    bad[g] = true;
    erased_idx[num_erased++] = txn.buf.index[g];
    ++num_bad;
  }
  if (report) report->mismatches += num_bad;

  if (num_erased > m) {
    sync_->crc_unhealable.fetch_add(1, std::memory_order_relaxed);
    if (report) ++report->unhealable;
    return Status::checksum_mismatch(
        "stripe " + std::to_string(stripe) + " iteration " +
        std::to_string(iteration) + ": " + std::to_string(num_bad) +
        " checksum-bad unit(s) plus " + std::to_string(num_erased - num_bad) +
        " lost unit(s) exceed the codec's tolerance of " + std::to_string(m));
  }

  if (num_bad > 0) {
    // Mismatch == erasure: reconstruct each bad unit from the good
    // survivors (lost units stay erased but unmaterialized) and commit
    // it with a fresh checksum -- one journaled record, so a crash
    // mid-heal replays whole.
    std::array<std::span<const std::uint8_t>, 64> survivors;
    std::array<std::uint32_t, 64> survivor_idx;
    std::uint32_t ns = 0;
    for (std::uint32_t g = 0; g < txn.size(); ++g)
      if (!bad[g]) {
        survivors[ns] = txn.bytes(g);
        survivor_idx[ns++] = txn.buf.index[g];
      }
    const auto healed = txn.scratch(num_bad);
    std::array<std::span<std::uint8_t>, api::kMaxParityUnits> outs{};
    std::uint32_t e = num_erased - num_bad;  // the bad units' first entry
    for (std::uint32_t g = 0, k = 0; g < txn.size(); ++g)
      if (bad[g]) {
        outs[e] = unit_slice(healed, k++, unit_bytes_);
        txn.write(g, outs[e++]);
      }
    codec.reconstruct(kd, {survivors.data(), ns}, {survivor_idx.data(), ns},
                      {erased_idx.data(), num_erased},
                      {outs.data(), num_erased});
    if (Status stored = commit(txn, instance, IoClass::kScrub); !stored.ok())
      return stored;
    sync_->crc_healed.fetch_add(num_bad, std::memory_order_relaxed);
    if (report) report->healed += num_bad;
  }

  // Adopt unverified good units: their current bytes become the claim,
  // so future reads of them are actually verified.
  for (std::uint32_t g = 0; g < txn.size(); ++g) {
    const Physical p = txn.unit(g);
    if (bad[g] || crc_[p.disk][p.offset] != 0) continue;
    const std::uint32_t crc = core::crc32c_nonzero(txn.bytes(g));
    std::array<std::uint8_t, 4> word;
    std::memcpy(word.data(), &crc, 4);
    if (Status persisted =
            backend_->write(p.disk, crc_media_offset(p.offset), word);
        !persisted.ok())
      return persisted;
    crc_[p.disk][p.offset] = crc;
    sync_->crc_adopted.fetch_add(1, std::memory_order_relaxed);
  }
  return OkStatus();
}

Result<ScrubReport> StripeStore::scrub_some(std::uint64_t max_instances) {
  ScrubReport report;
  if (!integrity_) return report;
  const std::uint64_t total =
      static_cast<std::uint64_t>(array_.num_stripes()) * iterations_;
  for (std::uint64_t i = 0; i < max_instances; ++i) {
    const std::uint64_t instance =
        sync_->scrub_cursor.fetch_add(1, std::memory_order_relaxed) % total;
    const std::uint32_t stripe =
        static_cast<std::uint32_t>(instance % array_.num_stripes());
    const std::uint32_t iteration =
        static_cast<std::uint32_t>(instance / array_.num_stripes());
    std::shared_lock state(sync_->state);
    std::unique_lock shard(sync_->shards[instance % sync_->shards.size()]);
    const Status healed = heal_instance_locked(stripe, iteration, &report);
    ++report.instances;
    sync_->scrubbed.fetch_add(1, std::memory_order_relaxed);
    // Rot past tolerance and torn instances are counted, not fatal (the
    // sweep continues); only substrate errors abort the slice.
    if (!healed.ok() && healed.code() != StatusCode::kChecksumMismatch &&
        healed.code() != StatusCode::kParityInconsistent)
      return healed;
  }
  return report;
}

Result<ScrubReport> StripeStore::scrub() {
  return scrub_some(static_cast<std::uint64_t>(array_.num_stripes()) *
                    iterations_);
}

Result<std::uint64_t> StripeStore::verify_stripes() {
  std::unique_lock lock(sync_->state);
  // Media is only a consistent code word modulo the dirty table: fold
  // everything first so the sweep verifies the real current state.
  if (Status flushed = flush_dirty(); !flushed.ok())
    return flushed;
  const core::Codec& codec = array_.codec();
  const std::uint32_t m = array_.num_parity_units();
  std::uint64_t inconsistent = 0;
  std::array<api::Array::StripeUnitStatus, 64> units;
  for (std::uint32_t stripe = 0; stripe < array_.num_stripes(); ++stripe) {
    const auto width_r = array_.stripe_units(stripe, units);
    if (!width_r.ok()) return width_r.status();
    const std::uint32_t width = *width_r;
    const std::uint32_t kd = width - m;
    bool complete = true;
    for (std::uint32_t u = 0; u < width; ++u)
      if (units[u].lost) complete = false;
    if (!complete) continue;  // degraded stripes cannot be byte-verified
    for (std::uint32_t it = 0; it < iterations_; ++it) {
      const std::uint64_t lift =
          static_cast<std::uint64_t>(it) * array_.units_per_disk();
      Txn txn(unit_bytes_);
      for (std::uint32_t u = 0; u < width; ++u)
        txn.add(Physical{units[u].unit.disk, units[u].unit.offset + lift});
      if (Status loaded = gather(txn, IoClass::kScrub, false); !loaded.ok())
        return loaded;
      bool bad = is_torn(stripe +
                         static_cast<std::uint64_t>(it) * array_.num_stripes());
      for (std::uint32_t u = 0; u < width && integrity_; ++u) {
        const std::uint32_t stored = crc_[txn.unit(u).disk][txn.unit(u).offset];
        if (stored != 0 && core::crc32c_nonzero(txn.bytes(u)) != stored)
          bad = true;
      }
      // Parity must re-encode byte-identically from the stored data.
      const auto scratch = txn.scratch(m);
      std::array<std::span<std::uint8_t>, api::kMaxParityUnits> expect{};
      for (std::uint32_t j = 0; j < m; ++j)
        expect[j] = unit_slice(scratch, j, unit_bytes_);
      codec.encode(txn.bytes(0, kd), {expect.data(), m});
      for (std::uint32_t j = 0; j < m; ++j)
        if (std::memcmp(expect[j].data(), txn.bytes(kd + j).data(),
                        unit_bytes_) != 0)
          bad = true;
      if (bad) ++inconsistent;
    }
  }
  return inconsistent;
}

}  // namespace pdl::io
