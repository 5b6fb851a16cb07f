#pragma once
/// @file
/// pdl::io::StripeStore -- the byte-moving data path.
///
/// Everything below src/io counts unit accesses; this class actually moves
/// bytes.  A StripeStore owns a pdl::api::Array (the layout, mapping
/// tables, and online failure state) plus a DiskBackend (the storage
/// substrate -- in-memory buffers, one file per disk, or any future
/// substrate), and routes every logical read/write through Array::locate /
/// Array::plan_write:
///
///   * healthy reads copy the unit's bytes straight out of its home disk;
///   * degraded reads decode the survivor units into the caller's buffer
///     through the array's core::Codec (XOR parity: Figure 1's "any
///     single lost unit is the XOR of the survivors"; Reed-Solomon P+Q:
///     a GF(2^8) two-erasure decode -- both executed for real);
///   * small writes do a real read-modify-write delta fold into every
///     surviving parity (parity ^= c * (old ^ new)), a reconstruct-write
///     when the data unit is lost (surviving parities re-encoded from
///     the peers, decoding any second erased unit first), or an
///     unprotected data write when every parity unit is lost;
///   * fail_disk physically destroys the disk's contents (poison fill),
///     replace_disk attaches zeroed platters, and rebuild() regenerates
///     every lost unit from survivor bytes into its spare or replacement
///     slot -- under Reed-Solomon through TWO concurrent disk failures --
///     after which the store serves the exact bytes written before the
///     failure (checksum-identical for in-place rebuilds).
///
/// Torn parity: when a write's rollback itself fails (two substrate
/// faults inside one commit), the stripe instance's parity no longer
/// matches its data.  The store marks the instance TORN and every
/// parity-trusting operation on it (degraded reads, RMW, rebuild of a
/// data unit) returns a typed kParityInconsistent Status instead of
/// serving silently-wrong reconstructions; rebuild sets such a stripe
/// aside and rebuilds the rest of the disk.  A later successful write to
/// the instance (or, with the stripe cache on, a fold of its absorbed
/// writes) heals it: the store re-encodes every surviving parity from
/// the full data set and clears the flag.
///
/// Backends: every byte path is one stripe transaction.  Its gather
/// reads the units the path needs in one batched submission (checking
/// their checksums when asked); its commit lands the new units and
/// their checksums as one journaled batch and, if that batch fails
/// partway, rewrites every landed unit from the gathered old bytes (see
/// docs/ARCHITECTURE.md "Stripe transactions").  Only the gather knows
/// about zero-copy memory views (MemoryBackend): there its spans point
/// straight into the disk images, so reads, degraded decodes, the old
/// bytes of a small write and rebuild survivors cost no copy and no
/// backend call.  Every write crosses DiskBackend::execute_batch on
/// every backend, and substrate errors surface as typed kIoError
/// Statuses from the store's own calls.  A store re-created over a
/// persistent backend's existing image (file reopen) serves the bytes a
/// previous process wrote -- parity was maintained write-by-write, so
/// degraded reads and rebuilds work across restarts.
///
/// Concurrency: the store layers the readers-writer discipline that
/// api::Array's external-synchronization contract asks for.  A
/// shared_mutex guards the array's online state (read/write take it
/// shared; fail/replace take it exclusive), and a fixed pool of
/// stripe-instance rw-locks -- sharded by (stripe, iteration) -- keeps
/// parity updates atomic with their data writes: writers hold a stripe's
/// shard exclusively, while readers (and rebuild staging, which only
/// reads survivors) hold it shared, so reads of the same stripe proceed
/// in parallel and only writer/reader pairs exclude each other.  Lock
/// order is always state-then-shard; shard locks are only ever taken
/// together in one sorted pass (read_batch, rebuild staging), so the
/// scheme is deadlock-free.  The same sharding is what discharges the
/// backend's "overlapping writes are externally serialized" demand.
///
/// Online rebuild plans once per failure state and hands the kept steps
/// out in chunks.  It stages each chunk's survivor fan-in under the
/// SHARED state lock (plus the steps' stripe shard locks, also shared),
/// so foreground reads and writes keep submitting while rebuild reads
/// sit in the same disk queues -- this is what makes an IoScheduler's
/// rebuild policy observable.  The commit (target writes + array state
/// transition) re-takes the exclusive lock and validates via a global
/// write-epoch counter that no write / fail / replace / other commit
/// landed since the chunk was claimed; on an invalidated stage the
/// chunk goes back to the kept steps and the next one is applied under
/// the exclusive lock, so progress is always guaranteed.  Writes leave
/// the kept steps valid; only fail_disk and replace_disk drop them.
/// A chunk that moves enough bytes splits the byte work of both halves
/// -- the survivor CRC checks and decodes, then the target writes --
/// over parallel_for's lanes (io/parallel_for.hpp), one contiguous
/// range of stripe instances each.  The rebuilder's thread holds the
/// locks across each round and the lanes take none; the gather, the
/// epoch check, the integrity counting and the state transition stay
/// on that thread.
///
/// Address space: logical units 0 .. num_logical_units()-1, each
/// unit_bytes() wide; the layout tiles vertically `iterations` times, so
/// num_logical_units() = Array::data_units_per_iteration() * iterations.

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <unordered_set>
#include <vector>

#include "api/array.hpp"
#include "core/status.hpp"
#include "io/disk_backend.hpp"
#include "io/stripe_cache.hpp"

namespace pdl::io {

using api::Physical;
using layout::DiskId;

/// Monotonic counters of the end-to-end integrity layer.  All zero when
/// the store's array was created without api::ArrayOptions::integrity.
struct IntegrityStats {
  std::uint64_t verified = 0;    ///< unit checks whose checksum matched
  std::uint64_t mismatches = 0;  ///< checksum mismatches detected
  std::uint64_t healed = 0;      ///< units reconstructed and rewritten
  std::uint64_t unhealable = 0;  ///< heal attempts past codec tolerance
  std::uint64_t adopted = 0;     ///< unverified units given a checksum
  std::uint64_t scrubbed = 0;    ///< stripe instances swept by scrub
};

/// What one scrub slice (scrub_some) actually did.
struct ScrubReport {
  std::uint64_t instances = 0;   ///< stripe instances swept
  std::uint64_t mismatches = 0;  ///< bad units found
  std::uint64_t healed = 0;      ///< bad units healed in place
  std::uint64_t unhealable = 0;  ///< instances past codec tolerance
  std::uint64_t skipped = 0;     ///< parity-torn instances left alone
};

/// Construction knobs for StripeStore::create.
struct StripeStoreOptions {
  /// Bytes per stripe unit (the store's I/O granularity).
  std::uint32_t unit_bytes = 4096;
  /// Vertical layout repetitions per disk (disk capacity multiplier).
  std::uint32_t iterations = 1;
  /// Workload-aware cache layer (hotness tracking, hot-unit read cache,
  /// parity-delta write batching).  Off by default; see
  /// docs/ARCHITECTURE.md "Caching and write batching".
  StripeCacheOptions cache = {};
};

/// What one read physically did: its resolution kind and every unit it
/// touched (the direct target, or the survivor set XORed together).
/// Inline storage -- filling a receipt never allocates.
struct ReadReceipt {
  /// How the read resolved under the failure state at serving time.
  api::ReadPlan::Kind kind = api::ReadPlan::Kind::kDirect;
  /// Valid prefix length of `touched`.
  std::uint32_t num_touched = 0;
  std::array<Physical, 64> touched;  ///< first num_touched are valid

  /// The units actually touched, as a span over the inline storage.
  [[nodiscard]] std::span<const Physical> units() const noexcept {
    return {touched.data(), num_touched};
  }
};

/// What one write physically did: the units it read and the units it
/// wrote under the parity-update strategy plan_write selected.
struct WriteReceipt {
  /// Which parity-maintenance strategy the write used.
  api::WritePlan::Kind kind = api::WritePlan::Kind::kReadModifyWrite;
  /// Valid prefix length of `reads`.
  std::uint32_t num_reads = 0;
  /// Valid prefix length of `writes`.
  std::uint32_t num_writes = 0;
  std::array<Physical, 64> reads;  ///< first num_reads are valid
  /// First num_writes are valid: the data unit and every maintained
  /// parity (one under XOR, up to api::kMaxParityUnits under RS).
  std::array<Physical, 1 + api::kMaxParityUnits> writes;
};

/// The byte-serving engine: one api::Array (layout + online state) bound
/// to one DiskBackend (the bytes), with parity maintained on every write
/// and reconstruction executed on real bytes.  See the file comment for
/// the full data-path and concurrency story.
class StripeStore {
 public:
  /// Binds a (healthy) array to a backend and opens the backend with the
  /// derived geometry.  A null backend means a fresh MemoryBackend (the
  /// zero-dependency default).  kInvalidArgument for zero
  /// unit_bytes/iterations; kFailedPrecondition for an array already
  /// carrying failure state (a fresh backend's zero-filled disks are only
  /// parity-consistent with a healthy array -- a reopened persistent
  /// image is parity-consistent because the previous store maintained it
  /// write-by-write); any backend open() failure is passed through.
  [[nodiscard]] static Result<StripeStore> create(
      api::Array array, const StripeStoreOptions& options = {},
      std::unique_ptr<DiskBackend> backend = nullptr);

  // ------------------------------------------------------------ geometry

  /// Logical units addressable through the store.
  [[nodiscard]] std::uint64_t num_logical_units() const noexcept {
    return array_.capacity_units(iterations_);
  }
  /// Bytes per logical unit (the I/O granularity).
  [[nodiscard]] std::uint32_t unit_bytes() const noexcept {
    return unit_bytes_;
  }
  /// Logical byte capacity of the store (num_logical_units x unit_bytes
  /// -- the extent of addressable user bytes, e.g. for a fleet router
  /// sizing shard extents).
  [[nodiscard]] std::uint64_t logical_bytes() const noexcept {
    return array_.capacity_bytes(unit_bytes_, iterations_);
  }
  /// Vertical layout repetitions per disk.
  [[nodiscard]] std::uint32_t iterations() const noexcept {
    return iterations_;
  }
  /// Bytes per physical disk image.
  [[nodiscard]] std::uint64_t disk_bytes() const noexcept {
    return array_.disk_bytes(unit_bytes_, iterations_);
  }
  /// The owned array's read-only surface.  Do NOT mutate the array's
  /// online state behind the store's back -- use the store's own
  /// fail_disk / replace_disk / rebuild, which keep bytes and state in
  /// lockstep under the store's locks.
  [[nodiscard]] const api::Array& array() const noexcept { return array_; }
  /// The owned storage substrate.  Do NOT write through it behind the
  /// store's back; read-only surfaces (name(), stats on a decorator) are
  /// fair game.
  [[nodiscard]] DiskBackend& backend() noexcept { return *backend_; }

  // ----------------------------------------------------------- data path

  /// Reads one logical unit into `out` (exactly unit_bytes() wide).
  /// Degraded units are reconstructed from survivor bytes on the fly.
  /// kOutOfRange past the address space, kInvalidArgument for a wrong
  /// buffer size, kDataLoss when the unit's stripe lost two units,
  /// kIoError passed through from the backend (possibly transient --
  /// retrying is safe, reads don't mutate).  On any non-OK status the
  /// contents of `out` are unspecified.  Thread-safe against concurrent
  /// read/write.
  [[nodiscard]] Status read(std::uint64_t logical,
                            std::span<std::uint8_t> out,
                            ReadReceipt* receipt = nullptr);

  /// Reads many logical units in ONE batched backend submission:
  /// `out` is logicals.size() unit-slices back to back, `statuses[i]`
  /// receives unit i's individual outcome (the per-unit contract of
  /// read(): kOutOfRange, kDataLoss, kIoError, ...), and the return
  /// value is the first non-OK status (OkStatus when every unit was
  /// served).  One failed unit does not veto its batchmates.  Every
  /// direct target and every degraded survivor set across the whole
  /// batch is gathered into a single DiskBackend::execute_batch call,
  /// so an async backend sees the full fan-out at once -- this is the
  /// driver-facing path that turns queue_depth into real in-flight
  /// parallelism.  `receipts`, when non-empty, must be
  /// logicals.size() long.  Thread-safe against concurrent read/write.
  [[nodiscard]] Status read_batch(std::span<const std::uint64_t> logicals,
                                  std::span<std::uint8_t> out,
                                  std::span<Status> statuses,
                                  std::span<ReadReceipt> receipts = {});

  /// Writes one logical unit from `data` (exactly unit_bytes() wide),
  /// keeping parity consistent via RMW / reconstruct-write / unprotected
  /// write as the failure state dictates.  Error contract mirrors read(),
  /// with one addition: when the data write of an RMW fails after the
  /// new parity already landed, the store rolls the parity back to its
  /// pre-write value before returning the kIoError, so the stripe is
  /// consistent and retrying the write is safe.  A second substrate
  /// failure during that rollback (the window a crash leaves on real
  /// arrays) marks the stripe instance TORN and returns
  /// kParityInconsistent; parity-trusting operations on the instance
  /// keep returning kParityInconsistent until a successful write to it
  /// heals the parity (full re-encode).  Thread-safe against concurrent
  /// read/write.
  [[nodiscard]] Status write(std::uint64_t logical,
                             std::span<const std::uint8_t> data,
                             WriteReceipt* receipt = nullptr);

  /// Flushes every disk to the backend's durability point (fdatasync per
  /// image file for FileBackend; no-op for memory).
  [[nodiscard]] Status sync();

  // ------------------------------------------- failure & rebuild (bytes)

  /// Marks the disk failed and physically destroys its contents (poison
  /// fill), so any buggy read from it would be caught byte-wise.
  [[nodiscard]] Status fail_disk(DiskId disk);

  /// Attaches zero-filled replacement platters to a failed disk.
  [[nodiscard]] Status replace_disk(DiskId disk);

  /// Regenerates up to max_steps lost stripes (every iteration of each)
  /// from survivor bytes into their spare/replacement slots, then
  /// advances the array's rebuild state.  Returns the number of stripes
  /// repaired; 0 means nothing is currently rebuildable (`blocked`, when
  /// given, receives the count still waiting on replace_disk, from the
  /// plan the call's steps came from).  The store plans once per failure
  /// state and keeps the steps it has not applied: calls take their
  /// chunks from them in plan order, and a chunk that does not commit
  /// (moved epoch, torn instance, rot, error) goes back, so a drain of
  /// rebuild_some(1) calls makes rebuild()'s choices and plans O(1)
  /// times, with or without foreground writes.  It plans again only
  /// when fail_disk or replace_disk ran or the kept steps are used up.
  /// A stripe whose
  /// lost data would decode through a parity-torn instance is set aside
  /// and every other stripe is rebuilt; a call that can rebuild nothing
  /// because only such stripes are left returns kParityInconsistent.
  /// Each chunk's survivor fan-in runs under the SHARED state lock --
  /// foreground reads and writes proceed concurrently with rebuild I/O,
  /// competing in the backend's disk queues -- and each stripe
  /// instance's survivors are CRC-checked right before its decode; only
  /// the short commit (target writes + state transition) excludes
  /// foreground traffic.  A chunk that moves enough bytes splits its
  /// instances' checks, decodes and target writes over parallel_for's
  /// lanes, one contiguous range each, while the calling thread holds
  /// the locks; a second rebuilder that finds the lanes busy does its
  /// chunk on its own thread.  See the file comment for the validation
  /// protocol.  Drive it from one or more rebuilder threads for online
  /// rebuild.
  [[nodiscard]] Result<std::uint64_t> rebuild_some(
      std::uint64_t max_steps, std::uint64_t* blocked = nullptr);

  /// rebuild_some until quiescent: everything rebuildable without
  /// further replace_disk calls is rebuilt.
  [[nodiscard]] Result<api::RebuildOutcome> rebuild();

  // -------------------------------------------------------- verification

  /// FNV-1a 64 over the disk's raw bytes (failure-state agnostic).
  /// kIoError passed through from the backend.
  [[nodiscard]] Result<std::uint64_t> checksum_disk(DiskId disk) const;
  /// checksum_disk for every disk, in disk order, under ONE exclusive
  /// lock -- the vector is a cross-disk-consistent snapshot.
  [[nodiscard]] Result<std::vector<std::uint64_t>> checksum_disks() const;

  // ----------------------------------------------------------- integrity

  /// Whether the per-unit CRC32C layer is active (the bound array was
  /// created with api::ArrayOptions::integrity).  When active, every
  /// read path verifies the touched units against a per-disk checksum
  /// region appended after the data region, a mismatch is treated as an
  /// erasure and healed through the codec, and every store refreshes
  /// the written units' checksums.
  [[nodiscard]] bool integrity() const noexcept { return integrity_; }

  /// Snapshot of the integrity counters (verify / mismatch / heal /
  /// scrub activity since create).
  [[nodiscard]] IntegrityStats integrity_stats() const noexcept;

  /// Sweeps up to max_instances stripe instances from a persistent
  /// cursor (wrapping), verifying every present unit's checksum under
  /// kScrub-tagged reads and healing mismatches in place through the
  /// codec.  Unverified units (checksum 0: written before the layer
  /// existed, or a replaced disk's zeroed platters) are ADOPTED -- given
  /// a checksum over their current bytes.  Torn instances are skipped
  /// (a successful write heals them); unhealable instances (rot beyond
  /// the codec's tolerance) are counted and left for rebuild.  A no-op
  /// (empty report) when integrity is off.  Thread-safe and unpaced;
  /// fleet::Fleet::scrub_some is the driver that charges each slice to
  /// a rebuild-bandwidth governor.
  [[nodiscard]] Result<ScrubReport> scrub_some(std::uint64_t max_instances);

  /// One full scrub cycle: every stripe instance swept exactly once.
  [[nodiscard]] Result<ScrubReport> scrub();

  /// Counts stripe instances whose stored parity does NOT byte-identical
  /// re-encode from their stored data (plus any instance still marked
  /// torn), under one exclusive lock.  Degraded stripes (a lost unit)
  /// are skipped -- they cannot be byte-verified.  0 on a consistent
  /// store; the crash-recovery harness's acceptance check.
  [[nodiscard]] Result<std::uint64_t> verify_stripes();

  // ------------------------------------------------------------- cache

  /// Whether the workload-aware cache layer is active
  /// (StripeStoreOptions::cache.enabled at create).
  [[nodiscard]] bool cache_enabled() const noexcept {
    return cache_ != nullptr;
  }

  /// Snapshot of the cache layer's counters (all zero when disabled).
  [[nodiscard]] HotnessStats hotness_stats() const noexcept {
    return cache_ ? cache_->stats() : HotnessStats{};
  }

  /// Folds every dirty stripe instance's batched parity deltas (and
  /// pinned data) to media, one journaled batch per instance.  A no-op
  /// without the cache layer.  sync(), fail_disk(), and
  /// verify_stripes() flush implicitly; call this before comparing
  /// media checksums against an uncached store.  Thread-safe.
  [[nodiscard]] Status flush_cache();

  // ------------------------------------------------------- torn parity

  /// Stripe instances currently marked parity-torn (see the file
  /// comment).  0 on the happy path.
  [[nodiscard]] std::uint64_t torn_parity_instances() const noexcept {
    return sync_->torn_count.load(std::memory_order_relaxed);
  }
  /// Whether one (stripe, iteration) instance is marked parity-torn.
  [[nodiscard]] bool parity_torn(std::uint32_t stripe,
                                 std::uint64_t iteration) const;

 private:
  StripeStore(api::Array array, const StripeStoreOptions& options,
              std::unique_ptr<DiskBackend> backend);

  /// Byte offset of a physical unit within its disk image.
  [[nodiscard]] std::uint64_t byte_offset(std::uint64_t unit_offset)
      const noexcept {
    return unit_offset * unit_bytes_;
  }
  [[nodiscard]] std::shared_mutex& shard_for(std::uint64_t logical) noexcept;
  /// The (stripe, iteration) instance key of a logical unit -- the torn
  /// set's and the shard hash's common currency.
  [[nodiscard]] std::uint64_t instance_of(std::uint64_t logical)
      const noexcept;
  [[nodiscard]] bool is_torn(std::uint64_t instance) const;
  void mark_torn(std::uint64_t instance);
  void clear_torn(std::uint64_t instance);

  // ---------------------------------------------- the stripe transaction

  /// One stripe transaction's working set: the units it gathers, their
  /// bytes and outcomes, scratch for the bytes it computes, and the
  /// writes its commit lands.  Defined in the .cpp; every byte path of
  /// the store runs on one.
  struct Txn;
  /// The gather step: reads every unit queued on `txn` in ONE batched
  /// submission and points txn's byte spans at them -- straight into the
  /// disk image on a backend with memory views (no copy, no backend
  /// call), into the transaction's staging buffer otherwise.  With
  /// `verify`, verify_units checks every unit.  Records every unit's own
  /// outcome (kIoError, kChecksumMismatch) on the transaction and
  /// returns the first failure.  The only reader of views_ besides
  /// create().
  [[nodiscard]] Status gather(Txn& txn, IoClass io_class, bool verify);
  /// The one checksum check of gathered bytes: verifies txn's units
  /// [first, first + count) against their cached CRCs, skipping units
  /// whose gather failed and unverified units (stored checksum 0).
  /// Records each mismatch on the transaction and returns the first.
  /// Each rotten unit counts once in IntegrityStats::mismatches: not
  /// again when txn gathered it twice, nor when `counted` -- the
  /// transaction of the read, write or rebuild whose check led to this
  /// one -- already found it.  `taken`, when not empty, holds each
  /// unit's CRC by transaction index, already computed (rebuild
  /// staging's lanes take them); otherwise they are computed here.
  /// No-op when the layer is off.
  [[nodiscard]] Status verify_units(Txn& txn, std::size_t first,
                                    std::size_t count,
                                    const Txn* counted = nullptr,
                                    std::span<const std::uint32_t> taken = {});
  /// gather(verify=true) for a caller holding `instance` exclusively:
  /// rot in the gathered units is healed through the codec
  /// (heal_instance_locked, which does not count it again) and the
  /// units are gathered once more.  Unhealable rot surfaces as the
  /// first gather's kChecksumMismatch.
  [[nodiscard]] Status gather_healed(Txn& txn, IoClass io_class,
                                     std::uint64_t instance);
  /// The commit step: writes txn's queued (unit, new bytes) pairs in
  /// order, then each unit's CRC word, as ONE journaled batch, and
  /// records the new CRCs.  When the batch fails partway it rewrites
  /// every landed unit from its gathered old bytes and restores every
  /// landed CRC word, then returns the batch's error; when that rollback
  /// fails too it marks `instance` torn and returns kParityInconsistent.
  /// Every commit bumps the write epoch.
  [[nodiscard]] Status commit(Txn& txn, std::uint64_t instance,
                              IoClass io_class);
  /// execute_batch through the backend's write-ahead journal when it
  /// has one: the record is durable before the in-place writes start
  /// and retired after they finish, closing the crash-mid-RMW hole.
  [[nodiscard]] Status execute_batch_journaled(std::span<IoRequest> batch);
  /// Appends one CRC-word write per unit write in txn's batch, from the
  /// words the caller put in the transaction (commit computes them over
  /// the new bytes; rebuild staging takes each rebuilt unit's word while
  /// the unit is hot).  The checksums ride in the SAME batch -- and the
  /// same journal record -- as the units, so replay restores units and
  /// checksums together.  No-op when the layer is off.
  void stage_crc_words(Txn& txn, IoClass io_class);
  /// Adopts the staged CRC words into the cache once their batch landed.
  void record_crc_words(const Txn& txn);

  // ------------------------------------------------------- byte paths

  /// One logical unit of a read (read()'s and read_batch's bookkeeping).
  struct ReadSlot;
  /// read() and read_batch()'s shared body: plans every logical, serves
  /// cache hits, gathers every direct target and degraded survivor in
  /// `txn`, then copies or decodes each unit into `out`.  Caller holds
  /// the state lock (shared or exclusive) and, when shared, every
  /// involved shard lock; slots, statuses and (when non-empty) receipts
  /// parallel logicals.  kChecksumMismatch (internal sentinel) marks a
  /// unit whose bytes failed verification -- the public calls heal,
  /// passing `txn` so its rot is not counted again, and retry before
  /// surfacing it.
  [[nodiscard]] Status read_locked(Txn& txn,
                                   std::span<const std::uint64_t> logicals,
                                   std::span<std::uint8_t> out,
                                   std::span<Status> statuses,
                                   std::span<ReadReceipt> receipts,
                                   std::span<ReadSlot> slots);
  /// write()'s plan-and-dispatch body; caller holds the state lock
  /// (shared) and the logical's shard lock (exclusive).  A unit loaded
  /// for parity maintenance that fails verification is healed in place
  /// (gather_healed); kChecksumMismatch when it cannot be.
  [[nodiscard]] Status write_locked(std::uint64_t logical,
                                    std::span<const std::uint8_t> data,
                                    WriteReceipt* receipt);
  /// Read-modify-write: gathers the old data and every surviving parity,
  /// computes each new parity in one fused Codec::update_into pass, and
  /// commits data then parities.  Caller holds write_locked's locks.
  [[nodiscard]] Status write_rmw(const api::WritePlan& plan,
                                 std::span<const std::uint8_t> data,
                                 std::uint64_t instance,
                                 WriteReceipt* receipt);
  /// Full-stripe re-encode, the one path that rewrites parity from a
  /// complete data set: reconstruct-writes, torn RMWs and torn cache
  /// folds.  `fresh[i]` holds data unit i's new bytes (empty or past the
  /// end: none).  Gathers every present unit of the instance in codec
  /// order through Array::stripe_units, CRC-checked unless the instance
  /// is torn; decodes any lost data unit without new bytes; encodes
  /// every parity; and commits the present new data units and every
  /// surviving parity as one transaction, clearing the torn flag once it
  /// lands.  kParityInconsistent (instance stays torn) when a torn
  /// instance lost a data unit.  Caller holds the state lock and the
  /// instance's shard lock exclusively.
  [[nodiscard]] Status reencode_locked(
      std::uint64_t instance,
      std::span<const std::span<const std::uint8_t>> fresh,
      WriteReceipt* receipt);
  /// Whether a rebuild step decodes data through a parity-torn instance
  /// of its stripe, which rebuild must set aside.
  [[nodiscard]] bool step_trusts_torn(const api::RebuildStep& step) const;
  /// Rebuild staging: gathers every survivor of every step (all
  /// iterations) in one kRebuild-tagged transaction, then makes one
  /// pass per stripe instance, split over parallel_for lanes in
  /// contiguous ranges of instances: a lane checks the instance's
  /// survivors' CRCs and decodes its target into the instance's slice
  /// of the transaction's scratch, taking the target's CRC word while
  /// the bytes are hot.  The checks are counted after the join, in
  /// index order (verify_units).  The transaction must stay alive
  /// through commit_steps.  kChecksumMismatch when any instance's
  /// survivors failed verification (each mismatch stays recorded for
  /// heal_staged).  Caller holds the state lock (shared or exclusive)
  /// and, when shared, the steps' stripe shard locks, across the whole
  /// call; the lanes take no locks.
  [[nodiscard]] Status stage_steps(Txn& txn,
                                   std::span<const api::RebuildStep> steps);
  /// Rebuild commit: writes the staged targets and the CRC words
  /// stage_steps took -- each of stage_steps' lanes passes its slice of
  /// both to the backend -- not journaled and not rolled back: a target
  /// is not a content unit until its step is applied, and rebuild
  /// re-runs.  After the join it records the CRC words, bumps the write
  /// epoch and advances the array's rebuild state.  Caller holds the
  /// exclusive state lock and has validated the steps (or never
  /// released the lock).
  [[nodiscard]] Status commit_steps(Txn& txn,
                                    std::span<const api::RebuildStep> steps);
  /// stage_steps + commit_steps with one heal-and-restage round on
  /// detected rot; caller holds the exclusive state lock.
  [[nodiscard]] Status apply_steps_locked(
      std::span<const api::RebuildStep> steps);
  /// Heals every stripe instance whose staged survivors failed
  /// verification in `txn`; caller holds the exclusive state lock.
  /// Returns the first heal failure.
  [[nodiscard]] Status heal_staged(const Txn& txn,
                                   std::span<const api::RebuildStep> steps);
  /// Moves up to `max` kept rebuild steps into `chunk`, in plan order,
  /// planning again first when none are kept (and only for an empty
  /// chunk).  Steps whose unit is no longer lost are dropped, and so
  /// are steps that would decode data through a parity-torn instance;
  /// returns how many of the latter, counted from the latest plan.
  /// Caller holds the exclusive state lock.
  [[nodiscard]] Result<std::size_t> claim_steps_locked(
      std::size_t max, std::vector<api::RebuildStep>& chunk);
  /// Puts claimed, unapplied steps back at the front of the kept plan,
  /// in order -- unless `gen`, the kept_gen_ of their claim, is stale:
  /// then a fail or replace made them stale, or a fresh plan lists them
  /// again.  Caller holds the exclusive state lock.
  void unclaim_steps_locked(std::span<api::RebuildStep> steps,
                            std::uint64_t gen);
  /// checksum_disk's body; caller holds the exclusive state lock.
  [[nodiscard]] Result<std::uint64_t> checksum_disk_locked(DiskId disk) const;

  // ------------------------------------------------- integrity internals

  /// Byte offset of a unit's stored checksum within its disk's media
  /// (the checksum region starts at crc_base_ == disk_bytes()).
  [[nodiscard]] std::uint64_t crc_media_offset(std::uint64_t unit_offset)
      const noexcept {
    return crc_base_ + unit_offset * 4;
  }
  /// Verifies every present unit of one stripe instance and
  /// reconstructs + rewrites the mismatching ones through the codec
  /// (mismatch == erasure; healable while lost + bad <= m).  Unverified
  /// units are adopted.  `counted` is the transaction whose check found
  /// the rot (none for scrub): units it already found are not counted
  /// again.  Caller holds the state lock (shared or exclusive) and,
  /// when shared, the instance's shard lock exclusively.
  /// kParityInconsistent for torn instances, kChecksumMismatch when rot
  /// exceeds the codec's tolerance.
  [[nodiscard]] Status heal_instance_locked(std::uint32_t stripe,
                                            std::uint32_t iteration,
                                            ScrubReport* report,
                                            const Txn* counted = nullptr);
  /// Zeroes a discarded disk's checksum cache and media region
  /// ("unverified"); caller holds the exclusive state lock.
  [[nodiscard]] Status reset_disk_crcs(DiskId disk);

  // ----------------------------------------------------- cache internals

  /// Absorbs an RMW write into the dirty-delta table when the instance
  /// is hot (or already dirty): pins the new bytes, accumulates the
  /// codec delta per surviving parity, and touches NO media except a
  /// possible pre-image read.  Sets *handled=false (and returns OK)
  /// when the write should fall through to the immediate RMW path
  /// (cold instance, table full).  Caller holds write_locked's locks;
  /// plan must be a zero-erasure kReadModifyWrite on a non-torn
  /// instance.  Folds inline when the entry hits max_dirty_units.
  [[nodiscard]] Status absorb_rmw(const api::WritePlan& plan,
                                  std::uint64_t logical,
                                  std::span<const std::uint8_t> data,
                                  std::uint64_t instance,
                                  WriteReceipt* receipt, bool* handled);
  /// Folds one dirty instance to media: one committed batch writing
  /// every pinned data unit plus each parity's old bytes XOR its
  /// accumulated delta (linearity makes that byte-identical to per-op
  /// RMW); a torn instance is re-encoded instead (reencode_locked, with
  /// the pinned bytes as its new data).  A failed commit rolls back to
  /// the pre-fold image (entry kept -- the deltas stay valid) or marks
  /// the instance torn.  Rotten pre-images are healed in place
  /// (gather_healed); kChecksumMismatch when they cannot be, with the
  /// entry kept.  Caller holds the state
  /// lock (shared, with the instance's shard lock exclusive) or the
  /// exclusive state lock.
  [[nodiscard]] Status fold_instance_locked(std::uint64_t instance);
  /// Folds every dirty instance, taking each instance's shard lock
  /// exclusively in turn (uncontended under the exclusive state lock);
  /// caller holds the state lock, shared or exclusive.
  [[nodiscard]] Status flush_dirty();

  api::Array array_;
  std::uint32_t unit_bytes_ = 0;
  std::uint32_t iterations_ = 0;
  std::unique_ptr<DiskBackend> backend_;
  /// Cached zero-copy views, one per disk, covering the FULL media
  /// (data region plus, under integrity, the checksum region); empty
  /// when the backend does not expose them.  Only gather() reads them.
  std::vector<std::span<std::uint8_t>> views_;
  /// Whether the per-unit checksum layer is active (array integrity).
  bool integrity_ = false;
  /// Start of the per-disk checksum region (== disk_bytes()).
  std::uint64_t crc_base_ = 0;
  /// In-process checksum cache, [disk][physical unit offset] -- the
  /// authority for verification (loaded from media at create).  0 means
  /// unverified.  An entry is only touched under its instance's shard
  /// lock (or the exclusive state lock), like the unit bytes it covers.
  std::vector<std::vector<std::uint32_t>> crc_;
  /// The workload-aware cache layer; null unless options.cache.enabled.
  /// Dirty entries only ever cover FULLY HEALTHY stripe instances: the
  /// absorb path requires a zero-erasure plan, and fail_disk flushes
  /// the whole table before introducing an erasure.
  std::unique_ptr<StripeCache> cache_;
  /// Rebuild steps planned but not yet applied, in plan order, minus
  /// the chunks rebuild_some has claimed; the blocked count of the plan
  /// they came from; and their generation, bumped by every plan and by
  /// fail_disk and replace_disk (which clear the steps).  A claimed
  /// chunk that does not commit goes back while its generation is
  /// current (unclaim_steps_locked).  Guarded by the exclusive state
  /// lock.
  std::deque<api::RebuildStep> kept_steps_;
  std::uint64_t kept_blocked_ = 0;
  std::uint64_t kept_gen_ = 0;

  /// Heap-allocated so the store stays movable (Result<StripeStore>).
  struct Sync {
    std::shared_mutex state;
    /// Stripe-instance rw-locks: writers exclusive, readers/staging
    /// shared (see the file comment's concurrency story).
    std::vector<std::shared_mutex> shards;
    /// Bumped by every byte-mutating operation -- every transaction
    /// commit, fail, replace, AND every rebuild commit (commit_steps) --
    /// so one rebuilder's committed step invalidates another
    /// rebuilder's concurrently staged chunk instead of surfacing as a
    /// spurious hard kFailedPrecondition at its commit.  Rebuild staging
    /// snapshots the epoch under the exclusive lock and re-checks at
    /// commit: an unchanged epoch proves the staged survivor bytes are
    /// still current.  Relaxed ordering suffices: every load and store
    /// of the epoch happens with the state mutex held (shared or
    /// exclusive), so the mutex provides the happens-before edges and
    /// the counter only needs atomicity against torn increments from
    /// concurrent shared-lock holders.
    std::atomic<std::uint64_t> write_epoch{0};
    /// Torn-parity tracking (see the file comment): instances whose
    /// parity no longer matches their data after a double substrate
    /// fault.  torn_count is a relaxed fast-path gate so the happy path
    /// never takes torn_mutex.
    std::atomic<std::uint64_t> torn_count{0};
    mutable std::mutex torn_mutex;
    std::unordered_set<std::uint64_t> torn;
    /// Integrity counters (IntegrityStats snapshot source) and the
    /// scrub sweep cursor.  Relaxed: they are statistics, ordered by
    /// the locks their bumping paths already hold.
    std::atomic<std::uint64_t> crc_verified{0};
    std::atomic<std::uint64_t> crc_mismatches{0};
    std::atomic<std::uint64_t> crc_healed{0};
    std::atomic<std::uint64_t> crc_unhealable{0};
    std::atomic<std::uint64_t> crc_adopted{0};
    std::atomic<std::uint64_t> scrubbed{0};
    std::atomic<std::uint64_t> scrub_cursor{0};
    explicit Sync(std::uint32_t n) : shards(n) {}
  };
  std::unique_ptr<Sync> sync_;
};

}  // namespace pdl::io
