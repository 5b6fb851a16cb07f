#pragma once
/// @file
/// pdl::fleet::Fleet -- many arrays behind one front door.
///
/// One io::StripeStore is one declustered array; a deployment serving
/// millions of users runs many.  A Fleet shards one large logical block
/// space across N StripeStores -- heterogeneous on purpose: each shard
/// brings its own layout geometry (v, k, construction, iterations,
/// sparing), its own erasure codec (XOR parity next to Reed-Solomon
/// P+Q), and its own DiskBackend substrate (memory next to files next to
/// fault decorators), the HDA "one RAID level per virtual array" idea
/// landed on this codebase's seams.  The fleet routes every block
/// address through a compiled shard map, runs failure handling per
/// shard, paces all rebuild work through one shared RebuildGovernor,
/// and supports online shard addition with background extent migration.
///
/// ## Shard map
///
/// The block space is a sorted list of extents, each mapping a
/// contiguous block range to (shard, shard-local unit base).  A founding
/// fleet has one extent per shard; migration splits and moves them.
/// Lookup is division-free in the spirit of layout::CompiledMapper: a
/// bucket table indexed by `block >> shift` names the extent containing
/// the bucket's first block, and a short forward walk (bounded by the
/// extents sharing one bucket) lands on the exact extent -- O(1) with a
/// tiny constant, no per-lookup division or binary search.
///
/// ## Failure handling & the governor
///
/// fail_disk / replace_disk / rebuild_some are addressed as
/// (shard, disk): the shard's StripeStore does exactly what it always
/// did (poison platters, attach zeroed ones, regenerate lost bytes from
/// survivors).  The one fleet-level addition is pacing: every governed
/// rebuild pass reserves its byte budget from the RebuildGovernor
/// *before* touching the data path and refunds what it did not use, so
/// a fleet-wide policy (fifo / fair-share / foreground-protecting)
/// decides how rebuild bandwidth is spent across shards -- the
/// foreground-p99-vs-rebuild-throughput trade-off made explicit and
/// measurable (bench_fleet_throughput).
///
/// ## Online shard addition & extent migration
///
/// attach_shard registers a new (empty) shard; start_migration plans a
/// contiguous block range onto it; migrate_some copies the range in
/// chunks under the same shared-stage / exclusive-commit discipline as
/// StripeStore's online rebuild: staging copies run under the SHARED
/// fleet lock (foreground reads and writes keep flowing, reads always
/// served from the authoritative source side), a per-chunk dirty flag
/// catches writes that land mid-copy (the chunk is simply re-copied),
/// and complete_migration takes the EXCLUSIVE lock once to re-copy any
/// dirty remainder, verify the source and target extents are
/// checksum-identical (FNV-1a over every block -- a cutover that could
/// serve different bytes is refused), and atomically splice the shard
/// map.  add_shard composes attach + an automatic rebalancing plan
/// (tail of the block space, sized to the fair share); expand() drives
/// the whole protocol to completion.
///
/// ## Concurrency
///
/// One readers-writer lock guards the shard map and shard table:
/// read/write/read_batch/migrate staging take it shared (the per-shard
/// StripeStores provide all finer-grained serialization), while
/// attach_shard and complete_migration take it exclusive.  Holding the
/// shared lock across the underlying store call is what makes cutover
/// sound: when complete_migration holds the exclusive lock, every write
/// that routed to the source side has fully landed.

#include <cstdint>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "core/status.hpp"
#include "fleet/governor.hpp"
#include "io/stripe_store.hpp"
#include "io/workload_driver.hpp"

namespace pdl::fleet {

using layout::DiskId;

/// One shard's ingredients: an (healthy) array plus store knobs and a
/// storage substrate.  unit_bytes is fleet-wide (FleetOptions::
/// block_bytes); everything else may differ per shard.
struct ShardSpec {
  api::Array array;               ///< layout + codec + sparing choice
  std::uint32_t iterations = 1;   ///< vertical tilings (capacity knob)
  /// Storage substrate; null means a fresh MemoryBackend.
  std::unique_ptr<io::DiskBackend> backend = nullptr;
};

/// Fleet-wide construction knobs.
struct FleetOptions {
  /// Bytes per fleet block == unit_bytes of every shard store (the
  /// fleet's uniform I/O granularity over heterogeneous shards).
  std::uint32_t block_bytes = 4096;
  /// Rebuild-bandwidth budget shared by every shard.
  GovernorOptions governor = {};
  /// Blocks per migration chunk (the dirty-tracking granule).
  std::uint64_t migration_chunk_blocks = 64;
};

/// Where one fleet block physically lives: which shard, and which
/// shard-local logical unit of that shard's StripeStore.
struct Route {
  std::uint32_t shard = 0;
  std::uint64_t unit = 0;
};

/// One shard-map entry: blocks [first, first+count) live on `shard` at
/// shard-local units [base, base+count).
struct Extent {
  std::uint64_t first = 0;
  std::uint64_t count = 0;
  std::uint32_t shard = 0;
  std::uint64_t base = 0;
};

/// Point-in-time view of an in-flight migration.
struct MigrationProgress {
  bool active = false;
  std::uint64_t first_block = 0;
  std::uint64_t num_blocks = 0;
  std::uint32_t target_shard = 0;
  std::uint64_t copied_blocks = 0;  ///< staged at least once
  std::uint64_t dirty_chunks = 0;   ///< invalidated by concurrent writes
};

/// What a completed migration did, including the cutover verification
/// evidence (both checksums, asserted equal before the map flipped).
struct MigrationReport {
  std::uint64_t first_block = 0;
  std::uint64_t num_blocks = 0;
  std::uint32_t target_shard = 0;
  std::uint64_t blocks_moved = 0;
  std::uint64_t chunks_recopied = 0;   ///< dirty re-stages
  std::uint64_t source_checksum = 0;   ///< FNV-1a over the source extent
  std::uint64_t target_checksum = 0;   ///< FNV-1a over the target extent
};

/// Makes the storage substrate for shard `shard` when re-opening a
/// serialized fleet (null function or null result = MemoryBackend).
using BackendFactory =
    std::function<std::unique_ptr<io::DiskBackend>(std::uint32_t shard)>;

/// Many arrays behind one front door: a sharded block space over N
/// StripeStores with governed rebuild and online migration.  An
/// io::BlockTarget, so io::WorkloadDriver and io::fill_canonical run on
/// it directly.  See the file comment for the full story.
class Fleet final : public io::BlockTarget {
 public:
  /// Builds a fleet over founding shards: shard i's extent covers the
  /// next capacity_units(iterations) blocks of the space.
  /// kInvalidArgument for an empty shard list, a zero-capacity shard,
  /// or bad options; shard-store creation failures pass through.
  [[nodiscard]] static Result<Fleet> create(std::vector<ShardSpec> shards,
                                            FleetOptions options = {});

  // ------------------------------------------------------------ geometry

  /// Shards currently registered (routed or attached-empty).
  [[nodiscard]] std::uint32_t num_shards() const noexcept {
    return static_cast<std::uint32_t>(stores_.size());
  }
  /// Fleet blocks addressable through read/write.
  [[nodiscard]] std::uint64_t num_blocks() const noexcept override {
    return num_blocks_;
  }
  /// Bytes per fleet block.
  [[nodiscard]] std::uint32_t block_bytes() const noexcept override {
    return block_bytes_;
  }
  /// Total addressable bytes (num_blocks x block_bytes).
  [[nodiscard]] std::uint64_t logical_bytes() const noexcept {
    return num_blocks_ * block_bytes_;
  }
  /// One shard's store, read-only (stats, checksums, array state).  Do
  /// NOT mutate shard state behind the fleet's back -- use the fleet's
  /// (shard, disk)-addressed operations.
  [[nodiscard]] const io::StripeStore& shard(std::uint32_t shard) const {
    return *stores_[shard];
  }
  /// Where a block currently lives.  kOutOfRange past the space.
  [[nodiscard]] Result<Route> route_of(std::uint64_t block) const;
  /// Snapshot of the shard map, sorted by first block.
  [[nodiscard]] std::vector<Extent> extents() const;
  /// True when any shard's backend serves submissions asynchronously.
  [[nodiscard]] bool async() const override;

  // ----------------------------------------------------------- data path

  /// Reads one fleet block into `out` (exactly block_bytes() wide),
  /// routed through the shard map; the owning shard serves it with its
  /// own codec/failure state (degraded reads reconstruct on the fly).
  /// Error contract mirrors io::StripeStore::read, plus kOutOfRange for
  /// blocks past the fleet space.
  [[nodiscard]] Status read(std::uint64_t block, std::span<std::uint8_t> out,
                            io::ReadReceipt* receipt = nullptr) override;

  /// Reads many fleet blocks, grouped per shard into batched
  /// StripeStore::read_batch submissions (async shards see their full
  /// fan-out at once).  `out` is blocks.size() block-slices back to
  /// back; `statuses[i]` gets block i's individual outcome; the return
  /// value is the first non-OK status.  `receipts`, when non-empty,
  /// must be blocks.size() long.
  [[nodiscard]] Status read_batch(std::span<const std::uint64_t> blocks,
                                  std::span<std::uint8_t> out,
                                  std::span<Status> statuses,
                                  std::span<io::ReadReceipt> receipts = {})
      override;

  /// Writes one fleet block from `data` (exactly block_bytes() wide);
  /// the owning shard maintains parity under its own codec.  During a
  /// migration, writes inside the migrating range land on the
  /// authoritative source side and invalidate the affected chunk.
  [[nodiscard]] Status write(std::uint64_t block,
                             std::span<const std::uint8_t> data,
                             io::WriteReceipt* receipt = nullptr) override;

  /// Flushes every shard's backend to its durability point.
  [[nodiscard]] Status sync();

  // ------------------------------------- failure & rebuild (per shard)

  /// Marks (shard, disk) failed; the shard store poisons the platters.
  [[nodiscard]] Status fail_disk(std::uint32_t shard, DiskId disk);
  /// Attaches zeroed replacement platters to (shard, disk).
  [[nodiscard]] Status replace_disk(std::uint32_t shard, DiskId disk);

  /// Governed rebuild pass: reserves max_steps' worth of rebuilt bytes
  /// from the RebuildGovernor (blocking until the budget allows),
  /// executes up to max_steps repair steps on the shard, and refunds
  /// the unused reservation.  Returns stripes repaired, like
  /// StripeStore::rebuild_some.  Drive from one rebuilder thread per
  /// rebuilding shard; the governor arbitrates between them.
  [[nodiscard]] Result<std::uint64_t> rebuild_some(
      std::uint32_t shard, std::uint64_t max_steps,
      std::uint64_t* blocked = nullptr);

  /// Governed rebuild_some until the shard is quiescent.
  [[nodiscard]] Result<api::RebuildOutcome> rebuild(std::uint32_t shard);

  /// rebuild() on every shard (in shard order -- the governor, not the
  /// order, decides the bandwidth split when driven concurrently).
  [[nodiscard]] Result<api::RebuildOutcome> rebuild_all();

  /// Governed scrub pass: reserves the instances' read footprint from
  /// the shared governor as io::IoClass::kScrub work (blocking until
  /// the budget allows -- scrub and rebuild share one background-bytes
  /// bucket), verifies and heals up to max_instances stripe instances
  /// on the shard, and refunds the unused reservation.  A shard built
  /// without integrity returns an empty report immediately.
  [[nodiscard]] Result<io::ScrubReport> scrub_some(
      std::uint32_t shard, std::uint64_t max_instances,
      std::uint64_t* blocked = nullptr);

  /// One governed full sweep: every instance of every shard, in small
  /// governed passes (shard order; the governor decides the pacing).
  [[nodiscard]] Result<io::ScrubReport> scrub_all();

  /// True when every shard is fully healthy.
  [[nodiscard]] bool healthy() const;

  /// The shared rebuild-bandwidth budget (stats, policy inspection).
  [[nodiscard]] RebuildGovernor& governor() noexcept { return *governor_; }
  [[nodiscard]] const RebuildGovernor& governor() const noexcept {
    return *governor_;
  }

  // ------------------------------------ shard addition & migration

  /// Registers a new shard with no routed blocks (its capacity is
  /// migration headroom).  Returns the new shard index.
  [[nodiscard]] Result<std::uint32_t> attach_shard(ShardSpec spec);

  /// Plans a migration: blocks [first_block, first_block + num_blocks)
  /// move to `target_shard` (which needs that much unallocated
  /// capacity).  One migration may be active at a time; the range may
  /// span several source extents but must not already touch the
  /// target.  kFailedPrecondition / kInvalidArgument on violations.
  [[nodiscard]] Status start_migration(std::uint64_t first_block,
                                       std::uint64_t num_blocks,
                                       std::uint32_t target_shard);

  /// attach_shard + an automatic rebalancing plan: the tail of the
  /// block space, sized min(new shard capacity, fair share), starts
  /// migrating to the new shard.  Returns the new shard index; drive
  /// migrate_some / complete_migration (or use expand()).
  [[nodiscard]] Result<std::uint32_t> add_shard(ShardSpec spec);

  /// Copies up to max_blocks pending (or invalidated) blocks from the
  /// source side to the target shard, under the SHARED lock --
  /// foreground traffic keeps flowing, reads stay on the authoritative
  /// source.  Returns blocks copied this pass; 0 means every chunk is
  /// currently staged clean (call complete_migration).  Safe to call
  /// from several migrator threads.
  [[nodiscard]] Result<std::uint64_t> migrate_some(std::uint64_t max_blocks);

  /// Finishes the migration under the EXCLUSIVE lock: re-copies dirty
  /// chunks, verifies source and target extents are checksum-identical
  /// (kDataLoss-grade refusal on mismatch -- the map is left
  /// unchanged), splices the shard map, and returns the report.
  [[nodiscard]] Result<MigrationReport> complete_migration();

  /// Abandons an active migration: routing is untouched, the target
  /// shard's reserved capacity is released.
  [[nodiscard]] Status cancel_migration();

  /// Convenience: add_shard + migrate_some to quiescence +
  /// complete_migration, synchronously.
  [[nodiscard]] Status expand(ShardSpec spec);

  /// Point-in-time migration state.
  [[nodiscard]] MigrationProgress migration_progress() const;

  // --------------------------------------------------------- persistence

  /// Serializes the shard map + per-shard array headers (store knobs,
  /// codec via api::Array::serialize, extents, allocation state).
  /// Online failure state and in-flight migrations are not persisted --
  /// an active migration serializes as its pre-migration routing.
  [[nodiscard]] std::string serialize() const;
  /// Rebuilds a fleet from serialize() text.  `factory` supplies each
  /// shard's backend (null = fresh MemoryBackend); `governor` is the
  /// runtime policy choice (not persisted).  kParseError when
  /// malformed.
  [[nodiscard]] static Result<Fleet> deserialize(
      const std::string& text, const BackendFactory& factory = nullptr,
      const GovernorOptions& governor = {});
  /// serialize() to a file (kIoError on filesystem failure).
  [[nodiscard]] Status save(const std::string& path) const;
  /// deserialize() from a file (kIoError / kParseError).
  [[nodiscard]] static Result<Fleet> load(
      const std::string& path, const BackendFactory& factory = nullptr,
      const GovernorOptions& governor = {});

 private:
  Fleet() = default;

  /// Chunk lifecycle: pending -> copying -> clean, with writes knocking
  /// clean/copying back to dirty (re-copied later).
  enum ChunkState : std::uint8_t {
    kPending = 0,
    kCopying = 1,
    kClean = 2,
    kDirty = 3,
  };

  struct Migration {
    std::uint64_t first = 0;
    std::uint64_t count = 0;
    std::uint32_t target = 0;
    std::uint64_t target_base = 0;
    std::uint64_t chunk_blocks = 64;
    std::uint64_t num_chunks = 0;
    std::unique_ptr<std::atomic<std::uint8_t>[]> chunk_state;
    std::atomic<std::uint64_t> copied_blocks{0};
    std::atomic<std::uint64_t> recopied_chunks{0};
  };

  /// Route lookup against the compiled map; caller holds the map lock.
  [[nodiscard]] Route route_locked(std::uint64_t block) const noexcept;
  /// Rebuilds the bucket table from extents_; caller holds exclusive.
  void compile_router();
  /// Registers `spec` as a new shard; caller passes validated options.
  [[nodiscard]] Result<std::uint32_t> attach_shard_locked(ShardSpec spec);
  /// Copies one chunk's blocks source -> target.  Caller holds the map
  /// lock (shared or exclusive).
  [[nodiscard]] Status copy_chunk_locked(Migration& m, std::uint64_t chunk);
  /// FNV-1a over the blocks of [first, first+count) as served by
  /// `use_target` ? the migration target : the source routing.  Caller
  /// holds the map lock.
  [[nodiscard]] Result<std::uint64_t> checksum_range_locked(
      const Migration& m, bool use_target);
  /// Splices [first, first+count) -> (target, target_base) into
  /// extents_ and recompiles.  Caller holds exclusive.
  void splice_extent_locked(std::uint64_t first, std::uint64_t count,
                            std::uint32_t target, std::uint64_t target_base);

  std::uint32_t block_bytes_ = 0;
  std::uint64_t num_blocks_ = 0;
  std::uint64_t chunk_blocks_ = 64;
  std::vector<std::unique_ptr<io::StripeStore>> stores_;
  /// Bump allocator per shard: units [0, alloc) are (or were) routed.
  /// Freed source units of a completed migration are not recycled.
  std::vector<std::uint64_t> shard_alloc_;
  std::vector<Extent> extents_;        ///< sorted by first block
  std::vector<std::uint32_t> bucket_;  ///< block >> shift_ -> extent index
  std::uint32_t shift_ = 0;
  std::unique_ptr<Migration> migration_;  ///< null = none active
  std::unique_ptr<RebuildGovernor> governor_;

  /// Heap-allocated so the fleet stays movable (Result<Fleet>).
  struct Sync {
    mutable std::shared_mutex map;
  };
  std::unique_ptr<Sync> sync_;
};

}  // namespace pdl::fleet
