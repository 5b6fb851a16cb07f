#pragma once
// pdl::api::Array -- the library's front door.
//
// One object owns the whole lifecycle the lower layers expose piecemeal:
// a cached BuiltLayout from the construction engine, the CompiledMapper
// serving tables, and the mutable online state of the array (healthy /
// failed / rebuilding disks, lost units, spare redirections).  Instead of
// hand-wiring Engine::build + CompiledMapper + SparedLayout, callers write:
//
//   auto array = pdl::api::Array::create({.num_disks = 17, .stripe_size = 5});
//   if (!array.ok()) { /* array.status() is a typed pdl::Status */ }
//   auto where = array->map(12345);                  // O(1) table lookup
//   array->fail_disk(3);
//   std::vector<pdl::api::Physical> survivors(array->max_stripe_size());
//   auto read = array->locate(12345, survivors);     // degraded-read plan
//   array->replace_disk(3);
//   array->rebuild();                                // back to healthy
//
// Address ops come in single and span-based batched forms; serving ops
// (locate / plan_write) resolve degraded reads to the survivor units
// their decode reads, and writes to their parity peers, under the
// current failure state; sim::ScenarioSimulator drives these same
// failure/rebuild transitions in simulated time.  All fallible
// operations return pdl::Status / Result.
//
// State machine (per disk):
//
//   kHealthy --fail_disk--> kFailed --replace_disk--> kRebuilding
//       ^                                                  |
//       +---------- last lost home unit rebuilt -----------+
//
// (replace_disk moves straight to kHealthy when the disk has no lost
// units pending -- e.g. everything was already rebuilt into distributed
// spares.)  Stripe instances that concurrently lose more units than the
// array's codec tolerates (one under XOR parity, two under Reed-Solomon
// P+Q) are permanently unrecoverable: reads/writes addressing them
// return kDataLoss / kUnrecoverable plans and rebuild skips them.
//
// Iterations: layouts tile vertically over large disks.  Failure state is
// tracked per stripe (a disk failure hits every iteration alike);
// locate/plan_write lift offsets to the addressed iteration, while rebuild
// plans report iteration-0 offsets, one step standing for every iteration
// of the stripe.
//
// Stripe sizes are limited to 64 units (lost positions live in one 64-bit
// mask per stripe); larger specs/layouts are rejected with
// kInvalidArgument.
//
// Concurrency (external-synchronization contract): Array is a passive
// value type with no internal locking.  Every const member function is a
// pure read of immutable tables or the online-state vectors -- none keeps
// hidden mutable caches -- so any number of threads may call the entire
// const surface (map / parity_of / map_batch / locate / plan_write /
// plan_rebuild / serialize / the state queries) concurrently, PROVIDED no
// thread is concurrently inside a non-const member (fail_disk,
// replace_disk, apply_rebuild_step, rebuild).  Callers that mutate online
// state while serving must bracket the mutators with a writer lock and
// the const calls with a reader lock; io::StripeStore wraps exactly that
// readers-writer discipline around an owned Array.

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/codec.hpp"
#include "core/declustered_array.hpp"
#include "core/status.hpp"
#include "layout/compiled_mapper.hpp"
#include "layout/sparing.hpp"

namespace pdl::engine {
class Engine;
}

/// @namespace pdl::api
/// @brief The library's front door: pdl::api::Array unifies layout
/// construction, O(1) address mapping, and the online failure/rebuild
/// state machine behind one typed-Status surface.
namespace pdl::api {

using layout::DiskId;
/// Physical address of one stripe unit: (disk, unit-offset) coordinates.
using Physical = layout::AddressMapper::Physical;

/// How the array absorbs rebuild writes.
enum class SparingMode : std::uint8_t {
  kNone = 0,         ///< dedicated replacement: rebuild in place
  kDistributed = 1,  ///< one balanced spare unit per stripe (Section 5)
};

/// Array-level construction options, on top of core::BuildOptions.
struct ArrayOptions {
  /// How rebuild writes are absorbed (dedicated replacement vs
  /// distributed spare units).
  SparingMode sparing = SparingMode::kNone;
  /// Pin a specific construction instead of letting the planner rank
  /// (bypasses the engine cache).
  std::optional<core::Construction> construction = std::nullopt;
  /// The erasure code protecting each stripe.  kXorParity keeps the
  /// paper's single-parity layout; kReedSolomonPQ designates one extra
  /// parity unit per stripe (cyclically, from parity_pos + 1) and
  /// survives any two concurrent disk failures.
  core::CodecKind codec = core::CodecKind::kXorParity;
  /// Enable per-unit CRC32C end-to-end integrity: an io::StripeStore over
  /// this array keeps a checksum per physical unit, verifies it on every
  /// read path, and heals mismatches through the codec.  Persisted in
  /// serialize() so reopened stores agree on the on-media format.
  bool integrity = false;
};

/// Upper bound on parity units per stripe across all shipped codecs
/// (bounds the fixed-size index arrays in the plan structs).
inline constexpr std::uint32_t kMaxParityUnits = 4;

/// Online state of one physical disk (see the state machine in the file
/// comment).
enum class DiskState : std::uint8_t {
  kHealthy = 0,     ///< serving
  kFailed = 1,      ///< failed, no replacement attached
  kRebuilding = 2,  ///< replacement attached, lost home units pending
};

/// Human-readable name of a DiskState ("healthy", "failed", ...).
[[nodiscard]] std::string_view disk_state_name(DiskState state) noexcept;

/// Resolution of one logical read under the current failure state.  A
/// degraded read lists only the survivors its decode reads: every
/// surviving data unit, then surviving parities in ordinal order (P
/// before Q) until num_data units are listed.  Survivors left unread
/// count as erased, so num_survivors + num_erased is always the stripe's
/// content width.
struct ReadPlan {
  /// The three ways a read can resolve.
  enum class Kind : std::uint8_t {
    kDirect = 0,         ///< unit intact: read `target`
    kDegraded = 1,       ///< unit lost: decode from the survivor set
    kUnrecoverable = 2,  ///< stripe lost more units than the codec bears
  };
  Kind kind = Kind::kDirect;         ///< how the read resolves
  Physical target;                   ///< kDirect: where the unit lives now
  std::uint32_t num_survivors = 0;   ///< kDegraded: units written to `out`
  // -- codec-seam fields (kDegraded): everything core::Codec::reconstruct
  // needs, in the codec's unit-index convention (data i -> i, parity j ->
  // num_data + j).  Survivor indices are reported through locate()'s
  // optional survivor_index span, parallel to `survivors`.
  std::uint32_t num_data = 0;        ///< data units in the stripe (k_d)
  std::uint32_t num_erased = 0;      ///< erased content units of the stripe
  /// Codec indices of the erased units: the requested unit FIRST, then
  /// the stripe's other lost units, then the survivors left unread.
  std::array<std::uint32_t, kMaxParityUnits> erased_index{};
};

/// Resolution of one logical small-write under the current failure state.
struct WritePlan {
  /// The parity-maintenance strategies a small write can need.
  enum class Kind : std::uint8_t {
    kReadModifyWrite = 0,  ///< read data+parities, write data+parities
    kReconstructWrite = 1, ///< data lost: read peers, write parities only
    kUnprotectedWrite = 2, ///< every parity lost: write data only
    kUnrecoverable = 3,    ///< stripe lost too many units; write unservable
  };
  Kind kind = Kind::kReadModifyWrite;  ///< selected strategy
  Physical data;                 ///< data unit (valid unless data lost)
  std::uint32_t num_peer_reads = 0;  ///< kReconstructWrite: data peers to read
  // -- codec-seam fields, in the codec's unit-index convention.
  std::uint32_t num_data = 0;    ///< data units in the stripe (k_d)
  std::uint32_t data_index = 0;  ///< codec index of the written unit
  std::uint32_t num_parities = 0;  ///< surviving parity units
  /// Surviving parity units to maintain, ordinal order (P before Q).
  std::array<Physical, kMaxParityUnits> parity_targets{};
  /// parity_targets[j]'s codec parity ordinal (its index is
  /// num_data + parity_index[j]).
  std::array<std::uint32_t, kMaxParityUnits> parity_index{};
  /// kReconstructWrite: every erased content unit of the stripe, the
  /// written unit FIRST -- when more than one, the store must decode the
  /// others (from peers + surviving parities) before re-encoding.
  std::uint32_t num_erased = 0;
  std::array<std::uint32_t, kMaxParityUnits> erased_index{};
};

/// One stripe repair: read `reads`, decode, write the lost unit to
/// `target`.  Offsets are iteration-0; the step stands for every
/// iteration of the stripe.  `reads` are only the survivors the decode
/// uses, chosen as for a degraded read (see ReadPlan): under
/// Reed-Solomon P+Q a single loss reads num_data units, not every
/// survivor.
struct RebuildStep {
  std::uint32_t stripe = 0;        ///< stripe being repaired
  std::uint32_t lost_pos = 0;      ///< position being reconstructed
  bool to_spare = false;           ///< target is the stripe's spare unit
  Physical target;                 ///< write target
  std::vector<Physical> reads;     ///< surviving units to decode from
  // -- codec-seam fields, in the codec's unit-index convention.
  std::uint32_t num_data = 0;      ///< data units in the stripe (k_d)
  std::uint32_t target_index = 0;  ///< codec index of the rebuilt unit
  std::vector<std::uint32_t> read_indices;  ///< parallel to `reads`
  /// Every content unit of the stripe the decode does not read, this
  /// step's unit FIRST, then the units lost at plan time (multi-loss
  /// stripes plan one step per lost unit), then the survivors left
  /// unread.  reads.size() + num_erased is the stripe's content width.
  std::uint32_t num_erased = 0;
  std::array<std::uint32_t, kMaxParityUnits> erased_index{};
};

/// Everything currently rebuildable, plus load accounting.
struct RebuildPlan {
  std::vector<RebuildStep> steps;  ///< executable repair steps, in order
  /// Lost units with no usable target yet: their home disk has no
  /// replacement and their stripe's spare is unusable.  replace_disk
  /// unblocks them.
  std::uint64_t blocked = 0;
  /// Stripes skipped because they are unrecoverable.
  std::uint64_t unrecoverable = 0;
  std::vector<std::uint32_t> reads_per_disk;   ///< survivor reads per disk
  std::vector<std::uint32_t> writes_per_disk;  ///< rebuild writes per disk
};

/// What a rebuild() pass accomplished.
struct RebuildOutcome {
  std::uint64_t applied = 0;  ///< steps executed (stripes repaired)
  std::uint64_t blocked = 0;  ///< still waiting on replace_disk
};

/// One declustered array: an engine-cached layout, compiled O(1) serving
/// tables, and the mutable online failure/rebuild state machine, behind
/// a typed Status/Result surface.  Passive value type -- see the file
/// comment for the external-synchronization contract.
class Array {
 public:
  /// Builds the best layout for the spec through the global engine cache
  /// and wraps it as a healthy array.  kInvalidArgument for malformed
  /// specs, kUnsupported when no construction fits (or a pinned
  /// construction does not apply).
  [[nodiscard]] static Result<Array> create(
      const core::ArraySpec& spec, const core::BuildOptions& build = {},
      const ArrayOptions& options = {});

  /// Same, through a specific engine (its cache is shared with other
  /// callers of that engine).
  [[nodiscard]] static Result<Array> create_with(
      engine::Engine& engine, const core::ArraySpec& spec,
      const core::BuildOptions& build = {}, const ArrayOptions& options = {});

  /// Wraps an externally supplied layout (construction reported as
  /// kExternal, metrics measured).  kInvalidArgument if the layout (or
  /// spare map) is structurally invalid or too small for the codec.
  [[nodiscard]] static Result<Array> adopt(
      layout::Layout layout,
      core::CodecKind codec = core::CodecKind::kXorParity,
      bool integrity = false);
  /// adopt() for an externally supplied distributed-sparing layout.
  [[nodiscard]] static Result<Array> adopt_spared(
      layout::SparedLayout spared,
      core::CodecKind codec = core::CodecKind::kXorParity,
      bool integrity = false);

  /// Persistence: the layout plus (in distributed-sparing mode) the spare
  /// map, via layout::serialize.  Online failure state is not persisted.
  [[nodiscard]] std::string serialize() const;
  /// Rebuilds an array from serialize() text (kParseError when malformed).
  [[nodiscard]] static Result<Array> deserialize(const std::string& text);
  /// serialize() to a file (kIoError on filesystem failure).
  [[nodiscard]] Status save(const std::string& path) const;
  /// deserialize() from a file (kIoError / kParseError).
  [[nodiscard]] static Result<Array> load(const std::string& path);

  // ------------------------------------------------- geometry & provenance

  /// Physical disks in the array (the spec's v).
  [[nodiscard]] std::uint32_t num_disks() const noexcept;
  /// Stripe units per disk per layout iteration (the layout size s).
  [[nodiscard]] std::uint32_t units_per_disk() const noexcept;
  /// Largest stripe width in the layout (bounds survivor-span sizes).
  [[nodiscard]] std::uint32_t max_stripe_size() const noexcept {
    return mapper_.max_stripe_size();
  }
  /// Logical data units per layout iteration (excludes parity and, in
  /// distributed-sparing mode, spare units).
  [[nodiscard]] std::uint64_t data_units_per_iteration() const noexcept {
    return mapper_.data_units_per_iteration();
  }
  /// Logical data units across `iterations` vertical tilings -- the
  /// array's addressable capacity in units.  Byte-path and fleet-router
  /// callers use this instead of recomputing from layout internals.
  [[nodiscard]] std::uint64_t capacity_units(
      std::uint64_t iterations) const noexcept {
    return data_units_per_iteration() * iterations;
  }
  /// Logical byte capacity at `unit_bytes` granularity across
  /// `iterations` tilings (what a StripeStore over this array serves).
  [[nodiscard]] std::uint64_t capacity_bytes(
      std::uint32_t unit_bytes, std::uint64_t iterations) const noexcept {
    return capacity_units(iterations) * unit_bytes;
  }
  /// Bytes of one physical disk image at `unit_bytes` granularity
  /// across `iterations` tilings (the backend-geometry sizing).
  [[nodiscard]] std::uint64_t disk_bytes(
      std::uint32_t unit_bytes, std::uint64_t iterations) const noexcept {
    return static_cast<std::uint64_t>(units_per_disk()) * iterations *
           unit_bytes;
  }
  /// Which paper construction built the layout (kExternal for adopt()).
  [[nodiscard]] core::Construction construction() const noexcept;
  /// Human-readable provenance of the layout.
  [[nodiscard]] const std::string& description() const noexcept;
  /// Measured layout quality (parity balance, reconstruction spread, ...).
  [[nodiscard]] const layout::LayoutMetrics& metrics() const noexcept;
  /// Whether rebuilds target distributed spares or a dedicated
  /// replacement.
  [[nodiscard]] SparingMode sparing() const noexcept {
    return spared_ ? SparingMode::kDistributed : SparingMode::kNone;
  }
  /// The erasure code protecting each stripe.
  [[nodiscard]] core::CodecKind codec_kind() const noexcept {
    return codec_kind_;
  }
  /// Whether per-unit checksum integrity was requested at creation
  /// (io::StripeStore consumes this to size and verify the CRC region).
  [[nodiscard]] bool integrity() const noexcept { return integrity_; }
  /// The codec instance (stateless singleton).
  [[nodiscard]] const core::Codec& codec() const noexcept {
    return core::codec_for(codec_kind_);
  }
  /// Parity units per stripe (the codec's m).
  [[nodiscard]] std::uint32_t num_parity_units() const noexcept {
    return num_parity_;
  }
  /// Data units in one stripe (the codec's k_d for that stripe).
  [[nodiscard]] std::uint32_t stripe_data_units(
      std::uint32_t stripe) const noexcept {
    return stripe_num_data_[stripe];
  }
  /// The codec unit index recorded for a spare slot (no codec unit).
  static constexpr std::uint32_t kNoUnit = 0xffffffffu;
  /// Memory footprint of the compiled serving tables (Condition 4 cost).
  [[nodiscard]] std::uint64_t table_bytes() const noexcept {
    return mapper_.table_bytes();
  }
  /// The underlying stripe layout.
  [[nodiscard]] const layout::Layout& layout() const noexcept;
  /// The spare designation (empty unless distributed sparing).
  [[nodiscard]] const std::vector<std::uint32_t>& spare_positions()
      const noexcept;
  /// The spared layout, or nullptr unless distributed sparing.
  [[nodiscard]] const layout::SparedLayout* spared_layout() const noexcept {
    return spared_.get();
  }
  /// The compiled serving tables (shared logical numbering).
  [[nodiscard]] const layout::CompiledMapper& mapper() const noexcept {
    return mapper_;
  }

  /// Stripe coordinates of a logical data unit, independent of failure
  /// state: which stripe (index into layout().stripes()) and position
  /// hold it, and which vertical iteration of the layout it falls in.
  /// Gives byte-path callers (io::StripeStore) a stable per-stripe
  /// sharding key without re-deriving the logical numbering.
  struct LogicalRef {
    std::uint32_t stripe = 0;     ///< stripe index within the layout
    std::uint32_t pos = 0;        ///< position within the stripe
    std::uint64_t iteration = 0;  ///< vertical tiling index
  };
  /// The LogicalRef coordinates of a logical data unit.
  [[nodiscard]] LogicalRef logical_ref(std::uint64_t logical) const noexcept;

  /// Stripes per layout iteration.
  [[nodiscard]] std::uint32_t num_stripes() const noexcept;

  // ------------------------------------- address ops (failure-agnostic)

  /// Physical home of a logical data unit: one table lookup plus constant
  /// arithmetic (Condition 4).  Ignores failures and redirects; see
  /// locate() for the serving path.
  [[nodiscard]] Physical map(std::uint64_t logical) const noexcept {
    return mapper_.map(logical);
  }

  /// Physical home of the parity unit protecting a logical data unit.
  [[nodiscard]] Physical parity_of(std::uint64_t logical) const noexcept {
    return mapper_.parity_of(logical);
  }

  /// Batched map: out[i] = map(logicals[i]).  kInvalidArgument when `out`
  /// is smaller than `logicals`.
  [[nodiscard]] Status map_batch(std::span<const std::uint64_t> logicals,
                                 std::span<Physical> out) const;

  // ---------------------------------------- serving ops (failure-aware)

  /// Resolves a logical read under the current failure state.  Intact
  /// units (including units rebuilt into their stripe's spare) resolve to
  /// kDirect with the unit's current position; lost units resolve to
  /// kDegraded with the survivors the decode reads written to
  /// `survivors` (see ReadPlan; max_stripe_size() - 1 bounds the count);
  /// units of a stripe that lost more units than the codec tolerates
  /// resolve to kUnrecoverable.  When `survivor_index` is non-empty it
  /// receives the
  /// codec unit index of each survivor, parallel to `survivors` (the
  /// decode inputs for core::Codec::reconstruct).  kInvalidArgument when
  /// either span is too small for the stripe.
  [[nodiscard]] Result<ReadPlan> locate(
      std::uint64_t logical, std::span<Physical> survivors,
      std::span<std::uint32_t> survivor_index = {}) const;

  /// Resolves a logical small-write to its read/write peers under the
  /// current failure state: stripes with the data unit and at least one
  /// parity intact read-modify-write data + surviving parities; a lost
  /// data unit folds into the surviving parities via the surviving data
  /// peers (written to `peer_reads`, codec indices to `peer_index` when
  /// non-empty); a stripe with every parity lost leaves an unprotected
  /// data write.  An empty `peer_reads` counts the peers
  /// (num_peer_reads) and lists none, for callers that gather the whole
  /// stripe themselves; `peer_index` is then ignored.  kInvalidArgument
  /// when a non-empty span is too small.
  [[nodiscard]] Result<WritePlan> plan_write(
      std::uint64_t logical, std::span<Physical> peer_reads,
      std::span<std::uint32_t> peer_index = {}) const;

  /// One content unit of a stripe as the full-stripe paths see it: its
  /// codec index, its current (redirect-aware) iteration-0 home, and
  /// whether it is presently lost to a disk failure.
  struct StripeUnitStatus {
    std::uint32_t index = 0;  ///< codec unit index (data i, parity k_d+j)
    Physical unit;            ///< current home, iteration 0
    bool lost = false;        ///< true: no readable copy exists on media
  };
  /// Every content unit (data + parity, spares excluded) of `stripe`
  /// under the current failure state, in codec-index order, written to
  /// `out`.  Returns the unit count (stripe_data_units + parities).
  /// This is io::StripeStore's full-stripe read set: scrub and heal,
  /// the stripe audit, and the parity re-encode behind reconstruct-
  /// writes and torn-parity heals.  kInvalidArgument when `stripe` is
  /// out of range or `out` is smaller than the stripe's content width.
  [[nodiscard]] Result<std::uint32_t> stripe_units(
      std::uint32_t stripe, std::span<StripeUnitStatus> out) const;

  // ------------------------------------------ online failure transitions

  /// Marks a healthy disk failed, recording every newly lost unit and any
  /// data loss (a stripe losing its second unit).  kInvalidArgument for
  /// out-of-range disks, kFailedPrecondition unless the disk is healthy.
  [[nodiscard]] Status fail_disk(DiskId disk);

  /// Attaches a fresh replacement to a failed disk: the disk becomes a
  /// rebuild target (kRebuilding), or immediately healthy when nothing on
  /// it is lost.  kFailedPrecondition unless the disk is kFailed.
  [[nodiscard]] Status replace_disk(DiskId disk);

  /// The repair schedule for everything currently rebuildable: each lost
  /// unit resolves to its stripe's spare unit (distributed sparing, spare
  /// usable) or its home slot on an attached replacement, with the
  /// survivors its decode reads (see RebuildStep).
  [[nodiscard]] Result<RebuildPlan> plan_rebuild() const;

  /// Applies one planned step: marks the unit rebuilt at its target and
  /// updates disk states.  kFailedPrecondition when the step is stale
  /// (the unit was already rebuilt, its stripe became unrecoverable, or
  /// the target is no longer writable).
  [[nodiscard]] Status apply_rebuild_step(const RebuildStep& step);

  /// Convenience: plan_rebuild + apply every step.  After it returns,
  /// everything rebuildable without further replace_disk calls is
  /// rebuilt.
  [[nodiscard]] Result<RebuildOutcome> rebuild();

  // ------------------------------------------------------ state queries

  /// One disk's online state (kInvalidArgument out of range).
  [[nodiscard]] Result<DiskState> disk_state(DiskId disk) const;
  /// Every disk's online state, indexed by DiskId.
  [[nodiscard]] const std::vector<DiskState>& disk_states() const noexcept {
    return disk_state_;
  }
  /// Disks not currently serving from their own platters (failed or
  /// rebuilding).
  [[nodiscard]] std::uint32_t num_failed() const noexcept;
  /// True when every disk is healthy and no unit is lost.
  [[nodiscard]] bool healthy() const noexcept;
  /// Lost units pending rebuild (per layout iteration), excluding
  /// unrecoverable stripes.
  [[nodiscard]] std::uint64_t lost_units() const noexcept {
    return lost_units_;
  }
  /// True once any stripe has lost two units at the same time.
  [[nodiscard]] bool data_loss() const noexcept { return stripes_lost_ > 0; }
  /// Whether position `pos` of `stripe` is lost: it has no readable copy
  /// and no applied rebuild step has restored it.
  [[nodiscard]] bool is_lost(std::uint32_t stripe,
                             std::uint32_t pos) const noexcept {
    return (lost_mask_[stripe] >> pos) & 1u;
  }
  /// Stripes (per layout iteration) that are permanently unrecoverable.
  [[nodiscard]] std::uint64_t stripes_lost() const noexcept {
    return stripes_lost_;
  }

 private:
  Array(std::shared_ptr<const core::BuiltLayout> built,
        std::shared_ptr<const layout::SparedLayout> spared,
        core::CodecKind codec);

  struct UnitRef {
    std::uint32_t stripe = 0;
    std::uint32_t pos = 0;
  };
  struct HomeRef {
    std::uint32_t stripe = 0;
    std::uint32_t pos = 0;
  };

  /// True when `pos` of `stripe` can hold content (not an unconsumed
  /// spare slot).
  [[nodiscard]] bool is_content(std::uint32_t stripe,
                                std::uint32_t pos) const noexcept;
  /// The unit currently holding content position `pos` (redirect-aware),
  /// iteration 0.
  [[nodiscard]] const layout::StripeUnit& cur_unit(
      std::uint32_t stripe, std::uint32_t pos) const noexcept;
  /// Bit mask of the positions a decode of `stripe`'s unit `pos` reads:
  /// every surviving data unit, then surviving parities in ordinal order
  /// (P before Q) until num_data units are listed.  A data unit is never
  /// left out, so the decode stays the cheap one: XOR through P, or a
  /// lost parity re-encoded from data.  Under XOR parity that is every
  /// survivor.
  [[nodiscard]] std::uint64_t decode_reads(std::uint32_t stripe,
                                           std::uint32_t pos) const noexcept;
  /// Appends to `erased` the codec index of every surviving parity of
  /// `stripe` that `reads` leaves unread (a decode treats it as erased),
  /// after the `num_erased` entries already there; returns the new count.
  [[nodiscard]] std::uint32_t erase_unread(
      std::uint32_t stripe, std::uint32_t pos, std::uint64_t reads,
      std::span<std::uint32_t> erased,
      std::uint32_t num_erased) const noexcept;
  void mark_lost(std::uint32_t stripe, std::uint32_t pos);
  /// The currently valid rebuild target for a lost unit, or nullopt when
  /// blocked.  `to_spare` is set accordingly.  allow_spare lets a planner
  /// that already claimed the stripe's spare for an earlier step steer
  /// later steps of the same stripe to their home slots.
  [[nodiscard]] std::optional<Physical> rebuild_target(
      std::uint32_t stripe, std::uint32_t pos, bool& to_spare,
      bool allow_spare) const;

  std::shared_ptr<const core::BuiltLayout> built_;
  std::shared_ptr<const layout::SparedLayout> spared_;  ///< null = dedicated
  core::CodecKind codec_kind_;
  bool integrity_ = false;  ///< per-unit checksums requested at creation
  std::uint32_t num_parity_;                ///< codec().num_parity()
  std::vector<std::uint64_t> parity_mask_;  ///< all parity bits per stripe
  layout::CompiledMapper mapper_;

  static constexpr std::uint32_t kNone = 0xffffffffu;

  std::vector<UnitRef> data_units_;   ///< logical (mod D) -> (stripe, pos)
  std::vector<std::vector<HomeRef>> disk_units_;  ///< home units per disk
  std::vector<std::uint32_t> stripe_num_data_;    ///< k_d per stripe
  /// Parity positions per stripe in codec ordinal order (parity_pos
  /// first, then the extra designations).
  std::vector<std::vector<std::uint32_t>> parity_positions_;
  /// Per stripe, per position: the codec unit index (kNoUnit for spares).
  std::vector<std::vector<std::uint32_t>> unit_index_;

  // -- online state -------------------------------------------------------
  std::vector<DiskState> disk_state_;
  std::vector<std::uint64_t> lost_mask_;    ///< bit per lost position
  std::vector<std::uint8_t> unrecoverable_; ///< stripe lost >= 2 units
  std::vector<std::uint32_t> redirect_;     ///< position living in the spare
  std::vector<std::uint32_t> pending_home_; ///< recoverable lost units / disk
  std::uint64_t lost_units_ = 0;
  std::uint64_t stripes_lost_ = 0;
};

}  // namespace pdl::api
