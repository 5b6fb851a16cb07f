#pragma once
/// @file
/// pdl::core::Codec -- the erasure-code seam of the data path.
///
/// A Codec is the pure byte mathematics of stripe redundancy: given k_d
/// equal-sized data units it produces m parity units, folds RMW deltas
/// into individual parities, and reconstructs up to m erased units from
/// any k_d survivors.  It knows nothing about disks, layouts, or failure
/// state -- api::Array decides WHICH units are parity and which survive;
/// io::StripeStore moves the bytes; the codec only does the algebra.
///
/// ## Unit indexing
///
/// Within one stripe the codec addresses units by a dense index:
///
///   data unit i     ->  index i            (0 <= i < num_data)
///   parity unit j   ->  index num_data + j (0 <= j < num_parity())
///
/// api::Array assigns data indices in increasing position order over the
/// stripe's non-parity, non-spare positions, parity index 0 to the
/// layout's parity_pos (the XOR parity P) and indices 1.. to the extra
/// designated parity positions, and reports these indices in its
/// Read/Write/Rebuild plans -- so the store never re-derives them.
///
/// ## Implementations
///
///   * XorCodec (kXorParity): m = 1, P = XOR of the data units -- the
///     paper's Figure 1 code, delegating to the vectorized
///     core/xor_codec kernels.  Tolerates any single lost unit.
///   * RsCodec (kReedSolomonPQ): m = 2 over GF(2^8) (core/gf8), the
///     RAID-6 P+Q pair P = sum d_i, Q = sum alpha^i d_i with alpha = 2
///     primitive mod 0x11d.  Tolerates any two concurrently lost units.
///
/// Both are stateless singletons; `codec_for` maps the serializable
/// CodecKind tag to the instance.  All span arguments must be equal-sized
/// and non-overlapping (except where noted); violations throw
/// std::invalid_argument -- codec misuse is a programming error, unlike
/// the typed-Status I/O failures of the layers above.

#include <cstdint>
#include <span>
#include <string_view>

namespace pdl::core {

/// Serializable tag of a shipped codec (persisted by api::Array).
enum class CodecKind : std::uint8_t {
  kXorParity = 0,      ///< single XOR parity (Figure 1), m = 1
  kReedSolomonPQ = 1,  ///< GF(2^8) Reed-Solomon P+Q (RAID-6), m = 2
};

/// Stable short name ("xor", "rs") for serialization and bench JSON.
[[nodiscard]] std::string_view codec_kind_name(CodecKind kind) noexcept;

/// The erasure-code interface.  Stateless and immutable after
/// construction: every method is const and thread-safe.
class Codec {
 public:
  virtual ~Codec() = default;

  [[nodiscard]] virtual CodecKind kind() const noexcept = 0;
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Parity units per stripe (m).
  [[nodiscard]] virtual std::uint32_t num_parity() const noexcept = 0;

  /// Concurrent unit losses the code survives (== num_parity()).
  [[nodiscard]] std::uint32_t fault_tolerance() const noexcept {
    return num_parity();
  }

  /// Largest num_data the code supports (coefficient distinctness bound).
  [[nodiscard]] virtual std::uint32_t max_data_units() const noexcept = 0;

  /// Computes every parity from the full data set: parity[j] receives
  /// parity unit j.  parity.size() must be num_parity(); data must be
  /// non-empty with num_data <= max_data_units(); all spans equal-sized.
  virtual void encode(
      std::span<const std::span<const std::uint8_t>> data,
      std::span<const std::span<std::uint8_t>> parity) const = 0;

  /// RMW delta fold: parity ^= c_j(data_index) * delta, where delta is
  /// old_data XOR new_data and c_j is parity j's coefficient for that
  /// data unit.  Applying the same fold twice restores the parity
  /// (characteristic 2).  The stripe cache accumulates its batched
  /// parity deltas through this form.
  virtual void update(std::span<std::uint8_t> parity,
                      std::uint32_t parity_index, std::uint32_t data_index,
                      std::span<const std::uint8_t> delta) const = 0;

  /// Fused RMW parity: out = parity_old ^ c_j(data_index) * (data_old ^
  /// data_new) -- update() without materializing the delta, so the
  /// small write reads each old unit once.  `out` must not overlap any
  /// input (the store computes it beside old bytes it may still need
  /// for a rollback).
  virtual void update_into(std::span<std::uint8_t> out,
                           std::span<const std::uint8_t> parity_old,
                           std::uint32_t parity_index,
                           std::uint32_t data_index,
                           std::span<const std::uint8_t> data_old,
                           std::span<const std::uint8_t> data_new) const = 0;

  /// Reconstructs erased units from survivors.  survivors[i] holds the
  /// unit with index survivor_index[i]; erased_index lists EVERY erased
  /// unit of the stripe (the decode must know all erasures), and out[e]
  /// receives erased_index[e]'s bytes -- an EMPTY out[e] span means the
  /// caller does not want that unit materialized (it is still decoded
  /// internally when other outputs depend on it).  Requires
  /// erased_index.size() <= num_parity(), survivors covering all
  /// non-erased units of a num_data-data stripe, and equal-sized spans.
  virtual void reconstruct(
      std::uint32_t num_data,
      std::span<const std::span<const std::uint8_t>> survivors,
      std::span<const std::uint32_t> survivor_index,
      std::span<const std::uint32_t> erased_index,
      std::span<const std::span<std::uint8_t>> out) const = 0;
};

/// The shipped singletons.
[[nodiscard]] const Codec& xor_codec() noexcept;
[[nodiscard]] const Codec& rs_codec() noexcept;

/// The singleton for a serialized tag.
[[nodiscard]] const Codec& codec_for(CodecKind kind) noexcept;

}  // namespace pdl::core
