#pragma once
/// @file
/// The parity code itself (Figure 1): parity = XOR of the stripe's data
/// units; any single lost unit is the XOR of the survivors.  Provided so
/// examples and tests can demonstrate end-to-end data recovery, not just
/// unit counting.
///
/// Every XOR in the library runs one kernel, a multi-source fold
/// (xor_into is the fold of {dst, src}), chosen once, at first call, from
/// what the running CPU supports; the build stays baseline x86-64.  With
/// AVX2 it keeps four 32-byte accumulators in registers per 128-byte
/// step, then takes bytes.  Otherwise (older x86 CPUs, aarch64) it runs
/// the portable fold: four 16-byte vector lanes per 64-byte step (SSE2
/// or NEON), then bytes.  Loads are unaligned, so alignment never
/// matters.  `pdl::core::detail` exposes the portable fold and keeps the
/// scalar byte-loop reference implementations; a randomized property
/// test (`test_xor_codec_properties`) pins both folds equal to them on
/// every size/alignment class, and `bench_xor_codec` measures all three
/// side by side.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

/// @namespace pdl::core
/// @brief Cross-cutting primitives: the Status/Result error model, the
/// XOR parity codec, recovery planning, and the umbrella header.
namespace pdl::core {

/// XOR-accumulates `src` into `dst` (dst[i] ^= src[i]); both spans must
/// have the same size.  @throws std::invalid_argument on size mismatch.
void xor_into(std::span<std::uint8_t> dst, std::span<const std::uint8_t> src);

/// Parity of a set of equal-sized data units.
/// @throws std::invalid_argument when `units` is empty or ragged.
[[nodiscard]] std::vector<std::uint8_t> xor_parity(
    std::span<const std::vector<std::uint8_t>> units);

/// Reconstructs the missing unit from the k-1 survivors (data or parity --
/// XOR is self-inverse, so the same call serves both directions).
/// @throws std::invalid_argument when `survivors` is empty or ragged.
[[nodiscard]] std::vector<std::uint8_t> xor_reconstruct(
    std::span<const std::vector<std::uint8_t>> survivors);

// Span-based no-copy forms for the byte-moving serving path (io::
// StripeStore): the caller points each span at bytes already resident in
// the disk buffers and the result lands in caller-owned storage -- no
// per-unit vector materialization on degraded reads or rebuild.

/// dst = XOR of `units`, overwriting dst.  Single pass: each step of
/// every source is folded in registers before dst is written, so dst
/// traffic is one store per step regardless of fan-in.
/// dst may alias a source EXACTLY (same address and size, the in-place
/// parity-fold case); partially overlapping spans are not supported.
/// Every unit must match dst.size().
/// @throws std::invalid_argument when `units` is empty or sizes mismatch.
void xor_parity_into(std::span<std::uint8_t> dst,
                     std::span<const std::span<const std::uint8_t>> units);

/// Reconstructs the missing unit from the k-1 survivors into `dst`
/// (identical operation to xor_parity_into; reconstruction wording).
/// @throws std::invalid_argument when `survivors` is empty or sizes
/// mismatch.
void xor_reconstruct_into(
    std::span<std::uint8_t> dst,
    std::span<const std::span<const std::uint8_t>> survivors);

/// @namespace pdl::core::detail
/// @brief The portable kernels and the scalar reference implementations,
/// exported so property tests and `bench_xor_codec` can pin and measure
/// the hot path against them.  Not part of the supported API surface.
namespace detail {

/// Scalar byte-loop xor_into: the PR-4 baseline the vectorized path is
/// tested against.  Same contract as pdl::core::xor_into.
void xor_into_scalar(std::span<std::uint8_t> dst,
                     std::span<const std::uint8_t> src);

/// Scalar byte-loop xor_parity_into (zero-fill dst, fold each unit).
/// Same contract as pdl::core::xor_parity_into.
void xor_parity_into_scalar(
    std::span<std::uint8_t> dst,
    std::span<const std::span<const std::uint8_t>> units);

/// xor_parity_into on the portable fold, whatever the CPU.  Same
/// contract as pdl::core::xor_parity_into.
void xor_parity_into_portable(
    std::span<std::uint8_t> dst,
    std::span<const std::span<const std::uint8_t>> units);

}  // namespace detail

}  // namespace pdl::core
