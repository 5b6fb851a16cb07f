#pragma once
/// @file
/// GF(2^8) byte-field kernels for the Reed-Solomon codec.
///
/// The field is pdl::algebra::GaloisField(256) pinned to the explicit
/// modulus x^8 + x^4 + x^3 + x^2 + 1 (0x11d), the classic Reed-Solomon
/// polynomial.  The choice matters twice over: x itself is primitive mod
/// 0x11d (multiplicative order 255), so the code generator alpha = 2 gives
/// 255 distinct data coefficients alpha^i -- enough for any stripe the
/// online state machine admits (k <= 64) -- and multiplication by 2
/// reduces to one shift plus a conditional XOR of 0x1d, the primitive the
/// vectorized kernels below are built from.
///
/// mul_xor_into and mul_in_place choose their kernel once, at first
/// call, from what the running CPU supports; the build stays baseline
/// x86-64.  With AVX2 they multiply 32 bytes per step by two vpshufb
/// lookups, one per nibble, into 32-byte product tables built for every
/// constant from the log/exp tables.  Otherwise (older x86 CPUs,
/// aarch64) they run the portable kernels: 64-byte blocks processed as
/// eight std::uint64_t lanes loaded via memcpy (alignment-free), with the
/// GF(2) carry structure bit-sliced across the packed bytes --
/// mul2(v) = ((v & 0x7f..) << 1) ^ (((v >> 7) & 0x0101..) * 0x1d) -- so a
/// multiply-accumulate by an arbitrary constant is at most eight
/// shift/XOR passes.  pdl::core::gf8::detail exposes the portable
/// kernels and keeps scalar log/exp-table reference implementations; a
/// randomized differential test (test_codec) pins both kernels equal to
/// the scalar references -- and those to the algebra::GaloisField
/// reference -- for every constant on every size/alignment class.

#include <cstdint>
#include <span>

namespace pdl::core::gf8 {

/// The modulus polynomial as a bit mask: x^8 + x^4 + x^3 + x^2 + 1.
inline constexpr std::uint16_t kModulus = 0x11d;

/// The code generator alpha = 2 (== x), primitive mod kModulus.
inline constexpr std::uint8_t kAlpha = 2;

/// a * b in GF(2^8) via the log/exp tables.
[[nodiscard]] std::uint8_t mul(std::uint8_t a, std::uint8_t b) noexcept;

/// alpha^i (exponent taken mod 255).
[[nodiscard]] std::uint8_t exp_alpha(std::uint32_t i) noexcept;

/// Multiplicative inverse of a nonzero element.
/// @throws std::invalid_argument on 0.
[[nodiscard]] std::uint8_t inv(std::uint8_t a);

/// dst[i] ^= c * src[i] -- the Reed-Solomon multiply-accumulate, the Q
/// parity's RMW hot loop.  c == 0 is a no-op; c == 1 degenerates to
/// xor_into.  Spans must match in size.
/// @throws std::invalid_argument on size mismatch.
void mul_xor_into(std::span<std::uint8_t> dst,
                  std::span<const std::uint8_t> src, std::uint8_t c);

/// dst[i] = c * dst[i] in place (c == 2 is the Horner-encode step and
/// runs as a single bit-sliced pass).
void mul_in_place(std::span<std::uint8_t> dst, std::uint8_t c);

/// @namespace pdl::core::gf8::detail
/// @brief The portable kernels and the scalar log/exp-table reference
/// implementations the run-time-chosen kernels are property-tested
/// against.  Not part of the supported API.
namespace detail {

/// Scalar byte-loop mul_xor_into (one table multiply per byte).
void mul_xor_into_scalar(std::span<std::uint8_t> dst,
                         std::span<const std::uint8_t> src, std::uint8_t c);

/// Scalar byte-loop mul_in_place.
void mul_in_place_scalar(std::span<std::uint8_t> dst, std::uint8_t c);

/// mul_xor_into on the portable bit-sliced kernel, whatever the CPU.
/// @throws std::invalid_argument on size mismatch.
void mul_xor_into_portable(std::span<std::uint8_t> dst,
                           std::span<const std::uint8_t> src, std::uint8_t c);

/// mul_in_place on the portable bit-sliced kernel, whatever the CPU.
void mul_in_place_portable(std::span<std::uint8_t> dst, std::uint8_t c);

}  // namespace detail

}  // namespace pdl::core::gf8
