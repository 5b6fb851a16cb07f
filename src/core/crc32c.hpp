#pragma once
/// @file
/// pdl::core -- CRC32C (Castagnoli) for per-unit end-to-end integrity.
///
/// The checksum the io::StripeStore integrity layer stores next to every
/// physical unit and verifies on every read path.  CRC32C is the
/// storage-stack convention (iSCSI, ext4, Btrfs) because the Castagnoli
/// polynomial has better Hamming-distance behaviour than CRC32/IEEE at
/// the block sizes disks serve, and because commodity CPUs accelerate it
/// (SSE4.2 crc32 on x86, CRC extensions on ARM).
///
/// Implementation: the kernel is chosen once, at first call, from what
/// the running CPU supports; the build stays baseline x86-64.  With
/// SSE4.2 it runs three interleaved crc32q streams over 768-byte blocks
/// and merges them through a table that advances a CRC over 256 zero
/// bytes.  Otherwise (older x86 CPUs, aarch64) it runs the portable
/// kernel, slicing-by-8 table lookup (8 bytes per iteration, tables
/// generated at first use), which detail::crc32c_portable exposes.  Both
/// kernels produce identical values; the checksums are a persisted
/// format, so test_crc32c pins both to the RFC 3720 test vectors and to
/// each other.

#include <cstdint>
#include <span>

namespace pdl::core {

/// CRC32C over `data`, seeded with `seed` (pass the previous return
/// value to continue a running checksum over split buffers; 0 starts a
/// fresh one).  The returned value is the standard reflected CRC32C
/// (final XOR applied), matching the RFC 3720 / SSE4.2 convention.
[[nodiscard]] std::uint32_t crc32c(std::span<const std::uint8_t> data,
                                   std::uint32_t seed = 0) noexcept;

/// crc32c biased away from zero: a stored checksum of 0 is the
/// integrity layer's "never written / unverified" sentinel, so computed
/// checksums that happen to land on 0 are reported as 1.
[[nodiscard]] inline std::uint32_t crc32c_nonzero(
    std::span<const std::uint8_t> data) noexcept {
  const std::uint32_t crc = crc32c(data);
  return crc == 0 ? 1u : crc;
}

namespace detail {

/// crc32c on the portable slicing-by-8 kernel, whatever the CPU: the
/// reference the run-time-chosen kernel is tested against.  Same
/// contract as pdl::core::crc32c.
[[nodiscard]] std::uint32_t crc32c_portable(
    std::span<const std::uint8_t> data, std::uint32_t seed = 0) noexcept;

}  // namespace detail

}  // namespace pdl::core
