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
/// the running CPU supports; the build stays baseline x86-64.  Three
/// kernels, fastest first:
///   - vpclmul512 (AVX-512F + VPCLMULQDQ): four 512-bit accumulators
///     fold 256 bytes per step with carry-less multiplies, two crc32q
///     reduce the last 128 bits, and a tail under 256 bytes runs on
///     crc32q;
///   - sse42 (SSE4.2): three interleaved crc32q streams over 768-byte
///     blocks, merged through a table that advances a CRC over 256 zero
///     bytes;
///   - portable (older x86 CPUs, aarch64): slicing-by-8 table lookup,
///     8 bytes per iteration, tables generated at first use.
/// Every kernel produces identical values.  The checksums are a persisted
/// format, so test_crc32c runs each kernel the CPU supports, listed by
/// detail::crc32c_kernels, against the RFC 3720 test vectors and a
/// bitwise reference.

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

/// The signature of pdl::core::crc32c.
using Crc32c = std::uint32_t (*)(std::span<const std::uint8_t> data,
                                 std::uint32_t seed) noexcept;

/// One CRC32C kernel, with pdl::core::crc32c's contract.
struct Crc32cKernel {
  const char* name;  ///< "vpclmul512", "sse42" or "portable"
  Crc32c crc;
};

/// The kernels the running CPU supports, fastest first, decided at first
/// call: the front one is what pdl::core::crc32c runs, and "portable" is
/// always last.  Tests and benches run each one.
[[nodiscard]] std::span<const Crc32cKernel> crc32c_kernels() noexcept;

}  // namespace detail

}  // namespace pdl::core
