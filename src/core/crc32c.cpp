#include "core/crc32c.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace pdl::core {

namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // Castagnoli, reflected

/// The eight slicing tables: table[0] is the classic byte-at-a-time
/// table, table[j] advances a byte seen j positions earlier.
struct Tables {
  std::array<std::array<std::uint32_t, 256>, 8> t;

  Tables() noexcept {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit)
        crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
      t[0][i] = crc;
    }
    for (std::uint32_t i = 0; i < 256; ++i)
      for (std::size_t j = 1; j < 8; ++j)
        t[j][i] = (t[j - 1][i] >> 8) ^ t[0][t[j - 1][i] & 0xFFu];
  }
};

const Tables& tables() noexcept {
  static const Tables instance;
  return instance;
}

/// The portable kernel: slicing-by-8 over the raw (pre-inverted) CRC
/// register.
[[nodiscard]] std::uint32_t crc32c_sw(const std::uint8_t* p, std::size_t n,
                                      std::uint32_t crc) noexcept {
  const Tables& tab = tables();
  while (n >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    // Little-endian layout assumed (the library targets x86-64/aarch64
    // Linux); the bytes fold low-to-high through the eight tables.
    word ^= crc;
    crc = tab.t[7][word & 0xFFu] ^ tab.t[6][(word >> 8) & 0xFFu] ^
          tab.t[5][(word >> 16) & 0xFFu] ^ tab.t[4][(word >> 24) & 0xFFu] ^
          tab.t[3][(word >> 32) & 0xFFu] ^ tab.t[2][(word >> 40) & 0xFFu] ^
          tab.t[1][(word >> 48) & 0xFFu] ^ tab.t[0][(word >> 56) & 0xFFu];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) crc = (crc >> 8) ^ tab.t[0][(crc ^ *p++) & 0xFFu];
  return crc;
}

using Kernel = std::uint32_t (*)(const std::uint8_t*, std::size_t,
                                 std::uint32_t) noexcept;

#if defined(__x86_64__)

/// Bytes each of the three interleaved crc32q streams covers per block.
constexpr std::size_t kStride = 256;

/// A linear operator on the CRC register over GF(2), as its 32 columns:
/// column j is the image of register bit j.
using Gf2Matrix = std::array<std::uint32_t, 32>;

constexpr std::uint32_t gf2_times(const Gf2Matrix& mat,
                                  std::uint32_t vec) noexcept {
  std::uint32_t sum = 0;
  for (std::size_t j = 0; vec != 0; ++j, vec >>= 1)
    if (vec & 1u) sum ^= mat[j];
  return sum;
}

constexpr Gf2Matrix gf2_square(const Gf2Matrix& mat) noexcept {
  Gf2Matrix square{};
  for (std::size_t j = 0; j < 32; ++j) square[j] = gf2_times(mat, mat[j]);
  return square;
}

/// Mark Adler's crc32c zeros operator, as four byte-indexed tables:
/// shift(crc) is the register after feeding kStride zero bytes, so the
/// CRC of a‖b is shift(crc(a)) ^ crc_from_zero(b).  The operator for one
/// zero bit is the reflected shift-and-reduce; squaring it doubles the
/// run of zeros, eleven squarings reach 2^11 bits = 256 bytes.
struct ShiftTable {
  std::array<std::array<std::uint32_t, 256>, 4> t{};

  constexpr ShiftTable() noexcept {
    static_assert(kStride == 256, "the squaring count below is log2(8 * 256)");
    Gf2Matrix op{};
    op[0] = kPoly;
    for (std::size_t j = 1; j < 32; ++j) op[j] = 1u << (j - 1);
    for (int doubling = 0; doubling < 11; ++doubling) op = gf2_square(op);
    for (std::uint32_t b = 0; b < 256; ++b)
      for (std::size_t k = 0; k < 4; ++k) t[k][b] = gf2_times(op, b << (8 * k));
  }

  [[nodiscard]] constexpr std::uint32_t shift(std::uint32_t crc) const noexcept {
    return t[0][crc & 0xFFu] ^ t[1][(crc >> 8) & 0xFFu] ^
           t[2][(crc >> 16) & 0xFFu] ^ t[3][crc >> 24];
  }
};

constexpr ShiftTable kShift;

[[nodiscard]] inline std::uint64_t load64(const std::uint8_t* p) noexcept {
  std::uint64_t word;
  std::memcpy(&word, p, 8);
  return word;
}

/// SSE4.2 crc32q.  One stream is bound by the instruction's latency, so
/// every 3 x kStride block runs three independent streams and merges
/// them through kShift; the tail runs as one stream.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    const std::uint8_t* p, std::size_t n, std::uint32_t crc) noexcept {
  std::uint64_t crc0 = crc;
  while (n >= 3 * kStride) {
    std::uint64_t crc1 = 0, crc2 = 0;
    for (const std::uint8_t* end = p + kStride; p < end; p += 8) {
      crc0 = _mm_crc32_u64(crc0, load64(p));
      crc1 = _mm_crc32_u64(crc1, load64(p + kStride));
      crc2 = _mm_crc32_u64(crc2, load64(p + 2 * kStride));
    }
    crc0 = kShift.shift(static_cast<std::uint32_t>(crc0)) ^ crc1;
    crc0 = kShift.shift(static_cast<std::uint32_t>(crc0)) ^ crc2;
    p += 2 * kStride;
    n -= 3 * kStride;
  }
  for (; n >= 8; p += 8, n -= 8) crc0 = _mm_crc32_u64(crc0, load64(p));
  auto crc32 = static_cast<std::uint32_t>(crc0);
  while (n-- > 0) crc32 = _mm_crc32_u8(crc32, *p++);
  return crc32;
}

#endif  // __x86_64__

/// The fastest kernel the running CPU supports, chosen at first call.
Kernel kernel() noexcept {
  static const Kernel chosen = []() -> Kernel {
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("sse4.2")) return &crc32c_sse42;
#endif
    return &crc32c_sw;
  }();
  return chosen;
}

}  // namespace

std::uint32_t crc32c(std::span<const std::uint8_t> data,
                     std::uint32_t seed) noexcept {
  return kernel()(data.data(), data.size(), seed ^ 0xFFFFFFFFu) ^ 0xFFFFFFFFu;
}

namespace detail {

std::uint32_t crc32c_portable(std::span<const std::uint8_t> data,
                              std::uint32_t seed) noexcept {
  return crc32c_sw(data.data(), data.size(), seed ^ 0xFFFFFFFFu) ^
         0xFFFFFFFFu;
}

}  // namespace detail

}  // namespace pdl::core
