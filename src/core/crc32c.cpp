#include "core/crc32c.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
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

/// One crc32q stream over `n` bytes, then bytes.
__attribute__((target("sse4.2"))) inline std::uint32_t crc32q_stream(
    const std::uint8_t* p, std::size_t n, std::uint64_t crc) noexcept {
  for (; n >= 8; p += 8, n -= 8) crc = _mm_crc32_u64(crc, load64(p));
  auto crc32 = static_cast<std::uint32_t>(crc);
  while (n-- > 0) crc32 = _mm_crc32_u8(crc32, *p++);
  return crc32;
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
  return crc32q_stream(p, n, crc0);
}

/// x^n mod P as the 64-bit operand of a reflected carry-less multiply:
/// the coefficient of x^m sits at bit 63 - m.
constexpr std::uint64_t xpow_mod(std::size_t n) noexcept {
  std::uint32_t r = 0x80000000u;  // x^0 in the reflected register
  for (; n > 0; --n) r = (r >> 1) ^ ((r & 1u) ? kPoly : 0u);
  return static_cast<std::uint64_t>(r) << 32;
}

/// The two constants that fold a 128-bit lane forward by `lanes` lanes.
struct FoldPair {
  std::uint64_t lo;  ///< x^(128 lanes + 63) mod P, for the lane's low qword
  std::uint64_t hi;  ///< x^(128 lanes - 1) mod P, for its high qword
};

constexpr FoldPair fold_pair(std::size_t lanes) noexcept {
  return {xpow_mod(128 * lanes + 63), xpow_mod(128 * lanes - 1)};
}

constexpr FoldPair kFold1 = fold_pair(1);
constexpr FoldPair kFold2 = fold_pair(2);
constexpr FoldPair kFold3 = fold_pair(3);
constexpr FoldPair kFold4 = fold_pair(4);
constexpr FoldPair kFold8 = fold_pair(8);
constexpr FoldPair kFold12 = fold_pair(12);
constexpr FoldPair kFold16 = fold_pair(16);

/// `k` in every 128-bit lane.
__attribute__((target("avx512f"))) inline __m512i broadcast(
    FoldPair k) noexcept {
  const auto lo = static_cast<long long>(k.lo);
  const auto hi = static_cast<long long>(k.hi);
  return _mm512_set_epi64(hi, lo, hi, lo, hi, lo, hi, lo);
}

/// Each 128-bit lane of `x` multiplied forward by its lane of `k`.
__attribute__((target("avx512f,vpclmulqdq"))) inline __m512i fold(
    __m512i x, __m512i k) noexcept {
  return _mm512_xor_si512(_mm512_clmulepi64_epi128(x, k, 0x00),
                          _mm512_clmulepi64_epi128(x, k, 0x11));
}

/// fold(x, k) ^ y as one three-way XOR.
__attribute__((target("avx512f,vpclmulqdq"))) inline __m512i fold_into(
    __m512i x, __m512i k, __m512i y) noexcept {
  return _mm512_ternarylogic_epi64(_mm512_clmulepi64_epi128(x, k, 0x00),
                                   _mm512_clmulepi64_epi128(x, k, 0x11), y,
                                   0x96);
}

/// AVX-512 VPCLMULQDQ.  Four 512-bit accumulators carry the message 256
/// bytes per step: each 128-bit lane is multiplied forward by 2048 bits
/// (to the same lane of the next block) and XORed with the new bytes.
/// The end of the last block is one 128-bit remainder congruent to the
/// message, which two crc32q reduce; a tail under 256 bytes runs on
/// crc32q.  Reads stay inside [p, p + n).
///
/// Why FoldPair's exponents: a lane's low qword holds the earlier bytes,
/// so moving the lane D bits forward multiplies the low qword by
/// x^(D+64) and the high one by x^D; a reflected carry-less product
/// lands one degree high, so each constant is one power lower.
__attribute__((target("avx512f,vpclmulqdq,sse4.2"))) std::uint32_t
crc32c_vpclmul512(const std::uint8_t* p, std::size_t n,
                  std::uint32_t crc) noexcept {
  constexpr std::size_t kBlock = 256;
  std::uint64_t crc0 = crc;
  if (n >= kBlock) {
    // The register enters as an XOR into the first four bytes.
    __m512i x0 = _mm512_xor_si512(_mm512_loadu_si512(p),
                                  _mm512_set_epi64(0, 0, 0, 0, 0, 0, 0,
                                                   static_cast<long long>(crc)));
    __m512i x1 = _mm512_loadu_si512(p + 64);
    __m512i x2 = _mm512_loadu_si512(p + 128);
    __m512i x3 = _mm512_loadu_si512(p + 192);
    p += kBlock;
    n -= kBlock;

    const __m512i k16 = broadcast(kFold16);
    for (; n >= kBlock; p += kBlock, n -= kBlock) {
      x0 = fold_into(x0, k16, _mm512_loadu_si512(p));
      x1 = fold_into(x1, k16, _mm512_loadu_si512(p + 64));
      x2 = fold_into(x2, k16, _mm512_loadu_si512(p + 128));
      x3 = fold_into(x3, k16, _mm512_loadu_si512(p + 192));
    }

    // x0..x2 fold onto x3 (12, 8 and 4 lanes ahead), then x3's lanes 0-2
    // fold onto its lane 3 while lane 3 passes through unmultiplied.
    x3 = _mm512_ternarylogic_epi64(fold(x0, broadcast(kFold12)),
                                   fold(x1, broadcast(kFold8)),
                                   fold_into(x2, broadcast(kFold4), x3), 0x96);
    const __m512i to_lane3 = _mm512_set_epi64(
        0, 0, static_cast<long long>(kFold1.hi),
        static_cast<long long>(kFold1.lo), static_cast<long long>(kFold2.hi),
        static_cast<long long>(kFold2.lo), static_cast<long long>(kFold3.hi),
        static_cast<long long>(kFold3.lo));
    alignas(64) std::uint64_t q[8]{};
    _mm512_store_si512(
        q, fold_into(x3, to_lane3, _mm512_maskz_mov_epi64(0xC0, x3)));
    crc0 = _mm_crc32_u64(_mm_crc32_u64(0, q[0] ^ q[2] ^ q[4] ^ q[6]),
                         q[1] ^ q[3] ^ q[5] ^ q[7]);
  }
  return crc32q_stream(p, n, crc0);
}

#endif  // __x86_64__

/// A kernel behind pdl::core::crc32c's contract: the seed is a finished
/// CRC, the kernels run on the inverted register.
template <Kernel K>
std::uint32_t seeded(std::span<const std::uint8_t> data,
                     std::uint32_t seed) noexcept {
  return K(data.data(), data.size(), seed ^ 0xFFFFFFFFu) ^ 0xFFFFFFFFu;
}

}  // namespace

namespace detail {

std::span<const Crc32cKernel> crc32c_kernels() noexcept {
  struct Supported {
    std::array<Crc32cKernel, 3> kernels{};
    std::size_t count = 0;
  };
  static const Supported supported = [] {
    Supported s;
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("sse4.2")) {
      if (__builtin_cpu_supports("avx512f") &&
          __builtin_cpu_supports("vpclmulqdq"))
        s.kernels[s.count++] = {"vpclmul512", &seeded<&crc32c_vpclmul512>};
      s.kernels[s.count++] = {"sse42", &seeded<&crc32c_sse42>};
    }
#endif
    s.kernels[s.count++] = {"portable", &seeded<&crc32c_sw>};
    return s;
  }();
  return {supported.kernels.data(), supported.count};
}

}  // namespace detail

std::uint32_t crc32c(std::span<const std::uint8_t> data,
                     std::uint32_t seed) noexcept {
  static const detail::Crc32c chosen = detail::crc32c_kernels().front().crc;
  return chosen(data, seed);
}

}  // namespace pdl::core
