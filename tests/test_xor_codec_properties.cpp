// Property tests for the parity code (Figure 1): randomized round-trips
// across unit sizes from 1 byte to 64 KiB -- parity of k units, drop any
// one, reconstruct bit-exact; xor_into self-inverse; the span-based
// no-copy forms agree with the allocating forms; size-mismatch and
// empty-input precondition checks.

#include "core/xor_codec.hpp"

#include <gtest/gtest.h>

#include <random>
#include <stdexcept>
#include <vector>

namespace pdl::core {
namespace {

std::vector<std::uint8_t> random_unit(std::size_t size, std::mt19937_64& rng) {
  std::vector<std::uint8_t> unit(size);
  for (auto& byte : unit) byte = static_cast<std::uint8_t>(rng());
  return unit;
}

constexpr std::size_t kUnitSizes[] = {1, 2, 3, 7, 16, 64, 512, 4096, 65536};

TEST(XorCodecProperties, AnyDroppedUnitReconstructsBitExact) {
  std::mt19937_64 rng(0xC0DEC);
  for (const std::size_t size : kUnitSizes) {
    const std::size_t k = 2 + rng() % 7;  // stripe widths 2..8
    std::vector<std::vector<std::uint8_t>> data;
    for (std::size_t i = 0; i < k; ++i) data.push_back(random_unit(size, rng));
    const auto parity = xor_parity(data);

    // Drop each data unit in turn: survivors = other data + parity.
    for (std::size_t lost = 0; lost < k; ++lost) {
      std::vector<std::vector<std::uint8_t>> survivors;
      for (std::size_t i = 0; i < k; ++i)
        if (i != lost) survivors.push_back(data[i]);
      survivors.push_back(parity);
      EXPECT_EQ(xor_reconstruct(survivors), data[lost])
          << "size " << size << " lost " << lost;
    }
    // Drop the parity unit: survivors = all data.
    EXPECT_EQ(xor_reconstruct(data), parity) << "size " << size;
  }
}

TEST(XorCodecProperties, SpanFormsAgreeWithAllocatingForms) {
  std::mt19937_64 rng(0xBEEF);
  for (const std::size_t size : kUnitSizes) {
    const std::size_t k = 2 + rng() % 6;
    std::vector<std::vector<std::uint8_t>> data;
    for (std::size_t i = 0; i < k; ++i) data.push_back(random_unit(size, rng));

    std::vector<std::span<const std::uint8_t>> views;
    for (const auto& unit : data) views.emplace_back(unit);

    std::vector<std::uint8_t> dst = random_unit(size, rng);  // pre-dirtied
    xor_parity_into(dst, views);
    EXPECT_EQ(dst, xor_parity(data)) << "size " << size;

    std::vector<std::uint8_t> rebuilt(size, 0xAA);
    xor_reconstruct_into(rebuilt, views);
    EXPECT_EQ(rebuilt, xor_reconstruct(data)) << "size " << size;
  }
}

TEST(XorCodecProperties, XorIntoIsSelfInverse) {
  std::mt19937_64 rng(0xF00D);
  for (const std::size_t size : kUnitSizes) {
    const auto original = random_unit(size, rng);
    auto other = random_unit(size, rng);
    other[0] |= 1;  // never the identity mask
    auto unit = original;
    xor_into(unit, other);
    EXPECT_NE(unit, original);
    xor_into(unit, other);
    EXPECT_EQ(unit, original) << "size " << size;
  }
}

TEST(XorCodecProperties, ParityOfSingleUnitIsTheUnit) {
  std::mt19937_64 rng(7);
  const std::vector<std::vector<std::uint8_t>> one = {random_unit(128, rng)};
  EXPECT_EQ(xor_parity(one), one.front());
}

TEST(XorCodecProperties, SizeMismatchesThrow) {
  std::vector<std::uint8_t> a(4, 1);
  const std::vector<std::uint8_t> b(3, 1);
  EXPECT_THROW(xor_into(a, b), std::invalid_argument);

  const std::vector<std::vector<std::uint8_t>> ragged = {{1, 2, 3}, {1, 2}};
  EXPECT_THROW(xor_parity(ragged), std::invalid_argument);
  EXPECT_THROW(xor_reconstruct(ragged), std::invalid_argument);

  std::vector<std::uint8_t> dst(3, 0);
  const std::vector<std::uint8_t> unit(2, 0);
  const std::vector<std::span<const std::uint8_t>> views = {unit};
  EXPECT_THROW(xor_parity_into(dst, views), std::invalid_argument);
}

TEST(XorCodecProperties, EmptyInputsThrow) {
  EXPECT_THROW(xor_parity({}), std::invalid_argument);
  EXPECT_THROW(xor_reconstruct({}), std::invalid_argument);
  std::vector<std::uint8_t> dst(8, 0);
  EXPECT_THROW(xor_parity_into(dst, {}), std::invalid_argument);
  EXPECT_THROW(xor_reconstruct_into(dst, {}), std::invalid_argument);
}

// ------------------------------------------------------------------
// Fold-vs-scalar differential: the kernel chosen at run time and the
// portable fold must agree byte-for-byte with the detail:: scalar
// reference loops on every size class (byte tails, sizes around the
// portable 64-byte and the AVX2 128-byte steps) and every
// misalignment.

TEST(XorCodecProperties, VectorizedXorIntoMatchesScalarReference) {
  std::mt19937_64 rng(0x51AD);
  constexpr std::size_t kSizes[] = {
      0,   1,   7,   8,   9,   15,  16,  31,  32,   33,   63,   64,    65,
      127, 128, 129, 200, 255, 256, 257, 511, 512, 513,  4095, 4096, 4097,
      65536, 65537};
  for (const std::size_t size : kSizes) {
    for (const std::size_t misalign : {0u, 1u, 3u, 7u}) {
      // Carve misaligned windows out of larger buffers.
      auto dst_buf = random_unit(size + misalign, rng);
      auto src_buf = random_unit(size + misalign, rng);
      std::vector<std::uint8_t> dst_vec(dst_buf.begin() + misalign,
                                        dst_buf.end());
      std::vector<std::uint8_t> dst_portable = dst_vec;
      std::vector<std::uint8_t> dst_scalar = dst_vec;
      const std::span<const std::uint8_t> src{src_buf.data() + misalign,
                                              size};
      xor_into(dst_vec, src);
      const std::span<const std::uint8_t> pair[] = {dst_portable, src};
      detail::xor_parity_into_portable(dst_portable, pair);
      detail::xor_into_scalar(dst_scalar, src);
      EXPECT_EQ(dst_vec, dst_scalar)
          << "size " << size << " misalign " << misalign;
      EXPECT_EQ(dst_portable, dst_scalar)
          << "portable size " << size << " misalign " << misalign;
    }
  }
}

TEST(XorCodecProperties, VectorizedParityMatchesScalarReference) {
  std::mt19937_64 rng(0xB10C);
  constexpr std::size_t kSizes[] = {1,   7,   31,  32,  33,  63,
                                    64,  65,  127, 128, 129, 255,
                                    256, 257, 500, 4096, 65537};
  for (const std::size_t size : kSizes) {
    for (const std::size_t misalign : {0u, 1u, 3u, 7u}) {
      for (std::size_t fan_in = 1; fan_in <= 9; ++fan_in) {
        // Each source is a misaligned window into a larger buffer.
        std::vector<std::vector<std::uint8_t>> data;
        for (std::size_t i = 0; i < fan_in; ++i)
          data.push_back(random_unit(size + misalign, rng));
        std::vector<std::span<const std::uint8_t>> views;
        for (const auto& unit : data)
          views.emplace_back(unit.data() + misalign, size);

        auto dst_vec = random_unit(size, rng);  // pre-dirtied
        auto dst_portable = random_unit(size, rng);
        auto dst_scalar = random_unit(size, rng);
        xor_parity_into(dst_vec, views);
        detail::xor_parity_into_portable(dst_portable, views);
        detail::xor_parity_into_scalar(dst_scalar, views);
        EXPECT_EQ(dst_vec, dst_scalar) << "size " << size << " misalign "
                                       << misalign << " fan_in " << fan_in;
        EXPECT_EQ(dst_portable, dst_scalar)
            << "portable size " << size << " misalign " << misalign
            << " fan_in " << fan_in;
      }
    }
  }
}

TEST(XorCodecProperties, ParityIntoToleratesDstAliasingAUnit) {
  // The store's read-modify-write folds parity in place: dst is also one
  // of the units.  Each kernel must behave as if sources were
  // snapshotted first, whichever position dst takes, on sizes that run
  // every step of both folds.
  using Fold = void (*)(std::span<std::uint8_t>,
                        std::span<const std::span<const std::uint8_t>>);
  const Fold folds[] = {xor_parity_into, detail::xor_parity_into_portable};
  std::mt19937_64 rng(0xA11A5);
  for (const std::size_t size : {64u, 96u, 129u, 200u, 4096u, 4129u}) {
    for (const Fold fold : folds) {
      for (std::size_t alias = 0; alias < 3; ++alias) {
        std::vector<std::vector<std::uint8_t>> units;
        for (std::size_t i = 0; i < 3; ++i)
          units.push_back(random_unit(size, rng));
        auto expected = units[0];
        detail::xor_into_scalar(expected, units[1]);
        detail::xor_into_scalar(expected, units[2]);

        const std::vector<std::span<const std::uint8_t>> views = {
            units[0], units[1], units[2]};
        fold(units[alias], views);
        EXPECT_EQ(units[alias], expected)
            << "size " << size << " alias " << alias;
      }
    }
    // xor_into with dst as its own source: every byte cancels.
    auto unit = random_unit(size, rng);
    xor_into(unit, unit);
    EXPECT_EQ(unit, std::vector<std::uint8_t>(size, 0)) << "size " << size;
  }
}

TEST(XorCodecProperties, ZeroLengthUnitsAreLegal) {
  // Degenerate but well-formed: zero-byte units round-trip trivially.
  const std::vector<std::vector<std::uint8_t>> units = {{}, {}};
  EXPECT_TRUE(xor_parity(units).empty());
  std::vector<std::uint8_t> dst;
  const std::vector<std::uint8_t> empty;
  const std::vector<std::span<const std::uint8_t>> views = {empty};
  xor_parity_into(dst, views);
  EXPECT_TRUE(dst.empty());
}

}  // namespace
}  // namespace pdl::core
