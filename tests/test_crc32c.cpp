// Known-answer and differential suite for core::crc32c.
//
// The checksums are a persisted format (the integrity layer's per-unit
// CRC words, the FileBackend journal's record CRC), so every kernel is
// pinned to the RFC 3720 test vectors and the standard check value.
// The run-time-chosen kernel, the portable slicing-by-8 kernel and a
// bitwise loop written here are proved equal on every size up to
// 2,400 bytes and around 4 KiB at eight base offsets -- crossing every
// edge of the three-stream kernel's 3 x 256-byte blocks -- and a seeded
// continuation is proved equal to the one-shot CRC at every split.

#include "core/crc32c.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <span>
#include <string_view>
#include <vector>

namespace pdl::core {
namespace {

using Crc = std::uint32_t (*)(std::span<const std::uint8_t>,
                              std::uint32_t) noexcept;

/// The kernels under test, by name.
struct Kernel {
  const char* name;
  Crc crc;
};
const Kernel kKernels[] = {{"dispatched", &crc32c},
                           {"portable", &detail::crc32c_portable}};

/// Bit-at-a-time CRC32C: the definition, with no table or instruction to
/// share a mistake with.
std::uint32_t crc32c_bitwise(std::span<const std::uint8_t> data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::uint8_t byte : data) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit)
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> random_bytes(std::size_t size, std::mt19937_64& rng) {
  std::vector<std::uint8_t> bytes(size);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
  return bytes;
}

TEST(Crc32c, Rfc3720Vectors) {
  // RFC 3720 section B.4: 32-byte iSCSI test vectors.
  std::vector<std::uint8_t> zeros(32, 0x00), ones(32, 0xFF), up(32), down(32);
  for (std::size_t i = 0; i < 32; ++i) {
    up[i] = static_cast<std::uint8_t>(i);
    down[i] = static_cast<std::uint8_t>(31 - i);
  }
  for (const Kernel& k : kKernels) {
    SCOPED_TRACE(k.name);
    EXPECT_EQ(k.crc(zeros, 0), 0x8A9136AAu);
    EXPECT_EQ(k.crc(ones, 0), 0x62A8AB43u);
    EXPECT_EQ(k.crc(up, 0), 0x46DD794Eu);
    EXPECT_EQ(k.crc(down, 0), 0x113FDB5Cu);
  }
}

TEST(Crc32c, CheckValue) {
  constexpr std::string_view kCheck = "123456789";
  const std::span<const std::uint8_t> bytes{
      reinterpret_cast<const std::uint8_t*>(kCheck.data()), kCheck.size()};
  EXPECT_EQ(crc32c_bitwise(bytes), 0xE3069283u);
  for (const Kernel& k : kKernels) {
    SCOPED_TRACE(k.name);
    EXPECT_EQ(k.crc(bytes, 0), 0xE3069283u);
    EXPECT_EQ(k.crc({}, 0), 0u);
  }
}

TEST(Crc32c, SeededContinuationEqualsOneShotAtEverySplit) {
  std::mt19937_64 rng(0xC4C32C);
  const auto buffer = random_bytes(1000, rng);
  const std::span<const std::uint8_t> all{buffer};
  for (const Kernel& k : kKernels) {
    const std::uint32_t one_shot = k.crc(all, 0);
    for (std::size_t split = 0; split <= all.size(); ++split)
      ASSERT_EQ(k.crc(all.subspan(split), k.crc(all.first(split), 0)),
                one_shot)
          << k.name << " split " << split;
  }
}

TEST(Crc32c, KernelsAgreeOnEverySizeAndOffset) {
  std::mt19937_64 rng(0x3C0DE);
  const auto backing = random_bytes(4097 + 8, rng);
  const auto check = [&](std::size_t size) {
    for (std::size_t offset = 0; offset < 8; ++offset) {
      const std::span<const std::uint8_t> data{backing.data() + offset, size};
      const std::uint32_t expected = crc32c_bitwise(data);
      ASSERT_EQ(detail::crc32c_portable(data), expected)
          << "portable size " << size << " offset " << offset;
      ASSERT_EQ(crc32c(data), expected)
          << "dispatched size " << size << " offset " << offset;
    }
  };
  for (std::size_t size = 0; size <= 2400; ++size) check(size);
  for (std::size_t size = 4095; size <= 4097; ++size) check(size);
}

}  // namespace
}  // namespace pdl::core
