#include "core/codec.hpp"

#include <array>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/gf8.hpp"
#include "core/xor_codec.hpp"

namespace pdl::core {

namespace {

/// Upper bound on unit indices (255 data + 2 parity).
constexpr std::uint32_t kMaxUnits = 257;

/// Validates the common reconstruct() preconditions and returns the unit
/// size.  Shared by both codecs so the contract cannot drift.
std::size_t check_reconstruct(
    std::uint32_t num_data, std::uint32_t num_parity,
    std::span<const std::span<const std::uint8_t>> survivors,
    std::span<const std::uint32_t> survivor_index,
    std::span<const std::uint32_t> erased_index,
    std::span<const std::span<std::uint8_t>> out) {
  // num_data == 0 is legal: short stripes (disk-removal constructions)
  // can spend every content unit on sparing and parity, leaving parities
  // that encode nothing -- constant zero, still rebuildable.
  const std::uint32_t total = num_data + num_parity;
  if (erased_index.size() > num_parity)
    throw std::invalid_argument(
        "Codec::reconstruct: " + std::to_string(erased_index.size()) +
        " erasures exceed the code's tolerance (" +
        std::to_string(num_parity) + ")");
  if (out.size() != erased_index.size())
    throw std::invalid_argument(
        "Codec::reconstruct: out spans must parallel erased_index");
  if (survivors.size() != survivor_index.size())
    throw std::invalid_argument(
        "Codec::reconstruct: survivors must parallel survivor_index");
  if (survivors.size() + erased_index.size() != total)
    throw std::invalid_argument(
        "Codec::reconstruct: survivors + erasures must cover the stripe");
  std::array<std::uint8_t, kMaxUnits> seen{};
  for (const std::uint32_t idx : survivor_index) {
    if (idx >= total || seen[idx]++)
      throw std::invalid_argument(
          "Codec::reconstruct: bad survivor index " + std::to_string(idx));
  }
  for (const std::uint32_t idx : erased_index) {
    if (idx >= total || seen[idx]++)
      throw std::invalid_argument(
          "Codec::reconstruct: bad erased index " + std::to_string(idx));
  }
  // A zero-data stripe may erase EVERY unit at once (no survivors); the
  // unit size is then whatever the caller wants materialized.
  std::size_t unit = survivors.empty() ? 0 : survivors.front().size();
  if (survivors.empty())
    for (const auto o : out)
      if (!o.empty()) {
        unit = o.size();
        break;
      }
  for (const auto s : survivors)
    if (s.size() != unit)
      throw std::invalid_argument("Codec::reconstruct: ragged survivors");
  for (const auto o : out)
    if (!o.empty() && o.size() != unit)
      throw std::invalid_argument("Codec::reconstruct: ragged out spans");
  return unit;
}

/// Grow-only thread-local scratch for decode intermediates (two units).
std::span<std::uint8_t> decode_scratch(std::size_t which, std::size_t size) {
  thread_local std::vector<std::uint8_t> buffers[2];
  auto& buffer = buffers[which];
  if (buffer.size() < size) buffer.resize(size);
  return {buffer.data(), size};
}

// ------------------------------------------------------------- XOR (m = 1)

class XorCodec final : public Codec {
 public:
  [[nodiscard]] CodecKind kind() const noexcept override {
    return CodecKind::kXorParity;
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "xor";
  }
  [[nodiscard]] std::uint32_t num_parity() const noexcept override {
    return 1;
  }
  [[nodiscard]] std::uint32_t max_data_units() const noexcept override {
    return 255;
  }

  void encode(std::span<const std::span<const std::uint8_t>> data,
              std::span<const std::span<std::uint8_t>> parity) const override {
    if (parity.size() != 1)
      throw std::invalid_argument("XorCodec::encode: expects one parity");
    xor_parity_into(parity[0], data);
  }

  void update(std::span<std::uint8_t> parity, std::uint32_t parity_index,
              std::uint32_t data_index,
              std::span<const std::uint8_t> delta) const override {
    (void)data_index;  // every data unit's coefficient is 1
    if (parity_index != 0)
      throw std::invalid_argument("XorCodec::update: parity index not 0");
    xor_into(parity, delta);
  }

  void update_into(std::span<std::uint8_t> out,
                   std::span<const std::uint8_t> parity_old,
                   std::uint32_t parity_index, std::uint32_t data_index,
                   std::span<const std::uint8_t> data_old,
                   std::span<const std::uint8_t> data_new) const override {
    (void)data_index;
    if (parity_index != 0)
      throw std::invalid_argument("XorCodec::update_into: parity index not 0");
    const std::span<const std::uint8_t> srcs[] = {parity_old, data_old,
                                                  data_new};
    xor_parity_into(out, srcs);
  }

  void reconstruct(
      std::uint32_t num_data,
      std::span<const std::span<const std::uint8_t>> survivors,
      std::span<const std::uint32_t> survivor_index,
      std::span<const std::uint32_t> erased_index,
      std::span<const std::span<std::uint8_t>> out) const override {
    check_reconstruct(num_data, 1, survivors, survivor_index, erased_index,
                      out);
    if (erased_index.empty() || out[0].empty()) return;
    if (num_data == 0) {
      // Zero-data stripe: its parity encodes nothing and is constant 0.
      std::memset(out[0].data(), 0, out[0].size());
      return;
    }
    // Self-inverse code: the one missing unit (data or parity alike) is
    // the XOR of all the others.
    xor_reconstruct_into(out[0], survivors);
  }
};

// -------------------------------------------- Reed-Solomon P+Q (m = 2)

class RsCodec final : public Codec {
 public:
  [[nodiscard]] CodecKind kind() const noexcept override {
    return CodecKind::kReedSolomonPQ;
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "rs";
  }
  [[nodiscard]] std::uint32_t num_parity() const noexcept override {
    return 2;
  }
  [[nodiscard]] std::uint32_t max_data_units() const noexcept override {
    return 255;  // alpha^i distinct for i < ord(alpha) = 255
  }

  void encode(std::span<const std::span<const std::uint8_t>> data,
              std::span<const std::span<std::uint8_t>> parity) const override {
    if (parity.size() != 2)
      throw std::invalid_argument("RsCodec::encode: expects two parities");
    if (data.empty() || data.size() > max_data_units())
      throw std::invalid_argument("RsCodec::encode: bad data fan-in");
    xor_parity_into(parity[0], data);  // P = sum d_i
    compute_q(data, parity[1]);
  }

  void update(std::span<std::uint8_t> parity, std::uint32_t parity_index,
              std::uint32_t data_index,
              std::span<const std::uint8_t> delta) const override {
    switch (parity_index) {
      case 0:
        xor_into(parity, delta);  // P coefficient is 1
        return;
      case 1:
        gf8::mul_xor_into(parity, delta, gf8::exp_alpha(data_index));
        return;
      default:
        throw std::invalid_argument("RsCodec::update: parity index not 0/1");
    }
  }

  void update_into(std::span<std::uint8_t> out,
                   std::span<const std::uint8_t> parity_old,
                   std::uint32_t parity_index, std::uint32_t data_index,
                   std::span<const std::uint8_t> data_old,
                   std::span<const std::uint8_t> data_new) const override {
    switch (parity_index) {
      case 0: {
        // P coefficient is 1: one fold over all three units.
        const std::span<const std::uint8_t> srcs[] = {parity_old, data_old,
                                                      data_new};
        xor_parity_into(out, srcs);
        return;
      }
      case 1: {
        const std::span<const std::uint8_t> delta[] = {data_old, data_new};
        xor_parity_into(out, delta);
        gf8::mul_in_place(out, gf8::exp_alpha(data_index));
        xor_into(out, parity_old);
        return;
      }
      default:
        throw std::invalid_argument(
            "RsCodec::update_into: parity index not 0/1");
    }
  }

  void reconstruct(
      std::uint32_t num_data,
      std::span<const std::span<const std::uint8_t>> survivors,
      std::span<const std::uint32_t> survivor_index,
      std::span<const std::uint32_t> erased_index,
      std::span<const std::span<std::uint8_t>> out) const override {
    const std::size_t unit =
        check_reconstruct(num_data, 2, survivors, survivor_index,
                          erased_index, out);
    if (erased_index.empty()) return;
    if (num_data == 0) {
      // Zero-data stripe: P and Q encode nothing and are constant 0.
      for (const auto o : out)
        if (!o.empty()) std::memset(o.data(), 0, o.size());
      return;
    }

    // Sort the stripe's units back into index order.
    std::array<std::span<const std::uint8_t>, kMaxUnits> by_index{};
    for (std::size_t i = 0; i < survivors.size(); ++i)
      by_index[survivor_index[i]] = survivors[i];

    std::uint32_t data_erased[2] = {0, 0};
    std::uint32_t nd = 0;
    bool p_lost = false, q_lost = false;
    for (const std::uint32_t idx : erased_index) {
      if (idx < num_data)
        data_erased[nd++] = idx;
      else if (idx == num_data)
        p_lost = true;
      else
        q_lost = true;
    }
    if (nd == 2 && data_erased[0] > data_erased[1])
      std::swap(data_erased[0], data_erased[1]);

    const auto out_for = [&](std::uint32_t idx) -> std::span<std::uint8_t> {
      for (std::size_t e = 0; e < erased_index.size(); ++e)
        if (erased_index[e] == idx) return out[e];
      return {};
    };

    if (nd == 2) {
      // Both parities survive (<= 2 erasures total).  With x < y erased:
      //   A = P ^ sum(other d_i)           = d_x ^ d_y
      //   B = Q ^ sum(alpha^i other d_i)   = a^x d_x ^ a^y d_y
      //   d_x = (B ^ a^y A) / (a^x ^ a^y),  d_y = A ^ d_x.
      const std::uint32_t x = data_erased[0], y = data_erased[1];
      const auto buf_a = decode_scratch(0, unit);
      const auto buf_b = decode_scratch(1, unit);
      fold_syndromes(by_index, num_data, x, y, buf_a, buf_b);
      const std::uint8_t denom = static_cast<std::uint8_t>(
          gf8::exp_alpha(x) ^ gf8::exp_alpha(y));
      gf8::mul_xor_into(buf_b, buf_a, gf8::exp_alpha(y));
      gf8::mul_in_place(buf_b, gf8::inv(denom));  // buf_b = d_x
      xor_into(buf_a, buf_b);                     // buf_a = d_y
      copy_out(out_for(x), buf_b);
      copy_out(out_for(y), buf_a);
      return;
    }

    if (nd == 1) {
      const std::uint32_t x = data_erased[0];
      const auto dx = decode_scratch(0, unit);
      if (!p_lost) {
        // d_x = P ^ sum(other d_i): one blocked XOR pass.
        std::array<std::span<const std::uint8_t>, kMaxUnits> srcs;
        std::size_t n = 0;
        srcs[n++] = by_index[num_data];  // P
        for (std::uint32_t i = 0; i < num_data; ++i)
          if (i != x) srcs[n++] = by_index[i];
        xor_reconstruct_into(dx, {srcs.data(), n});
      } else {
        // P is the second erasure; decode through Q instead:
        // d_x = (Q ^ sum(alpha^i other d_i)) / alpha^x.
        std::memcpy(dx.data(), by_index[num_data + 1].data(), unit);
        for (std::uint32_t i = 0; i < num_data; ++i)
          if (i != x)
            gf8::mul_xor_into(dx, by_index[i], gf8::exp_alpha(i));
        gf8::mul_in_place(dx, gf8::inv(gf8::exp_alpha(x)));
      }
      copy_out(out_for(x), dx);
      by_index[x] = dx;  // the full data set is now known
      if (p_lost) reencode_p(by_index, num_data, out_for(num_data));
      if (q_lost) reencode_q(by_index, num_data, out_for(num_data + 1));
      return;
    }

    // Only parities erased: every data unit survives; re-encode.
    if (p_lost) reencode_p(by_index, num_data, out_for(num_data));
    if (q_lost) reencode_q(by_index, num_data, out_for(num_data + 1));
  }

 private:
  /// Q = sum alpha^i d_i by Horner's rule: one doubling pass plus one XOR
  /// per data unit, independent of the coefficient values.
  static void compute_q(std::span<const std::span<const std::uint8_t>> data,
                        std::span<std::uint8_t> q) {
    const std::size_t kd = data.size();
    std::memcpy(q.data(), data[kd - 1].data(), q.size());
    for (std::size_t i = kd - 1; i-- > 0;) {
      gf8::mul_in_place(q, gf8::kAlpha);
      xor_into(q, data[i]);
    }
  }

  /// buf_a = P ^ sum(d_i, i not in {x, y}); buf_b = Q ^ sum(alpha^i d_i,
  /// i not in {x, y}) -- the two-erasure syndromes.
  static void fold_syndromes(
      const std::array<std::span<const std::uint8_t>, kMaxUnits>& by_index,
      std::uint32_t num_data, std::uint32_t x, std::uint32_t y,
      std::span<std::uint8_t> buf_a, std::span<std::uint8_t> buf_b) {
    std::array<std::span<const std::uint8_t>, kMaxUnits> srcs;
    std::size_t n = 0;
    srcs[n++] = by_index[num_data];  // P
    for (std::uint32_t i = 0; i < num_data; ++i)
      if (i != x && i != y) srcs[n++] = by_index[i];
    xor_parity_into(buf_a, {srcs.data(), n});

    std::memcpy(buf_b.data(), by_index[num_data + 1].data(), buf_b.size());
    for (std::uint32_t i = 0; i < num_data; ++i)
      if (i != x && i != y)
        gf8::mul_xor_into(buf_b, by_index[i], gf8::exp_alpha(i));
  }

  static void reencode_p(
      const std::array<std::span<const std::uint8_t>, kMaxUnits>& by_index,
      std::uint32_t num_data, std::span<std::uint8_t> out) {
    if (out.empty()) return;
    std::array<std::span<const std::uint8_t>, kMaxUnits> srcs;
    for (std::uint32_t i = 0; i < num_data; ++i) srcs[i] = by_index[i];
    xor_parity_into(out, {srcs.data(), num_data});
  }

  static void reencode_q(
      const std::array<std::span<const std::uint8_t>, kMaxUnits>& by_index,
      std::uint32_t num_data, std::span<std::uint8_t> out) {
    if (out.empty()) return;
    std::array<std::span<const std::uint8_t>, kMaxUnits> srcs;
    for (std::uint32_t i = 0; i < num_data; ++i) srcs[i] = by_index[i];
    compute_q({srcs.data(), num_data}, out);
  }

  static void copy_out(std::span<std::uint8_t> dst,
                       std::span<const std::uint8_t> src) {
    if (!dst.empty()) std::memcpy(dst.data(), src.data(), dst.size());
  }
};

}  // namespace

std::string_view codec_kind_name(CodecKind kind) noexcept {
  switch (kind) {
    case CodecKind::kXorParity: return "xor";
    case CodecKind::kReedSolomonPQ: return "rs";
  }
  return "?";
}

const Codec& xor_codec() noexcept {
  static const XorCodec codec;
  return codec;
}

const Codec& rs_codec() noexcept {
  static const RsCodec codec;
  return codec;
}

const Codec& codec_for(CodecKind kind) noexcept {
  return kind == CodecKind::kReedSolomonPQ ? rs_codec() : xor_codec();
}

}  // namespace pdl::core
