#pragma once
// Cross products of rings (Lemma 3 of the paper): for composite v with
// prime-power factorization p_1^e_1 ... p_n^e_n, the cross product of the
// fields GF(p_i^e_i) is a ring of order v containing a generator set of the
// maximum possible size M(v) = min_i p_i^e_i (Theorem 2).

#include <memory>
#include <vector>

#include "algebra/ring.hpp"

namespace pdl::algebra {

/// The cross product R_1 x ... x R_n with componentwise operations.
/// Element indices use mixed-radix encoding, little-endian in the component
/// order: index = c_0 + c_1*|R_1| + c_2*|R_1||R_2| + ...
class ProductRing final : public Ring {
 public:
  /// Takes ownership of at least one component ring.  The product of the
  /// component orders must fit in Elem.
  explicit ProductRing(std::vector<std::unique_ptr<const Ring>> components);

  [[nodiscard]] Elem order() const noexcept override { return order_; }
  [[nodiscard]] Elem add(Elem a, Elem b) const override;
  [[nodiscard]] Elem neg(Elem a) const override;
  [[nodiscard]] Elem mul(Elem a, Elem b) const override;
  [[nodiscard]] Elem one() const noexcept override { return one_; }
  [[nodiscard]] std::optional<Elem> inverse(Elem a) const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] const Ring& component(std::size_t i) const {
    return *components_.at(i);
  }

  /// Splits an index into per-component element indices.
  [[nodiscard]] std::vector<Elem> decompose(Elem a) const;

  /// Inverse of decompose.
  [[nodiscard]] Elem compose(std::span<const Elem> parts) const;

 private:
  std::vector<std::unique_ptr<const Ring>> components_;
  std::vector<Elem> strides_;
  Elem order_ = 1;
  Elem one_ = 0;
};

/// A ring packaged with a generator set for ring-based block designs.
struct RingWithGenerators {
  std::shared_ptr<const Ring> ring;
  /// Generators g_0, ..., g_{M(v)-1}: all pairwise differences are units.
  /// Any prefix of size k (2 <= k <= M(v)) is a valid generator set.
  std::vector<Elem> generators;
};

/// Builds the canonical order-v ring of Lemma 3 -- GF(v) when v is a prime
/// power, otherwise the cross product of the prime-power fields of v --
/// together with a maximum-size generator set (|G| = M(v)).
/// Requires v >= 2.
[[nodiscard]] RingWithGenerators make_ring_with_generators(std::uint64_t v);

}  // namespace pdl::algebra
