#pragma once
// Finite (Galois) fields GF(p^m).  Elements are dense indices: the element
// with polynomial representation c_0 + c_1 x + ... + c_{m-1} x^{m-1} over
// Z_p has index c_0 + c_1 p + ... + c_{m-1} p^{m-1}.  Multiplication uses
// discrete log/antilog tables (O(q) memory), so fields up to q ~ 2^20 are
// practical.

#include <cstdint>
#include <memory>
#include <vector>

#include "algebra/polynomial.hpp"
#include "algebra/ring.hpp"

namespace pdl::algebra {

/// The finite field GF(q) for a prime power q = p^m.
class GaloisField final : public Ring {
 public:
  /// Constructs GF(q).  Throws std::invalid_argument if q is not a prime
  /// power >= 2.  For m > 1 a monic irreducible modulus polynomial is found
  /// deterministically, so two GaloisField(q) instances are identical.
  explicit GaloisField(Elem q);

  /// Constructs GF(q) over an explicitly chosen monic irreducible modulus
  /// (degree m, matching characteristic).  Two fields of the same order
  /// built over different moduli are isomorphic but element indices differ,
  /// so callers that pin a byte-level wire format (e.g. the GF(2^8)
  /// Reed-Solomon codec, which wants x^8+x^4+x^3+x^2+1 where x itself is
  /// primitive) use this to fix the representation.  Throws
  /// std::invalid_argument for a non-prime-power q or a modulus that is not
  /// monic irreducible of the right degree over Z_p.
  GaloisField(Elem q, const Polynomial& modulus);

  [[nodiscard]] Elem order() const noexcept override { return q_; }
  [[nodiscard]] Elem add(Elem a, Elem b) const override;
  [[nodiscard]] Elem neg(Elem a) const override;
  [[nodiscard]] Elem mul(Elem a, Elem b) const override;
  [[nodiscard]] Elem one() const noexcept override { return 1; }
  [[nodiscard]] std::optional<Elem> inverse(Elem a) const override;
  [[nodiscard]] std::string name() const override;

  /// The field characteristic p.
  [[nodiscard]] Elem characteristic() const noexcept { return p_; }

  /// A fixed generator of the multiplicative group F* (1 for GF(2), whose
  /// multiplicative group is trivial).
  [[nodiscard]] Elem primitive_element() const noexcept {
    return exp_[1 % (q_ - 1)];
  }

  /// g^i for the primitive element g (i taken mod q-1).
  [[nodiscard]] Elem exp(std::uint64_t i) const noexcept {
    return exp_[i % (q_ - 1)];
  }

  /// Discrete log base g of a nonzero element.
  /// Throws std::invalid_argument on 0.
  [[nodiscard]] std::uint32_t log(Elem a) const;

  /// An element of multiplicative order n; requires n | q-1.
  [[nodiscard]] Elem element_of_multiplicative_order(std::uint32_t n) const;

  /// The elements of the unique subfield of order k = p^d (requires d | m),
  /// sorted ascending.  subfield(q) returns the whole field.
  [[nodiscard]] std::vector<Elem> subfield(Elem k) const;

 private:
  [[nodiscard]] Elem mul_slow(Elem a, Elem b) const;  // polynomial multiply
  void build_tables();

  Elem q_;          // field size p^m
  Elem p_;          // characteristic
  std::uint32_t m_; // extension degree
  Polynomial modulus_;
  std::vector<Elem> exp_;           // exp_[i] = g^i, i in [0, q-1)
  std::vector<std::uint32_t> log_;  // log_[a] for a != 0
};

/// Shared, cached construction of GF(q): building log tables is O(q m^2), so
/// callers constructing many designs over the same field should use this.
[[nodiscard]] std::shared_ptr<const GaloisField> get_field(Elem q);

}  // namespace pdl::algebra
