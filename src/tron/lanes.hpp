// Lane packs for lockstep solvers: W doubles (Lanes<W>) or W predicates
// (LaneMask<W>), one per SIMD lane, with elementwise operators.
//
// A pack is stored as W / P chunks of P lanes: P = 2 (one SSE2 register,
// a GCC/Clang generic vector of two doubles) for even W, and P = 1 (a
// plain double) for W = 1. Every operator is elementwise IEEE arithmetic
// or an exact bitwise select, so lane l of any expression has bitwise the
// value the same expression has on scalars — the property the lockstep
// solver's bit-identity rests on (tron/lockstep_tron.hpp). The chunk types
// are generic vectors, not target intrinsics: the compiler lowers them for
// whatever the build targets (packed SSE2 on baseline x86-64).
//
// Predicates are full-width lane masks (all ones / all zeros) produced by
// the packed compares, so combining and selecting stay in vector registers.
#pragma once

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <type_traits>

namespace gridadmm::tron {

namespace lanes_detail {

typedef double Double2 __attribute__((vector_size(16)));
typedef std::int64_t Mask2 __attribute__((vector_size(16)));

// Chunk-level primitives, overloaded for the two chunk shapes: a packed
// pair (Double2 / Mask2) and a scalar (double / std::uint64_t).
inline Mask2 lt(Double2 a, Double2 b) { return a < b; }
inline Mask2 le(Double2 a, Double2 b) { return a <= b; }
inline Mask2 ne(Double2 a, Double2 b) { return a != b; }
inline std::uint64_t lt(double a, double b) { return a < b ? ~std::uint64_t{0} : 0; }
inline std::uint64_t le(double a, double b) { return a <= b ? ~std::uint64_t{0} : 0; }
inline std::uint64_t ne(double a, double b) { return a != b ? ~std::uint64_t{0} : 0; }

inline Double2 blend(Mask2 m, Double2 a, Double2 b) {
  return reinterpret_cast<Double2>((reinterpret_cast<Mask2>(a) & m) |
                                   (reinterpret_cast<Mask2>(b) & ~m));
}
inline double blend(std::uint64_t m, double a, double b) { return m != 0 ? a : b; }

inline Double2 fabs(Double2 a) {
  const Mask2 magnitude = {INT64_MAX, INT64_MAX};
  return reinterpret_cast<Double2>(reinterpret_cast<Mask2>(a) & magnitude);
}
inline double fabs(double a) { return std::fabs(a); }

template <int W>
struct Shape {
  static_assert(W == 1 || W % 2 == 0, "lane packs are 1 or an even number of lanes wide");
  static constexpr int kPerChunk = W == 1 ? 1 : 2;
  static constexpr int kChunks = W / kPerChunk;
  using Data = std::conditional_t<W == 1, double, Double2>;
  using Bits = std::conditional_t<W == 1, std::uint64_t, Mask2>;
};

}  // namespace lanes_detail

template <int W>
struct LaneMask;

/// W doubles, one per lane. Default construction leaves the lanes
/// uninitialized (like double); Lanes<W>(x) broadcasts x.
template <int W>
struct Lanes {
  using Shape = lanes_detail::Shape<W>;
  typename Shape::Data c[Shape::kChunks];

  Lanes() = default;
  explicit Lanes(double x) {
    if constexpr (W == 1) {
      c[0] = x;
    } else {
      for (auto& chunk : c) chunk = lanes_detail::Double2{x, x};
    }
  }

  [[nodiscard]] double operator[](int l) const {
    if constexpr (W == 1) {
      return c[0];
    } else {
      return c[l / 2][l % 2];
    }
  }
  void set(int l, double x) {
    if constexpr (W == 1) {
      c[0] = x;
    } else {
      c[l / 2][l % 2] = x;
    }
  }

  template <typename F>
  friend Lanes map2(const Lanes& a, const Lanes& b, F f) {
    Lanes r;
    for (int k = 0; k < Shape::kChunks; ++k) r.c[k] = f(a.c[k], b.c[k]);
    return r;
  }
  friend Lanes operator+(const Lanes& a, const Lanes& b) {
    return map2(a, b, [](auto x, auto y) { return x + y; });
  }
  friend Lanes operator-(const Lanes& a, const Lanes& b) {
    return map2(a, b, [](auto x, auto y) { return x - y; });
  }
  friend Lanes operator*(const Lanes& a, const Lanes& b) {
    return map2(a, b, [](auto x, auto y) { return x * y; });
  }
  friend Lanes operator/(const Lanes& a, const Lanes& b) {
    return map2(a, b, [](auto x, auto y) { return x / y; });
  }
  friend Lanes operator-(const Lanes& a) {
    Lanes r;
    for (int k = 0; k < Shape::kChunks; ++k) r.c[k] = -a.c[k];
    return r;
  }
  // A scalar operand is broadcast: `0.5 * v` is lane-wise 0.5 * v[l].
  friend Lanes operator+(const Lanes& a, double b) { return a + Lanes(b); }
  friend Lanes operator-(const Lanes& a, double b) { return a - Lanes(b); }
  friend Lanes operator*(double a, const Lanes& b) { return Lanes(a) * b; }
  friend Lanes operator*(const Lanes& a, double b) { return a * Lanes(b); }

  friend LaneMask<W> operator<(const Lanes& a, const Lanes& b) {
    LaneMask<W> m;
    for (int k = 0; k < Shape::kChunks; ++k) m.c[k] = lanes_detail::lt(a.c[k], b.c[k]);
    return m;
  }
  friend LaneMask<W> operator<=(const Lanes& a, const Lanes& b) {
    LaneMask<W> m;
    for (int k = 0; k < Shape::kChunks; ++k) m.c[k] = lanes_detail::le(a.c[k], b.c[k]);
    return m;
  }
  friend LaneMask<W> operator!=(const Lanes& a, const Lanes& b) {
    LaneMask<W> m;
    for (int k = 0; k < Shape::kChunks; ++k) m.c[k] = lanes_detail::ne(a.c[k], b.c[k]);
    return m;
  }
  friend LaneMask<W> operator>(const Lanes& a, const Lanes& b) { return b < a; }
  friend LaneMask<W> operator>=(const Lanes& a, const Lanes& b) { return b <= a; }
  friend LaneMask<W> operator<(const Lanes& a, double b) { return a < Lanes(b); }
  friend LaneMask<W> operator<=(const Lanes& a, double b) { return a <= Lanes(b); }
  friend LaneMask<W> operator>(const Lanes& a, double b) { return a > Lanes(b); }
  friend LaneMask<W> operator!=(const Lanes& a, double b) { return a != Lanes(b); }
};

/// W lane predicates (all ones = on). Default construction: every lane off.
template <int W>
struct LaneMask {
  using Shape = lanes_detail::Shape<W>;
  typename Shape::Bits c[Shape::kChunks] = {};

  /// Every lane on.
  static LaneMask all() { return ~LaneMask{}; }

  [[nodiscard]] bool operator[](int l) const {
    if constexpr (W == 1) {
      return c[0] != 0;
    } else {
      return c[l / 2][l % 2] != 0;
    }
  }
  void set(int l, bool on) {
    const std::int64_t bits = on ? -1 : 0;
    if constexpr (W == 1) {
      c[0] = static_cast<std::uint64_t>(bits);
    } else {
      c[l / 2][l % 2] = bits;
    }
  }
  [[nodiscard]] bool any() const {
    bool on = false;
    for (int l = 0; l < W; ++l) on |= (*this)[l];
    return on;
  }
  [[nodiscard]] int count() const {
    int n = 0;
    for (int l = 0; l < W; ++l) n += (*this)[l] ? 1 : 0;
    return n;
  }

  friend LaneMask operator&(const LaneMask& a, const LaneMask& b) {
    LaneMask r;
    for (int k = 0; k < Shape::kChunks; ++k) r.c[k] = a.c[k] & b.c[k];
    return r;
  }
  friend LaneMask operator|(const LaneMask& a, const LaneMask& b) {
    LaneMask r;
    for (int k = 0; k < Shape::kChunks; ++k) r.c[k] = a.c[k] | b.c[k];
    return r;
  }
  friend LaneMask operator^(const LaneMask& a, const LaneMask& b) {
    LaneMask r;
    for (int k = 0; k < Shape::kChunks; ++k) r.c[k] = a.c[k] ^ b.c[k];
    return r;
  }
  friend LaneMask operator~(const LaneMask& a) {
    LaneMask r;
    for (int k = 0; k < Shape::kChunks; ++k) r.c[k] = ~a.c[k];
    return r;
  }
  LaneMask& operator&=(const LaneMask& b) { return *this = *this & b; }
  LaneMask& operator|=(const LaneMask& b) { return *this = *this | b; }
};

/// Exactly `m ? a : b` in every lane: a bit copy of one operand.
template <int W>
Lanes<W> select(const LaneMask<W>& m, const Lanes<W>& a, const Lanes<W>& b) {
  Lanes<W> r;
  for (int k = 0; k < lanes_detail::Shape<W>::kChunks; ++k) {
    r.c[k] = lanes_detail::blend(m.c[k], a.c[k], b.c[k]);
  }
  return r;
}

/// std::max(a, b) lane-wise: (a < b) ? b : a.
template <int W>
Lanes<W> max(const Lanes<W>& a, const Lanes<W>& b) {
  return select(a < b, b, a);
}

/// std::min(a, b) lane-wise: (b < a) ? b : a.
template <int W>
Lanes<W> min(const Lanes<W>& a, const Lanes<W>& b) {
  return select(b < a, b, a);
}

template <int W>
Lanes<W> abs(const Lanes<W>& a) {
  Lanes<W> r;
  for (int k = 0; k < lanes_detail::Shape<W>::kChunks; ++k) r.c[k] = lanes_detail::fabs(a.c[k]);
  return r;
}

template <int W>
Lanes<W> sqrt(const Lanes<W>& a) {
  Lanes<W> r;
  for (int l = 0; l < W; ++l) r.set(l, std::sqrt(a[l]));
  return r;
}

/// std::isfinite lane-wise.
template <int W>
LaneMask<W> isfinite(const Lanes<W>& a) {
  return abs(a) <= Lanes<W>(DBL_MAX);
}

}  // namespace gridadmm::tron
