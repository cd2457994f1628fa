#include "admm/branch_problem.hpp"

#include <type_traits>

namespace gridadmm::admm {

namespace {

using Lane = tron::Lanes<1>;

/// Calls f(std::integral_constant<int, N>{}) with N = dim (4 or 6).
template <typename F>
decltype(auto) with_dim(int dim, F&& f) {
  if (dim == 6) return f(std::integral_constant<int, 6>{});
  return f(std::integral_constant<int, 4>{});
}

template <int N>
void load_point(std::span<const double> x, Lane (&point)[N]) {
  for (int i = 0; i < N; ++i) point[i] = Lane(x[static_cast<std::size_t>(i)]);
}

}  // namespace

void BranchProblem::bounds(std::span<double> lower, std::span<double> upper) const {
  with_dim(dim(), [&](auto n) {
    constexpr int N = decltype(n)::value;
    Lane lo[N], hi[N];
    lanes_.bounds(lo, hi);
    for (int i = 0; i < N; ++i) {
      lower[static_cast<std::size_t>(i)] = lo[i][0];
      upper[static_cast<std::size_t>(i)] = hi[i][0];
    }
  });
}

double BranchProblem::eval_f(std::span<const double> x) {
  return with_dim(dim(), [&](auto n) {
    constexpr int N = decltype(n)::value;
    Lane point[N];
    load_point(x, point);
    return lanes_.eval_f(point, tron::LaneMask<1>::all())[0];
  });
}

void BranchProblem::eval_gradient(std::span<const double> x, std::span<double> grad) {
  with_dim(dim(), [&](auto n) {
    constexpr int N = decltype(n)::value;
    Lane point[N], g[N] = {};
    load_point(x, point);
    lanes_.eval_f(point, tron::LaneMask<1>::all());
    lanes_.eval_gradient(point, tron::LaneMask<1>::all(), g);
    for (int i = 0; i < N; ++i) grad[static_cast<std::size_t>(i)] = g[i][0];
  });
}

void BranchProblem::eval_hessian(std::span<const double> x, linalg::DenseMatrix& hess) {
  with_dim(dim(), [&](auto n) {
    constexpr int N = decltype(n)::value;
    Lane point[N], h[N][N] = {};
    load_point(x, point);
    lanes_.eval_f(point, tron::LaneMask<1>::all());
    lanes_.eval_hessian(point, tron::LaneMask<1>::all(), h);
    for (int i = 0; i < N; ++i) {
      for (int j = 0; j < N; ++j) hess(i, j) = h[i][j][0];
    }
  });
}

}  // namespace gridadmm::admm
