// Artificial-variable and multiplier updates (paper eqs. (6) and (8)).
//
// z update: per pair, min_z  lambda z + beta/2 z^2 + y (r + z) + rho/2 (r+z)^2
// with r = u - v has the closed form z = -(lambda + y + rho r)/(beta + rho).
// y update: y += rho (u - v + z), with z already updated. One fused kernel
// performs both per pair (one device block each) and accumulates the primal
// residual ||u - v + z||_inf and ||z||_inf as per-lane partial maxima so the
// solver loop needs no separate reduction pass.
#pragma once

#include <span>

#include "admm/state.hpp"
#include "device/device.hpp"

namespace gridadmm::admm {

/// Fused z+y update. When `two_level` is false, z stays frozen (one-level
/// ADMM). `partial_primal` / `partial_z` must hold one slot per worker lane
/// with stride 8 doubles (cache-line padding); they are reset on entry.
void update_zy_fused(device::Device& dev, const ComponentModel& model, AdmmState& state,
                     bool two_level, std::span<double> partial_primal,
                     std::span<double> partial_z);

/// Outer multiplier update lambda <- clamp(lambda + beta z) (projection (8)).
void update_outer_multiplier(device::Device& dev, const ComponentModel& model, AdmmState& state,
                             double lambda_bound);

/// Stride (in doubles) between per-lane partial-reduction slots.
inline constexpr int kReduceStride = 8;

}  // namespace gridadmm::admm
