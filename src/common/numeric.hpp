// Small numeric helpers shared across modules.
#pragma once

#include <algorithm>
#include <cmath>
#include <span>

namespace gridadmm {

/// True when every entry is finite (no NaN/inf) — the input-validation
/// gate for caller-supplied load vectors.
inline bool all_finite(std::span<const double> values) {
  return std::all_of(values.begin(), values.end(), [](double v) { return std::isfinite(v); });
}

}  // namespace gridadmm
