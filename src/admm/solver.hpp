// Two-level ADMM solver for ACOPF (paper Algorithm 1).
//
// Outer loop: augmented Lagrangian on z = 0 (multiplier lambda, penalty
// beta). Inner loop: ADMM over the component decomposition
//   x-update   : generators (closed form) and branches (TRON)
//   xbar-update: buses (closed form, eq. (7))
//   z-update   : closed form (eq. (6))
//   y-update   : eq. (8)
// All state is device-resident. Each inner iteration is two launches
// (admm/step_kernels.hpp): the x-update, and the bus update fused with the
// z/y update of each bus's own pairs; an ended outer iteration adds the
// outer multiplier launch. No host<->device transfers inside the loop.
// Warm starting reuses the full iterate (primal values and all
// multipliers) across solves.
#pragma once

#include <memory>
#include <vector>

#include "admm/branch_kernel.hpp"
#include "admm/component_model.hpp"
#include "admm/loop_control.hpp"
#include "admm/params.hpp"
#include "admm/state.hpp"
#include "admm/warm_start.hpp"
#include "device/device.hpp"
#include "grid/network.hpp"
#include "grid/solution.hpp"

namespace gridadmm::admm {

/// The paper Section IV-B cold-start iterate as host arrays: dispatch and
/// voltage magnitudes at the midpoint of their bounds, flat angles, branch
/// flows evaluated from the voltages, line-limit slacks clamped feasible.
/// Shared by AdmmSolver::cold_start and the batch engine's staging so the
/// two cold starts cannot drift apart.
struct ColdStartTemplate {
  std::vector<double> u;         ///< consensus x-side values (v starts equal)
  std::vector<double> w, theta;  ///< bus squared magnitudes / angles
  std::vector<double> pg, qg;    ///< generator dispatch
  std::vector<double> branch_x;  ///< 4 per branch
  std::vector<double> branch_s;  ///< 2 per branch (line-limit slacks)
};
ColdStartTemplate make_cold_start(const grid::Network& net, const ComponentModel& model);

class AdmmSolver {
 public:
  /// Copies the network; `dev` defaults to the process-wide device. Throws
  /// ValidationError unless both iteration budgets are positive.
  AdmmSolver(grid::Network net, AdmmParams params, device::Device* dev = nullptr);

  /// Paper Section IV-B initialization: dispatch and voltage magnitudes at
  /// the midpoint of their bounds, flat angles, flows from the voltages,
  /// all multipliers zero.
  void cold_start();

  /// Resets only the outer penalty (beta), keeping the full iterate — call
  /// before re-solving after a load change to warm start.
  void prepare_warm_start();

  /// Runs Algorithm 1 from the current state.
  AdmmStats solve();

  /// Extracts the solution the paper reports: dispatch from generator
  /// components, voltages from bus components (angles shifted so the
  /// reference bus is zero).
  [[nodiscard]] grid::OpfSolution solution() const;

  /// Snapshots the full iterate (primal values, every multiplier, outer
  /// penalty) as portable host arrays — the unit of exchange for the
  /// warm-start cache and cross-solver seeding.
  [[nodiscard]] WarmStartIterate export_iterate() const;

  /// Restores a previously exported iterate (dimensions must match this
  /// solver's model; throws ValidationError otherwise) and applies
  /// prepare_warm_start semantics: the iterate's beta is kept, only raised
  /// to at least beta0. The per-pair penalties rho stay this solver's own.
  void import_iterate(const WarmStartIterate& it);

  /// Updates loads (per-unit, one entry per bus); used by tracking. Throws
  /// ValidationError on a size mismatch or a non-finite entry.
  void set_loads(std::span<const double> pd, std::span<const double> qd);
  /// Updates real-power dispatch bounds (per-unit); used for ramp limits.
  /// Throws ValidationError on a size mismatch or a non-finite entry.
  void set_generator_pg_bounds(std::span<const double> pmin, std::span<const double> pmax);

  [[nodiscard]] const grid::Network& network() const { return net_; }
  [[nodiscard]] const AdmmParams& params() const { return params_; }
  AdmmParams& params() { return params_; }
  [[nodiscard]] const ComponentModel& model() const { return model_; }
  [[nodiscard]] const AdmmState& state() const { return state_; }
  [[nodiscard]] bool record_history() const { return record_history_; }
  void set_record_history(bool record) { record_history_ = record; }

 private:
  grid::Network net_;
  AdmmParams params_;
  device::Device* dev_;
  ComponentModel model_;
  AdmmState state_;
  bool record_history_ = false;
};

}  // namespace gridadmm::admm
