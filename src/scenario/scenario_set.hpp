// ScenarioSet: diverse scenario families generated from one loaded case.
//
// Families map onto the workloads a production multi-scenario OPF service
// runs against a grid model: uniform load sweeps, stochastic per-bus load
// perturbations (deterministic per seed), N-1 branch-outage contingency
// screening (bridges excluded so every scenario stays connected), and
// time-coupled tracking sequences with generator ramp limits that chain
// warm starts period-to-period.
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "grid/load_profile.hpp"
#include "grid/network.hpp"
#include "scenario/scenario.hpp"

namespace gridadmm::scenario {

/// Knobs for the hard-scenario stress corpus (add_stress_corpus). The
/// defaults are calibrated on case30, whose native line ratings bind at a
/// 3% uniform load increase: the resulting scenarios stall below tolerance
/// on the batch ADMM path at their attached budgets — and at 4x those
/// budgets on the boosted solo retry — yet the warm-started MiniIPM engine
/// solves them to optimality in well under 500 iterations. They exist to
/// exercise the full escalation ladder end-to-end.
struct StressCorpusOptions {
  double load_scale = 1.03;  ///< uniform load stress on every entry
  int max_outages = 2;       ///< rate-tight N-1 entries (non-bridge branches)
  int base_inner_budget = 150;   ///< ADMM inner-iteration cap, base entry
  int outage_inner_budget = 200; ///< ADMM inner-iteration cap, N-1 entries
  int outer_budget = 2;          ///< ADMM outer-iteration cap, all entries
};

class ScenarioSet {
 public:
  /// Copies the (finalized) base network. Generators append scenarios.
  explicit ScenarioSet(grid::Network base);

  [[nodiscard]] const grid::Network& network() const { return net_; }
  [[nodiscard]] const std::vector<Scenario>& scenarios() const { return scenarios_; }
  [[nodiscard]] const Scenario& operator[](int s) const {
    if (s < 0 || s >= size()) throw ValidationError("ScenarioSet: scenario index out of range");
    return scenarios_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] int size() const { return static_cast<int>(scenarios_.size()); }
  [[nodiscard]] bool empty() const { return scenarios_.empty(); }

  /// Appends a hand-built scenario (loads default to the base case's when
  /// empty). Throws ValidationError on malformed input — out-of-range or
  /// bridge outage branch, bad chain_from, non-finite loads or controls,
  /// zero iteration budgets —
  /// instead of letting bad data reach the solvers. Returns its index.
  int add(Scenario sc);

  /// Appends the unmodified base case.
  int add_base();

  /// Appends `count` uniform load-scale scenarios with multipliers evenly
  /// spaced over [min_scale, max_scale].
  void add_load_scale(int count, double min_scale, double max_scale);

  /// Appends `count` stochastic scenarios: every bus load is scaled by an
  /// independent factor 1 + sigma * N(0,1), clamped to [0.1, 2.0] (the same
  /// factor on pd and qd preserves the bus power factor). Deterministic in
  /// `seed`.
  void add_stochastic_load(int count, double sigma, std::uint64_t seed);

  /// Appends one N-1 contingency per in-service, non-bridge branch (at most
  /// `max_count` when >= 0). Returns the number appended.
  int add_n1_contingencies(int max_count = -1);

  /// Appends the hard-scenario corpus: one stressed-load base entry plus
  /// rate-tight N-1 contingencies under the same load stress, each carrying
  /// the iteration budgets that demonstrably defeat ADMM (see
  /// StressCorpusOptions). Returns the number appended.
  int add_stress_corpus(const StressCorpusOptions& options = {});

  /// Appends one time-coupled tracking sequence: one scenario per period of
  /// the load profile, each chained to the previous period with generator
  /// ramp limits |pg_t - pg_{t-1}| <= ramp_fraction * Pmax. Returns the
  /// index of the first period's scenario.
  int add_tracking_sequence(const grid::LoadProfileSpec& spec, double ramp_fraction);

  /// Scenario indices grouped by warm-start chain depth: wave 0 has no
  /// parent, wave d scenarios chain from wave d-1. Scenarios within a wave
  /// are independent and can be solved as one fused batch.
  [[nodiscard]] std::vector<std::vector<int>> waves() const;

 private:
  /// Fills default loads and appends without re-running the graph checks;
  /// generators call this with scenarios that are valid by construction.
  int append(Scenario sc);
  void scaled_loads(double scale, std::vector<double>& pd, std::vector<double>& qd) const;

  grid::Network net_;
  std::vector<double> base_pd_, base_qd_;
  std::vector<Scenario> scenarios_;
};

}  // namespace gridadmm::scenario
