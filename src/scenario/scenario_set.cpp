#include "scenario/scenario_set.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.hpp"
#include "common/numeric.hpp"
#include "common/rng.hpp"

namespace gridadmm::scenario {

namespace {

/// Input validation: throws ValidationError (not the generic GridError) so
/// callers — the serve layer in particular — can map "your request is
/// malformed" to a client error instead of a server fault.
template <typename Message>
void validate(bool cond, const Message& msg) {
  require_valid(cond, msg);
}

}  // namespace

const char* to_string(ScenarioKind kind) {
  switch (kind) {
    case ScenarioKind::kBase: return "base";
    case ScenarioKind::kLoadScale: return "load-scale";
    case ScenarioKind::kStochasticLoad: return "stochastic";
    case ScenarioKind::kContingency: return "contingency";
    case ScenarioKind::kTracking: return "tracking";
  }
  return "unknown";
}

void require_valid_controls(const ScenarioControls& c, const char* where) {
  // The message is built only on failure: SolveService::submit calls this
  // for every request.
  if (!((c.primal_tolerance < 0.0 || std::isfinite(c.primal_tolerance)) &&
        (c.dual_tolerance < 0.0 || std::isfinite(c.dual_tolerance)) &&
        (c.outer_tolerance < 0.0 || std::isfinite(c.outer_tolerance)))) {
    throw ValidationError(std::string(where) + ": control tolerances must be finite");
  }
  if (c.max_inner_iterations == 0 || c.max_outer_iterations == 0) {
    throw ValidationError(std::string(where) + ": control iteration budgets must be positive");
  }
}

ScenarioSet::ScenarioSet(grid::Network base) : net_(std::move(base)) {
  require(net_.finalized(), "ScenarioSet: base network must be finalized");
  base_pd_.reserve(net_.buses.size());
  base_qd_.reserve(net_.buses.size());
  for (const auto& bus : net_.buses) {
    base_pd_.push_back(bus.pd);
    base_qd_.push_back(bus.qd);
  }
}

void ScenarioSet::scaled_loads(double scale, std::vector<double>& pd,
                               std::vector<double>& qd) const {
  pd.resize(base_pd_.size());
  qd.resize(base_qd_.size());
  for (std::size_t i = 0; i < base_pd_.size(); ++i) {
    pd[i] = base_pd_[i] * scale;
    qd[i] = base_qd_[i] * scale;
  }
}

int ScenarioSet::append(Scenario sc) {
  if (sc.pd.empty()) sc.pd = base_pd_;
  if (sc.qd.empty()) sc.qd = base_qd_;
  validate(sc.pd.size() == base_pd_.size() && sc.qd.size() == base_qd_.size(),
           "ScenarioSet: load vector size mismatch");
  scenarios_.push_back(std::move(sc));
  return size() - 1;
}

int ScenarioSet::add(Scenario sc) {
  validate(sc.outage_branch >= -1 && sc.outage_branch < net_.num_branches(),
           "ScenarioSet::add: outage branch index out of range");
  // A bridge outage would island the network: the sequential reference
  // throws at construction and the batch mask would iterate on NaNs, so
  // reject it up front (add_n1_contingencies already skips bridges).
  validate(sc.outage_branch < 0 || !grid::is_bridge(net_, sc.outage_branch),
           "ScenarioSet::add: outage branch is a bridge (would disconnect the network)");
  validate(sc.chain_from >= -1 && sc.chain_from < size(),
           "ScenarioSet::add: chain_from must reference an earlier scenario");
  // Warm-start chains run on the full topology: mixing chaining with
  // contingencies is rejected because the batch engine (per-scenario branch
  // mask) and the sequential reference (reduced network per contingency)
  // would resolve the combination differently.
  validate(sc.chain_from < 0 || sc.outage_branch < 0,
           "ScenarioSet::add: a chained scenario cannot carry a branch outage");
  validate(sc.chain_from < 0 ||
               scenarios_[static_cast<std::size_t>(sc.chain_from)].outage_branch < 0,
           "ScenarioSet::add: cannot chain from a contingency scenario");
  validate(std::isfinite(sc.load_scale), "ScenarioSet::add: load_scale must be finite");
  validate(std::isfinite(sc.ramp_fraction) && sc.ramp_fraction >= 0.0,
           "ScenarioSet::add: ramp_fraction must be finite and non-negative");
  validate(all_finite(sc.pd) && all_finite(sc.qd),
           "ScenarioSet::add: loads must be finite (no NaN/inf entries)");
  require_valid_controls(sc.controls, "ScenarioSet::add");
  return append(std::move(sc));
}

int ScenarioSet::add_base() {
  Scenario sc;
  sc.name = net_.name + "/base";
  sc.kind = ScenarioKind::kBase;
  return append(std::move(sc));
}

void ScenarioSet::add_load_scale(int count, double min_scale, double max_scale) {
  validate(count > 0, "add_load_scale: count must be positive");
  validate(std::isfinite(min_scale) && std::isfinite(max_scale),
           "add_load_scale: scale range must be finite");
  validate(min_scale > 0.0, "add_load_scale: load scale must be positive");
  validate(max_scale >= min_scale, "add_load_scale: max_scale must be >= min_scale");
  for (int i = 0; i < count; ++i) {
    const double t = count == 1 ? 0.5 : static_cast<double>(i) / (count - 1);
    const double scale = min_scale + (max_scale - min_scale) * t;
    Scenario sc;
    sc.name = net_.name + "/scale-" + std::to_string(i);
    sc.kind = ScenarioKind::kLoadScale;
    sc.load_scale = scale;
    scaled_loads(scale, sc.pd, sc.qd);
    append(std::move(sc));
  }
}

void ScenarioSet::add_stochastic_load(int count, double sigma, std::uint64_t seed) {
  validate(count > 0, "add_stochastic_load: count must be positive");
  validate(std::isfinite(sigma) && sigma >= 0.0,
           "add_stochastic_load: sigma must be finite and non-negative");
  // One independent stream per scenario, derived from the seed, so a set is
  // reproducible regardless of how many scenarios preceded it.
  std::uint64_t stream = seed;
  for (int i = 0; i < count; ++i) {
    Rng rng(splitmix64(stream));
    Scenario sc;
    sc.name = net_.name + "/stoch-" + std::to_string(i);
    sc.kind = ScenarioKind::kStochasticLoad;
    sc.pd.resize(base_pd_.size());
    sc.qd.resize(base_qd_.size());
    for (std::size_t b = 0; b < base_pd_.size(); ++b) {
      const double factor = std::clamp(1.0 + sigma * rng.normal(), 0.1, 2.0);
      sc.pd[b] = base_pd_[b] * factor;
      sc.qd[b] = base_qd_[b] * factor;
    }
    append(std::move(sc));
  }
}

int ScenarioSet::add_n1_contingencies(int max_count) {
  // One DFS finds every bridge; per-branch is_bridge queries would make the
  // enumeration quadratic on large cases.
  const auto bridges = grid::bridge_branches(net_);
  int appended = 0;
  for (int l = 0; l < net_.num_branches(); ++l) {
    if (max_count >= 0 && appended >= max_count) break;
    if (!net_.branches[l].on) continue;  // already out of service
    if (bridges[static_cast<std::size_t>(l)]) continue;  // would island the network
    Scenario sc;
    sc.name = net_.name + "/n1-branch-" + std::to_string(l);
    sc.kind = ScenarioKind::kContingency;
    sc.outage_branch = l;
    append(std::move(sc));
    ++appended;
  }
  return appended;
}

int ScenarioSet::add_stress_corpus(const StressCorpusOptions& options) {
  validate(std::isfinite(options.load_scale) && options.load_scale > 0.0,
           "add_stress_corpus: load_scale must be positive and finite");
  validate(options.max_outages >= 0, "add_stress_corpus: max_outages must be >= 0");
  validate(options.base_inner_budget > 0 && options.outage_inner_budget > 0 &&
               options.outer_budget > 0,
           "add_stress_corpus: iteration budgets must be positive");
  int appended = 0;
  {
    Scenario sc;
    sc.name = net_.name + "/stress-base";
    sc.kind = ScenarioKind::kLoadScale;
    sc.load_scale = options.load_scale;
    scaled_loads(options.load_scale, sc.pd, sc.qd);
    sc.controls.max_inner_iterations = options.base_inner_budget;
    sc.controls.max_outer_iterations = options.outer_budget;
    append(std::move(sc));
    ++appended;
  }
  const auto bridges = grid::bridge_branches(net_);
  int outages = 0;
  for (int l = 0; l < net_.num_branches() && outages < options.max_outages; ++l) {
    if (!net_.branches[static_cast<std::size_t>(l)].on) continue;
    if (bridges[static_cast<std::size_t>(l)]) continue;
    Scenario sc;
    sc.name = net_.name + "/stress-n1-branch-" + std::to_string(l);
    sc.kind = ScenarioKind::kContingency;
    sc.outage_branch = l;
    sc.load_scale = options.load_scale;
    scaled_loads(options.load_scale, sc.pd, sc.qd);
    sc.controls.max_inner_iterations = options.outage_inner_budget;
    sc.controls.max_outer_iterations = options.outer_budget;
    append(std::move(sc));
    ++appended;
    ++outages;
  }
  return appended;
}

int ScenarioSet::add_tracking_sequence(const grid::LoadProfileSpec& spec, double ramp_fraction) {
  validate(spec.periods > 0, "add_tracking_sequence: periods must be positive");
  validate(std::isfinite(ramp_fraction) && ramp_fraction >= 0.0,
           "add_tracking_sequence: ramp_fraction must be finite and non-negative");
  const auto profile = grid::make_load_profile(spec);
  const int first = size();
  for (int t = 0; t < spec.periods; ++t) {
    Scenario sc;
    sc.name = net_.name + "/track-seed" + std::to_string(spec.seed) + "-t" + std::to_string(t);
    sc.kind = ScenarioKind::kTracking;
    sc.load_scale = profile[static_cast<std::size_t>(t)];
    scaled_loads(sc.load_scale, sc.pd, sc.qd);
    if (t > 0) {
      sc.chain_from = first + t - 1;
      sc.ramp_fraction = ramp_fraction;
    }
    append(std::move(sc));
  }
  return first;
}

std::vector<std::vector<int>> ScenarioSet::waves() const {
  std::vector<int> depth(scenarios_.size(), 0);
  int max_depth = 0;
  for (std::size_t s = 0; s < scenarios_.size(); ++s) {
    const int parent = scenarios_[s].chain_from;
    if (parent >= 0) depth[s] = depth[static_cast<std::size_t>(parent)] + 1;
    max_depth = std::max(max_depth, depth[s]);
  }
  std::vector<std::vector<int>> result(static_cast<std::size_t>(max_depth + 1));
  for (std::size_t s = 0; s < scenarios_.size(); ++s) {
    result[static_cast<std::size_t>(depth[s])].push_back(static_cast<int>(s));
  }
  return result;
}

}  // namespace gridadmm::scenario
