#include "grid/flows.hpp"

namespace gridadmm::grid {

FlowValues eval_flows(const BranchAdmittance& y, double vi, double vj, double ti, double tj) {
  FlowValues out;
  flow_values(flow_form(y), vi, vj, flow_trig(vi, vj, ti, tj), out.f);
  return out;
}

void eval_flow_gradients(const BranchAdmittance& y, double vi, double vj, double ti, double tj,
                         FlowValues& values, FlowGradients& grads) {
  flow_gradients(flow_form(y), vi, vj, flow_trig(vi, vj, ti, tj), values.f, grads.g);
}

void accumulate_flow_hessian(const BranchAdmittance& y, double vi, double vj, double ti,
                             double tj, const std::array<double, 4>& w, double h[16]) {
  add_flow_hessian(flow_form(y), vi, vj, flow_trig(vi, vj, ti, tj), w, h);
}

}  // namespace gridadmm::grid
