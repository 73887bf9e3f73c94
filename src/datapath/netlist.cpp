#include "datapath/netlist.h"

#include "core/verify.h"

namespace salsa {

Netlist::Netlist(const Binding& b) : b_(&b), routes_(check_legal(b)) {
  const AllocProblem& prob = b.prob();
  const Cdfg& g = prob.cdfg();
  const Schedule& sched = prob.sched();

  for (const ConnUse& u : connection_uses(b)) {
    if (u.sink.kind == Pin::Kind::kRegIn)
      reg_loads_.push_back(RegLoad{u.sink.id, u.src, u.step});
    if (u.sink.kind == Pin::Kind::kOutPort) {
      SALSA_CHECK(u.src.kind == Endpoint::Kind::kRegOut);
      out_samples_.push_back(OutSample{u.sink.id, u.src.id, u.step});
    }
  }

  for (NodeId n : g.operations())
    fu_actions_.push_back(FuAction{n, b.op(n).fu, sched.start(n)});
}

}  // namespace salsa
