#include "datapath/netlist.h"

#include <algorithm>

#include "core/verify.h"

namespace salsa {

Netlist::Netlist(const Binding& b) : b_(b) {
  check_legal(b);
  const AllocProblem& prob = b.prob();
  const Cdfg& g = prob.cdfg();
  const Schedule& sched = prob.sched();

  std::vector<std::pair<uint64_t, uint64_t>> distinct;
  for (const ConnUse& u : connection_uses(b)) {
    route_.emplace(std::make_pair(key_of(u.sink), u.step), u.src);
    if (u.src.kind != Endpoint::Kind::kConstPort)
      distinct.emplace_back(key_of(u.sink), key_of(u.src));
    if (u.sink.kind == Pin::Kind::kRegIn)
      reg_loads_.push_back(RegLoad{u.sink.id, u.src, u.step});
    if (u.sink.kind == Pin::Kind::kOutPort) {
      SALSA_CHECK(u.src.kind == Endpoint::Kind::kRegOut);
      out_samples_.push_back(OutSample{u.sink.id, u.src.id, u.step});
    }
  }
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  connections_ = static_cast<int>(distinct.size());

  for (NodeId n : g.operations())
    fu_actions_.push_back(FuAction{n, b.op(n).fu, sched.start(n)});
}

std::optional<Endpoint> Netlist::source_of(const Pin& pin, int step) const {
  const auto it = route_.find(std::make_pair(key_of(pin), step));
  if (it == route_.end()) return std::nullopt;
  return it->second;
}

}  // namespace salsa
