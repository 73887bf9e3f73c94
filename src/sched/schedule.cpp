#include "sched/schedule.h"

#include <algorithm>

namespace salsa {

Schedule::Schedule(const Cdfg& cdfg, HwSpec hw, int length)
    : cdfg_(&cdfg), hw_(hw), length_(length) {
  SALSA_CHECK_MSG(length > 0, "schedule length must be positive");
  start_.assign(static_cast<size_t>(cdfg.num_nodes()), 0);
}

int Schedule::ready(NodeId n) const {
  return start(n) + hw_.delay(cdfg_->node(n).kind);
}

int Schedule::value_ready(ValueId v) const {
  return ready(cdfg_->producer(v));
}

int Schedule::value_last_read(ValueId v) const {
  int last = -1;
  for (NodeId c : cdfg_->value(v).consumers) last = std::max(last, start(c));
  return last;
}

std::optional<Violation> Schedule::first_violation() const {
  const Cdfg& g = *cdfg_;
  for (NodeId id = 0; id < g.num_nodes(); ++id) {
    const Node& n = g.node(id);
    if (start(id) < 0 || start(id) >= length_)
      return Violation{"node '" + n.name + "' scheduled outside [0, length)",
                       id};
    if (!is_operation(n.kind) && n.kind != OpKind::kOutput && start(id) != 0)
      return Violation{
          "node '" + n.name + "' (non-operation) must start at step 0", id};
    for (ValueId in : n.ins) {
      if (g.is_const_value(in)) continue;
      if (start(id) < value_ready(in))
        return Violation{"node '" + n.name + "' reads value '" +
                             g.value(in).name + "' before it is ready",
                         id};
    }
    if (is_operation(n.kind)) {
      // A result must be usable: ready by length-1 if read or output within
      // the iteration, ready by length if it only feeds a state.
      const int rdy = ready(id);
      const bool read_in_iter = value_last_read(n.out) >= 0;
      if (rdy > length_)
        return Violation{
            "node '" + n.name + "' finishes after the schedule end", id};
      if (read_in_iter && rdy > length_ - 1)
        return Violation{"node '" + n.name +
                             "' result is read but not ready before the end",
                         id};
    }
  }
  // State anti-dependence: old content must outlive all its reads.
  for (NodeId sn : g.state_nodes()) {
    const Node& s = g.node(sn);
    if (s.state_next == kInvalidId)
      return Violation{"state '" + s.name + "' has no next-iteration value",
                       sn};
    const int last = value_last_read(s.out);
    const int next_ready = value_ready(s.state_next);
    if (last >= next_ready)
      return Violation{"state '" + s.name + "': next content ready at step " +
                           std::to_string(next_ready) +
                           " but old content still read at step " +
                           std::to_string(last),
                       sn};
  }
  return std::nullopt;
}

void Schedule::validate() const {
  if (const auto v = first_violation()) fail(v->message);
}

}  // namespace salsa
