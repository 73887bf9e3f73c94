#include "datapath/controller.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

namespace salsa {

namespace {

int bits_for(int choices) {
  int bits = 0;
  while ((1 << bits) < choices) ++bits;
  return bits;
}

// The control word of one step: per FU input pin the selected packed source,
// per register whether it loads, per FU which op kind starts.
struct Word {
  std::map<uint64_t, uint64_t> pin_select;
  std::set<int> reg_loads;
  std::map<int, int> fu_op;  // fu -> op kind ordinal

  bool operator<(const Word& o) const {
    if (pin_select != o.pin_select) return pin_select < o.pin_select;
    if (reg_loads != o.reg_loads) return reg_loads < o.reg_loads;
    return fu_op < o.fu_op;
  }
};

std::vector<Word> control_words(const Netlist& nl) {
  const AllocProblem& prob = nl.binding().prob();
  const RouteTable& routes = nl.routes();
  std::vector<Word> words(static_cast<size_t>(prob.sched().length()));
  for (size_t p = 0; p < routes.index().num_pins(); ++p) {
    const Pin::Kind kind = routes.index().pin_at(p).kind;
    if (kind != Pin::Kind::kFuIn0 && kind != Pin::Kind::kFuIn1) continue;
    const auto row = routes.row(p);
    for (size_t t = 0; t < row.size(); ++t)
      if (row[t] != RouteTable::kNoDriver) words[t].pin_select[p] = row[t];
  }
  for (const RegLoad& ld : nl.reg_loads())
    words[static_cast<size_t>(ld.step)].reg_loads.insert(ld.reg);
  for (const FuAction& a : nl.fu_actions())
    words[static_cast<size_t>(a.step)].fu_op[a.fu] =
        static_cast<int>(prob.cdfg().node(a.node).kind);
  return words;
}

}  // namespace

ControllerStats analyze_controller(const Netlist& nl) {
  const Binding& b = nl.binding();
  const AllocProblem& prob = b.prob();
  const Cdfg& g = prob.cdfg();
  ControllerStats stats;

  // Mux select bits per FU and register input pin: its distinct sources
  // over all steps, off its route row (output ports select nothing).
  const RouteTable& routes = nl.routes();
  std::vector<uint32_t> sources;
  for (size_t p = 0; p < routes.index().num_pins(); ++p) {
    if (routes.index().pin_at(p).kind == Pin::Kind::kOutPort) continue;
    sources.assign(routes.row(p).begin(), routes.row(p).end());
    std::erase(sources, RouteTable::kNoDriver);
    std::sort(sources.begin(), sources.end());
    stats.mux_select_bits += bits_for(static_cast<int>(
        std::unique(sources.begin(), sources.end()) - sources.begin()));
  }

  std::set<int> loading_regs;
  for (const RegLoad& ld : nl.reg_loads()) loading_regs.insert(ld.reg);
  stats.reg_enable_bits = static_cast<int>(loading_regs.size());

  // FU op-select bits: distinct operation kinds (plus the idle/pass state
  // for pass-capable units that perform at least one pass-through).
  std::map<FuId, std::set<int>> fu_kinds;
  for (const FuAction& a : nl.fu_actions())
    fu_kinds[a.fu].insert(static_cast<int>(g.node(a.node).kind));
  const Lifetimes& lt = prob.lifetimes();
  for (int sid = 0; sid < lt.num_storages(); ++sid)
    for (const auto& seg : b.sto(sid).cells)
      for (const Cell& c : seg)
        if (c.via != kInvalidId)
          fu_kinds[c.via].insert(static_cast<int>(OpKind::kNop));
  for (const auto& [fu, kinds] : fu_kinds) {
    (void)fu;
    stats.fu_select_bits += bits_for(static_cast<int>(kinds.size()));
  }

  const auto words = control_words(nl);
  std::set<Word> distinct(words.begin(), words.end());
  stats.distinct_words = static_cast<int>(distinct.size());
  for (const Word& w : words)
    if (w.fu_op.empty() && w.reg_loads.empty()) ++stats.idle_steps;
  return stats;
}

std::string controller_table(const Netlist& nl) {
  const Binding& b = nl.binding();
  const AllocProblem& prob = b.prob();
  const Cdfg& g = prob.cdfg();
  const int L = prob.sched().length();
  std::ostringstream os;
  for (int t = 0; t < L; ++t) {
    os << "step " << t << ":";
    for (const FuAction& a : nl.fu_actions())
      if (a.step == t)
        os << " " << prob.fus().fu(a.fu).name << "="
           << g.node(a.node).name;
    bool first_load = true;
    for (const RegLoad& ld : nl.reg_loads()) {
      if (ld.step != t) continue;
      os << (first_load ? " load:" : ",") << " R" << ld.reg;
      first_load = false;
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace salsa
