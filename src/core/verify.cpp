#include "core/verify.h"

namespace salsa {

namespace {

// verify(), filling `routes` in its one-driver pass (which runs only when
// every structural rule holds).
std::vector<std::string> verify_into(const Binding& b, RouteTable& routes) {
  std::vector<std::string> bad;
  const AllocProblem& prob = b.prob();
  const Cdfg& g = prob.cdfg();
  const Schedule& sched = prob.sched();
  const Lifetimes& lt = prob.lifetimes();
  const int L = sched.length();
  const int nfu = prob.fus().size();
  const int nreg = prob.num_regs();

  auto complain = [&](const std::string& msg) { bad.push_back(msg); };

  // --- operation bindings ---------------------------------------------------
  std::vector<std::vector<int>> fu_user(
      static_cast<size_t>(nfu),
      std::vector<int>(static_cast<size_t>(L), Occupancy::kFree));
  for (NodeId n : g.operations()) {
    const Node& nd = g.node(n);
    const OpBind& ob = b.op(n);
    if (ob.fu < 0 || ob.fu >= nfu) {
      complain("op '" + nd.name + "' has no valid FU");
      continue;
    }
    if (prob.fus().fu(ob.fu).cls != fu_class_of(nd.kind))
      complain("op '" + nd.name + "' bound to FU of the wrong class");
    if (ob.swap && !is_commutative(nd.kind))
      complain("non-commutative op '" + nd.name + "' has swapped operands");
    const int occ = sched.hw().occupancy(nd.kind);
    for (int t = sched.start(n); t < sched.start(n) + occ; ++t) {
      if (t >= L) {
        complain("op '" + nd.name + "' occupies steps past the schedule end");
        break;
      }
      int& slot = fu_user[static_cast<size_t>(ob.fu)][static_cast<size_t>(t)];
      if (slot != Occupancy::kFree)
        complain("FU '" + prob.fus().fu(ob.fu).name + "' double-booked at step " +
                 std::to_string(t) + " by op '" + nd.name + "'");
      slot = n;
    }
  }

  // FU output-port usage: the step at whose end each FU delivers a result.
  // A pass-through may not share an FU output with a landing result.
  std::vector<std::vector<bool>> fu_out_busy(
      static_cast<size_t>(nfu), std::vector<bool>(static_cast<size_t>(L), false));
  for (NodeId n : g.operations()) {
    const OpBind& ob = b.op(n);
    if (ob.fu < 0 || ob.fu >= nfu) continue;
    const int fin = (sched.start(n) + sched.hw().delay(g.node(n).kind) - 1) % L;
    fu_out_busy[static_cast<size_t>(ob.fu)][static_cast<size_t>(fin)] = true;
  }

  // --- register cells ---------------------------------------------------
  std::vector<std::vector<int>> reg_sto(
      static_cast<size_t>(nreg), std::vector<int>(static_cast<size_t>(L), -1));
  for (int sid = 0; sid < lt.num_storages(); ++sid) {
    const Storage& s = lt.storage(sid);
    const StorageBinding& sb = b.sto(sid);
    if (static_cast<int>(sb.cells.size()) != s.len) {
      complain("storage '" + s.name + "' has a malformed cell table");
      continue;
    }
    for (int seg = 0; seg < s.len; ++seg) {
      const auto& cells = sb.cells[static_cast<size_t>(seg)];
      const int step = s.step_at(seg, L);
      if (cells.empty())
        complain("storage '" + s.name + "' segment " + std::to_string(seg) +
                 " has no cell");
      for (size_t ci = 0; ci < cells.size(); ++ci) {
        const Cell& c = cells[ci];
        if (c.reg < 0 || c.reg >= nreg) {
          complain("storage '" + s.name + "' has a cell with an invalid register");
          continue;
        }
        for (size_t cj = 0; cj < ci; ++cj)
          if (cells[cj].reg == c.reg)
            complain("storage '" + s.name + "' has duplicate cells in register " +
                     std::to_string(c.reg) + " at segment " +
                     std::to_string(seg));
        int& slot =
            reg_sto[static_cast<size_t>(c.reg)][static_cast<size_t>(step)];
        if (slot != -1 && slot != sid)
          complain("register " + std::to_string(c.reg) +
                   " holds two storages at step " + std::to_string(step));
        slot = sid;

        if (seg == 0) {
          if (c.parent != -1)
            complain("storage '" + s.name + "' has a seg-0 cell with a parent");
          if (c.via != kInvalidId)
            complain("storage '" + s.name + "' has a seg-0 cell with a pass-through");
          continue;
        }
        const auto& prev = sb.cells[static_cast<size_t>(seg) - 1];
        if (c.parent < 0 || c.parent >= static_cast<int>(prev.size())) {
          complain("storage '" + s.name + "' has a cell with an invalid parent");
          continue;
        }
        const Cell& parent = prev[static_cast<size_t>(c.parent)];
        if (parent.reg == c.reg) {
          if (c.via != kInvalidId)
            complain("storage '" + s.name + "' holds in place but names a pass-through");
        } else if (c.via != kInvalidId) {
          if (c.via < 0 || c.via >= nfu) {
            complain("storage '" + s.name + "' transfer via invalid FU");
          } else {
            if (!prob.fus().fu(c.via).can_pass)
              complain("transfer of '" + s.name +
                       "' routed through a non-pass-capable FU");
            // A pass-through is a one-step combinational forward; an FU
            // class with a multi-step delay cannot provide it.
            if (sched.hw().delay(prob.fus().fu(c.via).cls == FuClass::kAlu
                                     ? OpKind::kAdd
                                     : OpKind::kMul) != 1)
              complain("pass-through on multi-cycle FU class for '" + s.name +
                       "'");
            const int tstep = s.step_at(seg - 1, L);
            if (fu_out_busy[static_cast<size_t>(c.via)]
                           [static_cast<size_t>(tstep)])
              complain("pass-through on FU '" + prob.fus().fu(c.via).name +
                       "' collides with a result landing at step " +
                       std::to_string(tstep));
            int& fslot = fu_user[static_cast<size_t>(c.via)]
                                [static_cast<size_t>(tstep)];
            if (fslot != Occupancy::kFree)
              complain("pass-through on busy FU '" + prob.fus().fu(c.via).name +
                       "' at step " + std::to_string(tstep));
            fslot = Occupancy::kPassThrough;
          }
        }
      }
    }
    // Reads.
    if (sb.read_cell.size() != s.reads.size()) {
      complain("storage '" + s.name + "' has a malformed read table");
      continue;
    }
    for (size_t ri = 0; ri < s.reads.size(); ++ri) {
      const int seg = s.reads[ri].seg;
      const int pos = sb.read_cell[ri];
      if (seg < 0 || seg >= s.len || pos < 0 ||
          pos >= static_cast<int>(sb.cells[static_cast<size_t>(seg)].size()))
        complain("storage '" + s.name + "' read " + std::to_string(ri) +
                 " targets a missing cell");
    }
  }
  if (!bad.empty()) return bad;  // connection pass needs a structurally sound binding

  // --- one driver per pin per step -----------------------------------------
  // The first use of a (pin, step) sets its driver in the route table;
  // every later use with another source is a conflict, reported in use
  // order.
  for (const ConnUse& u : connection_uses(b))
    if (!routes.route(u))
      complain("module input pin driven by two sources at step " +
               std::to_string(u.step));
  return bad;
}

}  // namespace

std::vector<std::string> verify(const Binding& b) {
  RouteTable routes(b.prob());
  return verify_into(b, routes);
}

RouteTable check_legal(const Binding& b) {
  RouteTable routes(b.prob());
  const auto bad = verify_into(b, routes);
  if (bad.empty()) return routes;
  std::string msg = "illegal binding:";
  for (const auto& m : bad) msg += "\n  - " + m;
  fail(msg);
}

}  // namespace salsa
