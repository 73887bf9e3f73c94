#include "io/html_report.h"

#include <map>
#include <sstream>

#include "core/cost.h"
#include "core/mux_merge.h"
#include "core/verify.h"
#include "util/strings.h"

namespace salsa {

namespace {

std::string escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '&': out += "&amp;"; break;
      default: out += c;
    }
  }
  return out;
}

// Deterministic pastel colour per storage id.
std::string colour_of(int sid) {
  const int hue = (sid * 47) % 360;
  std::ostringstream os;
  os << "hsl(" << hue << ",70%,85%)";
  return os.str();
}

std::string endpoint_label(const Cdfg& g, const FuPool& fus,
                           const Endpoint& e) {
  switch (e.kind) {
    case Endpoint::Kind::kFuOut: return fus.fu(e.id).name;
    case Endpoint::Kind::kRegOut: return numbered("R", e.id);
    case Endpoint::Kind::kInPort: return "in:" + g.node(e.id).name;
    case Endpoint::Kind::kConstPort: return "const:" + g.node(e.id).name;
  }
  return "?";
}

std::string pin_label(const Cdfg& g, const FuPool& fus, const Pin& p) {
  switch (p.kind) {
    case Pin::Kind::kFuIn0: return fus.fu(p.id).name + ".a";
    case Pin::Kind::kFuIn1: return fus.fu(p.id).name + ".b";
    case Pin::Kind::kRegIn: return numbered("R", p.id) + ".in";
    case Pin::Kind::kOutPort: return "out:" + g.node(p.id).name;
  }
  return "?";
}

}  // namespace

std::string html_report(const Binding& b, const std::string& title) {
  check_legal(b);
  const AllocProblem& prob = b.prob();
  const Cdfg& g = prob.cdfg();
  const Schedule& sched = prob.sched();
  const Lifetimes& lt = prob.lifetimes();
  const int L = sched.length();
  const CostBreakdown cost = evaluate_cost(b);
  const MuxMergeResult merged = merge_muxes(b);
  const Occupancy occ = b.occupancy();

  std::ostringstream os;
  os << "<!DOCTYPE html><html><head><meta charset=\"utf-8\"><title>"
     << escape(title) << "</title><style>\n"
     << "body{font-family:sans-serif;margin:1.5em}"
     << "table{border-collapse:collapse;margin:1em 0}"
     << "td,th{border:1px solid #999;padding:2px 6px;font-size:12px;"
     << "text-align:center}"
     << "th{background:#eee}.idle{background:#fafafa;color:#bbb}"
     << ".pass{background:#ffe9b3;font-style:italic}"
     << "</style></head><body>\n";
  os << "<h1>" << escape(title) << "</h1>\n";
  os << "<p>" << L << " control steps &middot; " << cost.fus_used
     << " FUs &middot; " << cost.regs_used << " registers &middot; "
     << cost.connections << " connections &middot; <b>" << cost.muxes
     << "</b> equivalent 2-1 muxes (" << merged.muxes_after
     << " after merging) &middot; cost " << cost.total << "</p>\n";

  // ---- FU Gantt -------------------------------------------------------
  os << "<h2>Functional units</h2>\n<table><tr><th></th>";
  for (int t = 0; t < L; ++t) os << "<th>" << t << "</th>";
  os << "</tr>\n";
  for (FuId f = 0; f < prob.fus().size(); ++f) {
    os << "<tr><th>" << escape(prob.fus().fu(f).name) << "</th>";
    for (int t = 0; t < L; ++t) {
      const int user =
          occ.fu_user[static_cast<size_t>(f)][static_cast<size_t>(t)];
      if (user == Occupancy::kFree) {
        os << "<td class=\"idle\">&middot;</td>";
      } else if (user == Occupancy::kPassThrough) {
        os << "<td class=\"pass\">pass</td>";
      } else {
        os << "<td>" << escape(g.node(user).name) << "</td>";
      }
    }
    os << "</tr>\n";
  }
  os << "</table>\n";

  // ---- Register map ---------------------------------------------------
  os << "<h2>Registers</h2>\n<table><tr><th></th>";
  for (int t = 0; t < L; ++t) os << "<th>" << t << "</th>";
  os << "</tr>\n";
  for (RegId r = 0; r < prob.num_regs(); ++r) {
    os << "<tr><th>R" << r << "</th>";
    for (int t = 0; t < L; ++t) {
      const int sid =
          occ.reg_sto[static_cast<size_t>(r)][static_cast<size_t>(t)];
      if (sid < 0) {
        os << "<td class=\"idle\">&middot;</td>";
      } else {
        os << "<td style=\"background:" << colour_of(sid) << "\">"
           << escape(lt.storage(sid).name) << "</td>";
      }
    }
    os << "</tr>\n";
  }
  os << "</table>\n";

  // ---- Multiplexers ----------------------------------------------------
  os << "<h2>Multiplexers (after merging)</h2>\n"
     << "<table><tr><th>feeds</th><th>selects among</th><th>2-1 eq</th></tr>\n";
  for (const MergedMux& m : merged.muxes) {
    os << "<tr><td>";
    for (size_t i = 0; i < m.sinks.size(); ++i)
      os << (i ? ", " : "") << escape(pin_label(g, prob.fus(), m.sinks[i]));
    os << "</td><td>";
    for (size_t i = 0; i < m.sources.size(); ++i)
      os << (i ? ", " : "")
         << escape(endpoint_label(g, prob.fus(), m.sources[i]));
    os << "</td><td>" << m.width() << "</td></tr>\n";
  }
  os << "</table>\n</body></html>\n";
  return os.str();
}

}  // namespace salsa
