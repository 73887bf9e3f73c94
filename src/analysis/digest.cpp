#include "analysis/digest.h"

#include <bit>
#include <sstream>

#include "core/lifetime.h"

namespace salsa {

void Fnv1a::f64(double v) { u64(std::bit_cast<uint64_t>(v)); }

void digest_binding(Fnv1a& h, const Binding& b) {
  const AllocProblem& prob = b.prob();
  const Cdfg& g = prob.cdfg();
  const Lifetimes& lt = prob.lifetimes();

  // Operations, in node order. A leading count per section keeps the
  // serialization prefix-free across problem shapes.
  h.u32(static_cast<uint32_t>(g.operations().size()));
  for (NodeId n : g.operations()) {
    const OpBind& ob = b.op(n);
    h.i32(n);
    h.i32(ob.fu);
    h.byte(ob.swap ? 1 : 0);
  }

  h.u32(static_cast<uint32_t>(lt.num_storages()));
  for (int sid = 0; sid < lt.num_storages(); ++sid) {
    const StorageBinding& sb = b.sto(sid);
    h.u32(static_cast<uint32_t>(sb.cells.size()));
    for (const auto& seg : sb.cells) {
      h.u32(static_cast<uint32_t>(seg.size()));
      for (const Cell& c : seg) {
        h.i32(c.reg);
        h.i32(c.parent);
        h.i32(c.via);
      }
    }
    h.u32(static_cast<uint32_t>(sb.read_cell.size()));
    for (int rc : sb.read_cell) h.i32(rc);
  }
}

uint64_t digest_binding(const Binding& b) {
  Fnv1a h;
  digest_binding(h, b);
  return h.value();
}

std::string binding_json(const Binding& b) {
  const AllocProblem& prob = b.prob();
  const Cdfg& g = prob.cdfg();
  const Lifetimes& lt = prob.lifetimes();
  std::ostringstream os;
  os << "{\n  \"ops\": [";
  bool first = true;
  for (NodeId n : g.operations()) {
    const OpBind& ob = b.op(n);
    os << (first ? "" : ",") << "\n    {\"node\": " << n
       << ", \"fu\": " << ob.fu << ", \"swap\": " << (ob.swap ? "true" : "false")
       << "}";
    first = false;
  }
  os << "\n  ],\n  \"storages\": [";
  for (int sid = 0; sid < lt.num_storages(); ++sid) {
    const StorageBinding& sb = b.sto(sid);
    os << (sid ? "," : "") << "\n    {\"name\": \"" << lt.storage(sid).name
       << "\", \"cells\": [";
    for (size_t seg = 0; seg < sb.cells.size(); ++seg) {
      os << (seg ? ", " : "") << "[";
      for (size_t ci = 0; ci < sb.cells[seg].size(); ++ci) {
        const Cell& c = sb.cells[seg][ci];
        os << (ci ? ", " : "") << "{\"reg\": " << c.reg
           << ", \"parent\": " << c.parent << ", \"via\": " << c.via << "}";
      }
      os << "]";
    }
    os << "], \"read_cell\": [";
    for (size_t ri = 0; ri < sb.read_cell.size(); ++ri)
      os << (ri ? ", " : "") << sb.read_cell[ri];
    os << "]}";
  }
  const CostBreakdown cost = evaluate_cost(b);
  os << "\n  ],\n  \"cost\": {\"fus_used\": " << cost.fus_used
     << ", \"regs_used\": " << cost.regs_used
     << ", \"connections\": " << cost.connections
     << ", \"muxes\": " << cost.muxes << ", \"total\": " << cost.total
     << "},\n  \"digest\": \"" << std::hex << digest_binding(b) << std::dec
     << "\"\n}\n";
  return os.str();
}

}  // namespace salsa
