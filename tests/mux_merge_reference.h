// The pairwise greedy merge that merge_muxes() (core/mux_merge.h) replaced,
// kept verbatim as the test-only reference, the way sim_reference.h keeps
// the rescanning simulator. It groups uses per sink pin in std::maps and
// tries every later mux against each open group with a sparse-map walk —
// quadratic in the multi-source muxes, but with no index to get wrong. The
// index-driven merge must equal it in every field of MuxMergeResult: the
// group order, each group's sinks in order, each group's sources in
// ascending key order, and both counts.
#pragma once

#include <map>
#include <vector>

#include "core/mux_merge.h"

namespace salsa {

namespace reference {

struct ProtoMux {
  Pin sink;
  std::map<int, uint32_t> active;  // step -> source key
  std::map<uint32_t, Endpoint> sources;
};

inline bool compatible(const ProtoMux& a, const ProtoMux& b) {
  // Walk the sparse activity maps looking for a step where both muxes must
  // route, with different sources.
  auto ia = a.active.begin();
  auto ib = b.active.begin();
  while (ia != a.active.end() && ib != b.active.end()) {
    if (ia->first < ib->first) {
      ++ia;
    } else if (ib->first < ia->first) {
      ++ib;
    } else {
      if (ia->second != ib->second) return false;
      ++ia;
      ++ib;
    }
  }
  return true;
}

inline MuxMergeResult merge_muxes(const Binding& b) {
  // Group connection uses per sink pin.
  std::map<uint32_t, ProtoMux> pins;
  for (const ConnUse& u : connection_uses(b)) {
    if (u.src.kind == Endpoint::Kind::kConstPort) continue;
    ProtoMux& pm = pins[pack(u.sink)];
    pm.sink = u.sink;
    pm.active[u.step] = pack(u.src);
    pm.sources.emplace(pack(u.src), u.src);
  }

  MuxMergeResult out;
  std::vector<ProtoMux> muxes;
  for (auto& [key, pm] : pins) {
    (void)key;
    out.muxes_before += static_cast<int>(pm.sources.size()) - 1;
    if (pm.sources.size() >= 2) muxes.push_back(std::move(pm));
  }

  std::vector<bool> used(muxes.size(), false);
  for (size_t i = 0; i < muxes.size(); ++i) {
    if (used[i]) continue;
    used[i] = true;
    ProtoMux merged = muxes[i];
    MergedMux mm;
    mm.sinks.push_back(merged.sink);
    for (size_t j = i + 1; j < muxes.size(); ++j) {
      if (used[j]) continue;
      if (!compatible(merged, muxes[j])) continue;
      // Merging is only a reduction when source sets overlap: the merged
      // selector has |union|-1 equivalent 2-1 muxes versus the separate
      // (|A|-1)+(|B|-1).
      int overlap = 0;
      for (const auto& [k, e] : muxes[j].sources) {
        (void)e;
        overlap += merged.sources.count(k) > 0;
      }
      if (overlap == 0) continue;  // would add |B| width but only save |B|-1
      used[j] = true;
      mm.sinks.push_back(muxes[j].sink);
      for (const auto& [step, src] : muxes[j].active) merged.active[step] = src;
      for (const auto& [k, e] : muxes[j].sources) merged.sources.emplace(k, e);
    }
    for (const auto& [k, e] : merged.sources) {
      (void)k;
      mm.sources.push_back(e);
    }
    out.muxes_after += mm.width();
    out.muxes.push_back(std::move(mm));
  }
  return out;
}

}  // namespace reference

}  // namespace salsa
