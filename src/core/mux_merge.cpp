#include "core/mux_merge.h"

#include <algorithm>
#include <functional>
#include <span>
#include <utility>

namespace salsa {

namespace {

constexpr size_t kNone = static_cast<size_t>(-1);

// A mux routes source `src` at control step `step`.
struct Active {
  size_t step;
  size_t src;
};

// The multi-source sink pins in ascending pin order, each with its distinct
// sources and its activity (one entry per step it routes), stored flat.
struct MuxTable {
  std::vector<Pin> sink;
  std::vector<size_t> src_at{0};
  std::vector<size_t> srcs;
  std::vector<size_t> act_at{0};
  std::vector<Active> act;

  size_t size() const { return sink.size(); }
  std::span<const size_t> sources(size_t m) const {
    return {srcs.data() + src_at[m], srcs.data() + src_at[m + 1]};
  }
  std::span<const Active> activity(size_t m) const {
    return {act.data() + act_at[m], act.data() + act_at[m + 1]};
  }
};

}  // namespace

MuxMergeResult merge_muxes(const Binding& b) {
  RouteTable routes(b.prob());
  for (const ConnUse& u : connection_uses(b)) routes.route(u);
  const PinIndex& index = routes.index();
  const size_t L = static_cast<size_t>(b.prob().sched().length());
  MuxMergeResult out;

  // Each pin's distinct non-constant sources and its activity, read off its
  // route row.
  MuxTable mx;
  std::vector<size_t> src_seen(index.num_sources(), kNone);  // pin that saw it
  for (size_t p = 0; p < index.num_pins(); ++p) {
    const size_t src0 = mx.srcs.size();
    const size_t act0 = mx.act.size();
    const std::span<const uint32_t> row = routes.row(p);
    for (size_t step = 0; step < L; ++step) {
      if (row[step] == RouteTable::kNoDriver) continue;
      const Endpoint src = unpack_endpoint(row[step]);
      if (src.kind == Endpoint::Kind::kConstPort) continue;
      const size_t s = index.source(src);
      if (std::exchange(src_seen[s], p) != p) mx.srcs.push_back(s);
      mx.act.push_back({step, s});
    }
    const size_t nsrc = mx.srcs.size() - src0;
    if (nsrc == 0) continue;
    out.muxes_before += static_cast<int>(nsrc) - 1;
    if (nsrc < 2) {
      mx.srcs.resize(src0);
      mx.act.resize(act0);
      continue;
    }
    mx.sink.push_back(index.pin_at(p));
    mx.src_at.push_back(mx.srcs.size());
    mx.act_at.push_back(mx.act.size());
  }
  const size_t M = mx.size();

  // Inverted index: the muxes each source feeds, in ascending mux order.
  std::vector<size_t> fed_at(index.num_sources() + 1, 0);
  for (size_t s : mx.srcs) ++fed_at[s + 1];
  for (size_t s = 1; s < fed_at.size(); ++s) fed_at[s] += fed_at[s - 1];
  std::vector<size_t> fed(mx.srcs.size());
  {
    std::vector<size_t> fill(fed_at.begin(), fed_at.end() - 1);
    for (size_t m = 0; m < M; ++m)
      for (size_t s : mx.sources(m)) fed[fill[s]++] = m;
  }
  const auto fed_by = [&](size_t s) {
    return std::span<const size_t>(fed.data() + fed_at[s],
                                   fed.data() + fed_at[s + 1]);
  };

  // Greedy merge. Round i opens a group at the lowest unused mux i and visits
  // the later unused muxes in ascending order, merging each compatible one
  // that shares a source with the group. Only muxes sharing a source are
  // ever queued, and a source the group gains at merge position j queues its
  // muxes above j alone: the ones below j were already passed.
  std::vector<bool> used(M, false);
  std::vector<size_t> queued(M, kNone);  // round that queued the mux
  std::vector<size_t> in_group(index.num_sources(), kNone);  // round per source
  std::vector<size_t> step_round(L, kNone);  // round routing at the step...
  std::vector<size_t> step_src(L);           // ... and the source it routes
  std::vector<size_t> heap;                  // min-heap of queued muxes
  std::vector<size_t> group_srcs;
  for (size_t i = 0; i < M; ++i) {
    if (used[i]) continue;
    MergedMux mm;
    group_srcs.clear();
    const auto join = [&](size_t m) {
      used[m] = true;
      mm.sinks.push_back(mx.sink[m]);
      for (const Active& a : mx.activity(m)) {
        step_round[a.step] = i;
        step_src[a.step] = a.src;
      }
      for (size_t s : mx.sources(m)) {
        if (std::exchange(in_group[s], i) == i) continue;
        group_srcs.push_back(s);
        const std::span<const size_t> feeds = fed_by(s);
        for (auto c = std::upper_bound(feeds.begin(), feeds.end(), m);
             c != feeds.end(); ++c) {
          if (used[*c] || std::exchange(queued[*c], i) == i) continue;
          heap.push_back(*c);
          std::push_heap(heap.begin(), heap.end(), std::greater<>());
        }
      }
    };
    // No step where the group and mux m must both route, with different
    // sources.
    const auto compatible = [&](size_t m) {
      for (const Active& a : mx.activity(m))
        if (step_round[a.step] == i && step_src[a.step] != a.src) return false;
      return true;
    };
    join(i);
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      const size_t m = heap.back();
      heap.pop_back();
      if (compatible(m)) join(m);
    }
    std::sort(group_srcs.begin(), group_srcs.end());
    for (size_t s : group_srcs) mm.sources.push_back(index.source_at(s));
    out.muxes_after += mm.width();
    out.muxes.push_back(std::move(mm));
  }
  return out;
}

}  // namespace salsa
