#include "core/mux_merge.h"

#include <algorithm>
#include <functional>
#include <span>
#include <utility>

namespace salsa {

namespace {

constexpr size_t kNone = static_cast<size_t>(-1);

// Dense indices over the sink pins and the non-constant sources, laid out
// kind by kind in key_of()'s kind order with ids ascending inside a kind, so
// ascending index order is ascending key order. Output-port pins and
// input-port sources are indexed by node id.
class DenseKeys {
 public:
  explicit DenseKeys(const AllocProblem& prob)
      : fus_(static_cast<size_t>(prob.fus().size())),
        regs_(static_cast<size_t>(prob.num_regs())),
        nodes_(static_cast<size_t>(prob.cdfg().num_nodes())) {}

  size_t num_pins() const { return 2 * fus_ + regs_ + nodes_; }
  size_t num_sources() const { return fus_ + regs_ + nodes_; }

  size_t pin(const Pin& p) const {
    const size_t base = p.kind == Pin::Kind::kFuIn0   ? 0
                        : p.kind == Pin::Kind::kFuIn1 ? fus_
                        : p.kind == Pin::Kind::kRegIn ? 2 * fus_
                                                      : 2 * fus_ + regs_;
    SALSA_DCHECK(p.id >= 0 && base + static_cast<size_t>(p.id) < num_pins());
    return base + static_cast<size_t>(p.id);
  }
  size_t source(const Endpoint& e) const {
    SALSA_DCHECK(e.kind != Endpoint::Kind::kConstPort);
    const size_t base = e.kind == Endpoint::Kind::kFuOut    ? 0
                        : e.kind == Endpoint::Kind::kRegOut ? fus_
                                                            : fus_ + regs_;
    SALSA_DCHECK(e.id >= 0 &&
                 base + static_cast<size_t>(e.id) < num_sources());
    return base + static_cast<size_t>(e.id);
  }
  Endpoint source_at(size_t i) const {
    if (i < fus_) return {Endpoint::Kind::kFuOut, static_cast<int>(i)};
    if (i < fus_ + regs_)
      return {Endpoint::Kind::kRegOut, static_cast<int>(i - fus_)};
    return {Endpoint::Kind::kInPort, static_cast<int>(i - fus_ - regs_)};
  }

 private:
  size_t fus_;
  size_t regs_;
  size_t nodes_;
};

// A mux routes source `src` at control step `step`.
struct Active {
  size_t step;
  size_t src;
};

// The multi-source sink pins in ascending key order, each with its distinct
// sources and its activity (one entry per step, the last use at a step
// winning), stored flat.
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

// Offsets of a counting sort: at[k] = number of items with a key below k,
// for keys in [0, n).
template <class Range, class Key>
std::vector<size_t> bucket_offsets(size_t n, const Range& items, Key key) {
  std::vector<size_t> at(n + 1, 0);
  for (const auto& x : items)
    if (const size_t k = key(x); k != kNone) ++at[k + 1];
  for (size_t k = 1; k <= n; ++k) at[k] += at[k - 1];
  return at;
}

}  // namespace

MuxMergeResult merge_muxes(const Binding& b) {
  const DenseKeys keys(b.prob());
  const size_t L = static_cast<size_t>(b.prob().sched().length());
  MuxMergeResult out;

  // Group the non-constant uses per sink pin: a counting sort on the dense
  // pin index, stable in use order.
  const std::vector<ConnUse> uses = connection_uses(b);
  const auto pin_of = [&](const ConnUse& u) {
    return u.src.kind == Endpoint::Kind::kConstPort ? kNone : keys.pin(u.sink);
  };
  const std::vector<size_t> pin_at =
      bucket_offsets(keys.num_pins(), uses, pin_of);
  std::vector<const ConnUse*> by_pin(pin_at.back());
  {
    std::vector<size_t> fill(pin_at.begin(), pin_at.end() - 1);
    for (const ConnUse& u : uses)
      if (const size_t p = pin_of(u); p != kNone) by_pin[fill[p]++] = &u;
  }

  MuxTable mx;
  std::vector<size_t> src_seen(keys.num_sources(), kNone);  // pin that saw it
  std::vector<size_t> step_seen(L, kNone);
  std::vector<size_t> step_last(L);
  for (size_t p = 0; p < keys.num_pins(); ++p) {
    if (pin_at[p] == pin_at[p + 1]) continue;
    const size_t src0 = mx.srcs.size();
    const size_t act0 = mx.act.size();
    for (size_t k = pin_at[p]; k < pin_at[p + 1]; ++k) {
      const size_t s = keys.source(by_pin[k]->src);
      const size_t step = static_cast<size_t>(by_pin[k]->step);
      SALSA_DCHECK(step < L);
      if (std::exchange(src_seen[s], p) != p) mx.srcs.push_back(s);
      if (std::exchange(step_seen[step], p) != p) mx.act.push_back({step, 0});
      step_last[step] = s;
    }
    const size_t nsrc = mx.srcs.size() - src0;
    out.muxes_before += static_cast<int>(nsrc) - 1;
    if (nsrc < 2) {
      mx.srcs.resize(src0);
      mx.act.resize(act0);
      continue;
    }
    for (size_t k = act0; k < mx.act.size(); ++k)
      mx.act[k].src = step_last[mx.act[k].step];
    mx.sink.push_back(by_pin[pin_at[p]]->sink);
    mx.src_at.push_back(mx.srcs.size());
    mx.act_at.push_back(mx.act.size());
  }
  const size_t M = mx.size();

  // Inverted index: the muxes each source feeds, in ascending mux order.
  const std::vector<size_t> fed_at = bucket_offsets(
      keys.num_sources(), mx.srcs, [](size_t s) { return s; });
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
  std::vector<size_t> in_group(keys.num_sources(), kNone);  // round per source
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
    for (size_t s : group_srcs) mm.sources.push_back(keys.source_at(s));
    out.muxes_after += mm.width();
    out.muxes.push_back(std::move(mm));
  }
  return out;
}

}  // namespace salsa
