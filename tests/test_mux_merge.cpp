#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "bench_suite/dct.h"
#include "bench_suite/ewf.h"
#include "binding_corpus.h"
#include "core/allocator.h"
#include "core/mux_merge.h"
#include "mux_merge_reference.h"

namespace salsa {
namespace {

TEST(MuxMerge, NeverIncreasesCount) {
  const ProblemBundle p =
      make_problem(make_ewf(), HwSpec{}, 17, SpareRegisters{1});
  Binding b = initial_allocation(*p.problem);
  const MuxMergeResult r = merge_muxes(b);
  EXPECT_LE(r.muxes_after, r.muxes_before);
  EXPECT_EQ(r.muxes_before, evaluate_cost(b).muxes);
}

TEST(MuxMerge, GroupWidthsSumToAfterCount) {
  const ProblemBundle p =
      make_problem(make_dct(), HwSpec{}, 10, SpareRegisters{2});
  Binding b = initial_allocation(*p.problem);
  const MuxMergeResult r = merge_muxes(b);
  int sum = 0;
  for (const MergedMux& m : r.muxes) {
    sum += m.width();
    EXPECT_GE(m.sources.size(), 2u);
    EXPECT_GE(m.sinks.size(), 1u);
  }
  EXPECT_EQ(sum, r.muxes_after);
}

TEST(MuxMerge, EverySinkAppearsAtMostOnce) {
  const ProblemBundle p =
      make_problem(make_ewf(), HwSpec{}, 19, SpareRegisters{1});
  Binding b = initial_allocation(*p.problem);
  const MuxMergeResult r = merge_muxes(b);
  std::vector<uint64_t> sinks;
  for (const MergedMux& m : r.muxes)
    for (const Pin& p : m.sinks) sinks.push_back(pack(p));
  std::sort(sinks.begin(), sinks.end());
  EXPECT_EQ(std::adjacent_find(sinks.begin(), sinks.end()), sinks.end());
}

TEST(MuxMerge, MergesDisjointActivityByConstruction) {
  // Hand-build a datapath where two 2-source muxes are active at different
  // steps and must merge: two values read by ops at different steps, each
  // from two alternating registers.
  Cdfg g("merge");
  const ValueId in1 = g.add_input("i1");
  const ValueId in2 = g.add_input("i2");
  const ValueId c = g.add_const(1);
  const ValueId v1 = g.add_op(OpKind::kAdd, in1, c, "v1");
  const ValueId v2 = g.add_op(OpKind::kAdd, in2, c, "v2");
  const ValueId w1 = g.add_op(OpKind::kAdd, v1, v2, "w1");
  const ValueId w2 = g.add_op(OpKind::kAdd, v2, v1, "w2");
  g.add_output(w1, "o1");
  g.add_output(w2, "o2");
  g.validate();
  Schedule s(g, HwSpec{}, 6);
  s.set_start(g.producer(v1), 0);
  s.set_start(g.producer(v2), 0);
  s.set_start(g.producer(w1), 2);
  s.set_start(g.producer(w2), 4);
  s.set_start(g.output_nodes()[0], 3);
  s.set_start(g.output_nodes()[1], 5);
  s.validate();
  AllocProblem prob(s, FuPool::standard(FuBudget{2, 0}), SpareRegisters{1});
  Binding b = initial_allocation(prob);
  const MuxMergeResult r = merge_muxes(b);
  EXPECT_LE(r.muxes_after, r.muxes_before);
}

TEST(MuxMerge, AfterImprovementStillConsistent) {
  const ProblemBundle p =
      make_problem(make_ewf(), HwSpec{}, 17, SpareRegisters{1});
  AllocatorOptions opts;
  opts.improve.max_trials = 4;
  opts.improve.moves_per_trial = 400;
  const AllocationResult res = allocate(*p.problem, opts);
  int sum = 0;
  for (const MergedMux& m : res.merging.muxes) sum += m.width();
  EXPECT_EQ(sum, res.merging.muxes_after);
  EXPECT_LE(res.merging.muxes_after, res.merging.muxes_before);
}

// --- reference differential -------------------------------------------------

// The first difference between two merge results, or "" when every field
// matches: both counts, the group order, each group's sinks in order and
// its sources in order.
std::string first_difference(const MuxMergeResult& got,
                             const MuxMergeResult& want) {
  std::ostringstream os;
  if (got.muxes_before != want.muxes_before)
    os << "muxes_before " << got.muxes_before << " vs " << want.muxes_before;
  else if (got.muxes_after != want.muxes_after)
    os << "muxes_after " << got.muxes_after << " vs " << want.muxes_after;
  else if (got.muxes.size() != want.muxes.size())
    os << "groups " << got.muxes.size() << " vs " << want.muxes.size();
  for (size_t g = 0; os.tellp() == 0 && g < got.muxes.size(); ++g) {
    const MergedMux& a = got.muxes[g];
    const MergedMux& b = want.muxes[g];
    if (a.sinks != b.sinks)
      os << "group " << g << " sinks differ (" << a.sinks.size() << " vs "
         << b.sinks.size() << ")";
    else if (a.sources != b.sources)
      os << "group " << g << " sources differ (" << a.sources.size()
         << " vs " << b.sources.size() << ")";
  }
  return os.str();
}

// What a corpus exercises of the greedy merge.
struct MergeCensus {
  int big_groups = 0;  ///< groups of three or more sinks
  /// Candidates the merge visits while they share a source with the group,
  /// and rejects because some step needs two different sources.
  int incompatible_overlaps = 0;
  /// Group members that share no source with the group's first mux: they
  /// join through a source an earlier member brought in.
  int transitive_joins = 0;

  MergeCensus& operator+=(const MergeCensus& o) {
    big_groups += o.big_groups;
    incompatible_overlaps += o.incompatible_overlaps;
    transitive_joins += o.transitive_joins;
    return *this;
  }
};

// Replays the groups of `r` over the per-pin sources and activity of `b`:
// each group starts from its first mux and takes its members in order,
// and every other later mux not merged by an earlier group is a candidate
// the pairwise merge visited.
MergeCensus census(const Binding& b, const MuxMergeResult& r) {
  std::map<uint64_t, std::set<uint64_t>> sources;
  std::map<uint64_t, std::map<int, uint64_t>> active;
  for (const ConnUse& u : connection_uses(b)) {
    if (u.src.kind == Endpoint::Kind::kConstPort) continue;
    sources[pack(u.sink)].insert(pack(u.src));
    active[pack(u.sink)][u.step] = pack(u.src);
  }
  std::vector<uint64_t> muxes;  // multi-source pins, ascending
  for (const auto& [pin, srcs] : sources)
    if (srcs.size() >= 2) muxes.push_back(pin);
  std::map<uint64_t, size_t> group_of;
  for (size_t g = 0; g < r.muxes.size(); ++g)
    for (const Pin& p : r.muxes[g].sinks) group_of[pack(p)] = g;

  const auto shares = [](const std::set<uint64_t>& a,
                         const std::set<uint64_t>& b) {
    return std::any_of(a.begin(), a.end(),
                       [&](uint64_t s) { return b.count(s) > 0; });
  };
  MergeCensus c;
  for (size_t g = 0; g < r.muxes.size(); ++g) {
    const std::vector<Pin>& sinks = r.muxes[g].sinks;
    if (sinks.size() >= 3) ++c.big_groups;
    const uint64_t first = pack(sinks[0]);
    for (size_t k = 1; k < sinks.size(); ++k)
      c.transitive_joins += !shares(sources[pack(sinks[k])], sources[first]);
    std::set<uint64_t> group_srcs = sources[first];
    std::map<int, uint64_t> group_act = active[first];
    size_t next = 1;
    for (auto it = std::upper_bound(muxes.begin(), muxes.end(), first);
         it != muxes.end(); ++it) {
      if (group_of[*it] < g) continue;  // merged by an earlier group
      if (next < sinks.size() && *it == pack(sinks[next])) {
        ++next;
        group_srcs.insert(sources[*it].begin(), sources[*it].end());
        for (const auto& [step, src] : active[*it]) group_act[step] = src;
        continue;
      }
      if (!shares(sources[*it], group_srcs)) continue;
      for (const auto& [step, src] : active[*it]) {
        const auto at = group_act.find(step);
        if (at != group_act.end() && at->second != src) {
          ++c.incompatible_overlaps;
          break;
        }
      }
    }
  }
  return c;
}

// merge_muxes() must equal the pairwise merge it replaced in every field
// on the whole corpus, and the corpus must exercise what the index-driven
// merge can get wrong: multi-member groups, candidates rejected despite a
// shared source, and members that join only transitively.
TEST(MuxMergeReference, MatchesPairwiseMergeOnCorpus) {
  const BindingCorpus corpus = build_binding_corpus();
  MergeCensus total;
  int copies = 0, pass_throughs = 0;
  for (const CorpusBinding& cb : corpus.bindings) {
    const MuxMergeResult want = reference::merge_muxes(cb.binding);
    EXPECT_EQ(first_difference(merge_muxes(cb.binding), want), "")
        << cb.label;
    total += census(cb.binding, want);
    for (int sid = 0; sid < cb.binding.prob().lifetimes().num_storages();
         ++sid)
      for (const std::vector<Cell>& cells : cb.binding.sto(sid).cells) {
        copies += cells.size() > 1;
        for (const Cell& cell : cells) pass_throughs += cell.via != kInvalidId;
      }
  }
  EXPECT_EQ(corpus.bindings.size(),
            2u * (2 * 3 * (5 + 7) + 200 + 4 + 2) + 3 * 4);
  EXPECT_GT(total.big_groups, 0);
  EXPECT_GT(total.incompatible_overlaps, 0);
  EXPECT_GT(total.transitive_joins, 0);
  EXPECT_GT(copies, 0);
  EXPECT_GT(pass_throughs, 0);
}

}  // namespace
}  // namespace salsa
