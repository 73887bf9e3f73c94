// The interconnect index (core/cost.h): PinIndex's numbering and
// RouteTable's first-driver rule, plus the differential of Netlist's route
// table against the std::map route it replaced, kept here as the reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>

#include "bench_suite/dct.h"
#include "bench_suite/ewf.h"
#include "binding_corpus.h"
#include "core/cost.h"
#include "core/initial.h"
#include "datapath/netlist.h"
#include "frontend/generate.h"

namespace salsa {
namespace {

// Every module input pin of a problem's datapath, in no particular order.
std::vector<Pin> all_pins(const AllocProblem& prob) {
  std::vector<Pin> pins;
  for (FuId f = 0; f < prob.fus().size(); ++f) {
    pins.push_back({Pin::Kind::kFuIn1, f});
    pins.push_back({Pin::Kind::kFuIn0, f});
  }
  for (RegId r = 0; r < prob.num_regs(); ++r)
    pins.push_back({Pin::Kind::kRegIn, r});
  for (NodeId n : prob.cdfg().output_nodes())
    pins.push_back({Pin::Kind::kOutPort, n});
  return pins;
}

// Every non-constant source of a problem's datapath, in no particular order.
std::vector<Endpoint> all_sources(const AllocProblem& prob) {
  std::vector<Endpoint> sources;
  for (NodeId n : prob.cdfg().input_nodes())
    sources.push_back({Endpoint::Kind::kInPort, n});
  for (RegId r = 0; r < prob.num_regs(); ++r)
    sources.push_back({Endpoint::Kind::kRegOut, r});
  for (FuId f = 0; f < prob.fus().size(); ++f)
    sources.push_back({Endpoint::Kind::kFuOut, f});
  return sources;
}

// Sorted by pack(), each item must get id i, and id i must map back to it.
template <class T, class Id, class At>
void expect_dense_in_pack_order(std::vector<T> items, size_t count, Id id,
                                At at, const std::string& label) {
  std::sort(items.begin(), items.end(),
            [](const T& a, const T& b) { return pack(a) < pack(b); });
  ASSERT_EQ(items.size(), count) << label;
  for (size_t i = 0; i < items.size(); ++i) {
    ASSERT_EQ(id(items[i]), i) << label << " item " << pack(items[i]);
    ASSERT_EQ(pack(at(i)), pack(items[i])) << label << " id " << i;
  }
}

void expect_index_shape(const AllocProblem& prob, const std::string& label) {
  const PinIndex index(prob);
  expect_dense_in_pack_order(
      all_pins(prob), index.num_pins(),
      [&](const Pin& p) { return index.pin(p); },
      [&](size_t i) { return index.pin_at(i); }, label + " pins");
  expect_dense_in_pack_order(
      all_sources(prob), index.num_sources(),
      [&](const Endpoint& e) { return index.source(e); },
      [&](size_t i) { return index.source_at(i); }, label + " sources");
  const Cdfg& g = prob.cdfg();
  const std::vector<NodeId> inputs = g.input_nodes();
  const std::vector<NodeId> outputs = g.output_nodes();
  for (size_t i = 0; i < inputs.size(); ++i)
    EXPECT_EQ(index.port(inputs[i]), i) << label;
  for (size_t i = 0; i < outputs.size(); ++i)
    EXPECT_EQ(index.port(outputs[i]), i) << label;
}

TEST(PinIndex, DenseBijectiveAndInPackOrder) {
  for (const int steps : {17, 21}) {
    const auto ewf =
        make_problem(make_ewf(), HwSpec{}, steps, SpareRegisters{1});
    expect_index_shape(*ewf.problem, "ewf" + std::to_string(steps));
  }
  for (const int steps : {7, 10}) {
    const auto dct = make_problem(make_dct(), HwSpec{.pipelined_mul = true},
                                  steps, SpareRegisters{2});
    expect_index_shape(*dct.problem, "dct" + std::to_string(steps));
  }
  for (const GenFamily f :
       {GenFamily::kFilterCascade, GenFamily::kGemmPipeline,
        GenFamily::kLayeredDag, GenFamily::kMemoryTraffic}) {
    const GeneratedDesign d = generate_design(
        GenParams{.family = f, .target_ops = 1000, .seed = 1});
    expect_index_shape(*d.problem, std::string(gen_family_name(f)) + "1k");
  }
}

TEST(RouteTable, FirstDriverWinsAndConflictsAreReported) {
  const auto ewf = make_problem(make_ewf(), HwSpec{}, 17, SpareRegisters{1});
  const Binding b = initial_allocation(*ewf.problem);
  RouteTable routes(*ewf.problem);
  const std::vector<ConnUse> uses = connection_uses(b);
  bool saw_const = false;
  for (const ConnUse& u : uses) {
    EXPECT_TRUE(routes.route(u));
    saw_const |= u.src.kind == Endpoint::Kind::kConstPort;
  }
  EXPECT_TRUE(saw_const);  // constants are routed like any source
  for (const ConnUse& u : uses) {
    EXPECT_EQ(routes.driver(u.sink, u.step), u.src);
    EXPECT_TRUE(routes.route(u));  // the same driver again is no conflict
  }
  // A second source at a routed (pin, step) is refused; the first stays.
  ConnUse other = uses.front();
  other.src.id ^= 1;
  EXPECT_FALSE(routes.route(other));
  EXPECT_EQ(routes.driver(other.sink, other.step), uses.front().src);
  // Unrouted (pin, step) pairs have no driver.
  size_t routed = 0, empty = 0;
  for (size_t p = 0; p < routes.index().num_pins(); ++p)
    for (const uint32_t d : routes.row(p))
      ++(d == RouteTable::kNoDriver ? empty : routed);
  EXPECT_GT(empty, 0u);
  std::vector<std::pair<uint32_t, int>> distinct;
  for (const ConnUse& u : uses) distinct.emplace_back(pack(u.sink), u.step);
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  EXPECT_EQ(routed, distinct.size());
}

// --- Netlist against the std::map route it replaced --------------------------

// The netlist as it was built over a std::map route: (pin key, step) ->
// source, the first use of a (pin, step) winning.
struct ReferenceNetlist {
  std::map<std::pair<uint64_t, int>, Endpoint> route;
  std::vector<RegLoad> reg_loads;
  std::vector<OutSample> out_samples;
  std::vector<FuAction> fu_actions;

  explicit ReferenceNetlist(const Binding& b) {
    for (const ConnUse& u : connection_uses(b)) {
      route.emplace(std::make_pair(pack(u.sink), u.step), u.src);
      if (u.sink.kind == Pin::Kind::kRegIn)
        reg_loads.push_back(RegLoad{u.sink.id, u.src, u.step});
      if (u.sink.kind == Pin::Kind::kOutPort)
        out_samples.push_back(OutSample{u.sink.id, u.src.id, u.step});
    }
    for (NodeId n : b.prob().cdfg().operations())
      fu_actions.push_back(FuAction{n, b.op(n).fu, b.prob().sched().start(n)});
  }

  std::optional<Endpoint> source_of(const Pin& pin, int step) const {
    const auto it = route.find(std::make_pair(pack(pin), step));
    if (it == route.end()) return std::nullopt;
    return it->second;
  }
};

// The first difference between the netlist and the reference, or "".
std::string first_difference(const Netlist& nl, const ReferenceNetlist& ref) {
  const AllocProblem& prob = nl.binding().prob();
  for (const Pin& p : all_pins(prob))
    for (int t = 0; t < prob.sched().length(); ++t)
      if (nl.source_of(p, t) != ref.source_of(p, t))
        return "source_of pin " + std::to_string(pack(p)) + " at step " +
               std::to_string(t);
  if (nl.reg_loads().size() != ref.reg_loads.size()) return "reg_loads size";
  for (size_t i = 0; i < ref.reg_loads.size(); ++i) {
    const RegLoad& a = nl.reg_loads()[i];
    const RegLoad& r = ref.reg_loads[i];
    if (a.reg != r.reg || a.src != r.src || a.step != r.step)
      return "reg_loads[" + std::to_string(i) + "]";
  }
  if (nl.out_samples().size() != ref.out_samples.size())
    return "out_samples size";
  for (size_t i = 0; i < ref.out_samples.size(); ++i) {
    const OutSample& a = nl.out_samples()[i];
    const OutSample& r = ref.out_samples[i];
    if (a.node != r.node || a.reg != r.reg || a.step != r.step)
      return "out_samples[" + std::to_string(i) + "]";
  }
  if (nl.fu_actions().size() != ref.fu_actions.size())
    return "fu_actions size";
  for (size_t i = 0; i < ref.fu_actions.size(); ++i) {
    const FuAction& a = nl.fu_actions()[i];
    const FuAction& r = ref.fu_actions[i];
    if (a.node != r.node || a.fu != r.fu || a.step != r.step)
      return "fu_actions[" + std::to_string(i) + "]";
  }
  return "";
}

TEST(NetlistReference, MatchesMapRouteOnCorpus) {
  const BindingCorpus corpus = build_binding_corpus();
  for (const CorpusBinding& cb : corpus.bindings)
    EXPECT_EQ(first_difference(Netlist(cb.binding),
                               ReferenceNetlist(cb.binding)),
              "")
        << cb.label;
}

}  // namespace
}  // namespace salsa
