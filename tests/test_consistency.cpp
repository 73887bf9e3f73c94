// Cross-module consistency properties, checked over every benchmark and
// several binding states: the connection enumeration, the netlist routing
// tables, the mux-merge activity model, the controller statistics and the
// cost metrics must all tell the same story about one binding.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>

#include "bench_suite/ar_filter.h"
#include "bench_suite/dct.h"
#include "bench_suite/diffeq.h"
#include "bench_suite/ewf.h"
#include "bench_suite/fir.h"
#include "core/initial.h"
#include "core/moves.h"
#include "core/mux_merge.h"
#include "core/verify.h"
#include "datapath/controller.h"
#include "problem_at_slack.h"

namespace salsa {
namespace {

struct Case {
  const char* name;
  Cdfg (*make)();
  int extra_len;
  int extra_regs;
  int scramble;  // random moves applied before checking
};

class Consistency : public ::testing::TestWithParam<Case> {
 protected:
  void SetUp() override {
    const Case& c = GetParam();
    bundle_ = make_problem_at_slack(c.make(), HwSpec{}, c.extra_len,
                                    SpareRegisters{c.extra_regs});
    binding_ = std::make_unique<Binding>(initial_allocation(*bundle_.problem));
    Rng rng(static_cast<uint64_t>(c.scramble) * 7 + 1);
    const MoveConfig moves = MoveConfig::salsa_default();
    for (int i = 0; i < c.scramble; ++i)
      apply_random_move(*binding_, moves.pick(rng), rng);
    ASSERT_TRUE(verify(*binding_).empty());
  }

  ProblemBundle bundle_;
  std::unique_ptr<Binding> binding_;
};

TEST_P(Consistency, UsesStayInsideTheSchedule) {
  for (const ConnUse& u : connection_uses(*binding_)) {
    EXPECT_GE(u.step, 0);
    EXPECT_LT(u.step, bundle_.schedule->length());
  }
}

TEST_P(Consistency, MuxCountEqualsPinSourceExcess) {
  // Recompute the mux metric independently of evaluate_cost.
  std::map<uint64_t, std::set<uint64_t>> pin_sources;
  for (const ConnUse& u : connection_uses(*binding_)) {
    if (u.src.kind == Endpoint::Kind::kConstPort) continue;
    pin_sources[key_of(u.sink)].insert(key_of(u.src));
  }
  int muxes = 0, conns = 0;
  for (const auto& [pin, srcs] : pin_sources) {
    (void)pin;
    muxes += static_cast<int>(srcs.size()) - 1;
    conns += static_cast<int>(srcs.size());
  }
  const CostBreakdown cost = evaluate_cost(*binding_);
  EXPECT_EQ(cost.muxes, muxes);
  EXPECT_EQ(cost.connections, conns);
}

TEST_P(Consistency, NetlistRoutesEveryUse) {
  Netlist nl(*binding_);
  for (const ConnUse& u : connection_uses(*binding_)) {
    const auto src = nl.source_of(u.sink, u.step);
    ASSERT_TRUE(src.has_value());
    EXPECT_EQ(key_of(*src), key_of(u.src));
  }
}

TEST_P(Consistency, MergedMuxesNeverNeedTwoSourcesAtOnce) {
  const MuxMergeResult merged = merge_muxes(*binding_);
  // Per merged mux: at every step, all its sinks' demanded sources agree.
  std::map<std::pair<uint64_t, int>, uint64_t> demand;
  for (const ConnUse& u : connection_uses(*binding_)) {
    if (u.src.kind == Endpoint::Kind::kConstPort) continue;
    demand[{key_of(u.sink), u.step}] = key_of(u.src);
  }
  for (const MergedMux& m : merged.muxes) {
    for (int t = 0; t < bundle_.schedule->length(); ++t) {
      std::set<uint64_t> wanted;
      for (const Pin& sink : m.sinks) {
        const auto it = demand.find({key_of(sink), t});
        if (it != demand.end()) wanted.insert(it->second);
      }
      EXPECT_LE(wanted.size(), 1u) << "merged mux conflict at step " << t;
    }
  }
}

TEST_P(Consistency, MergedMuxSourcesCoverSinkDemands) {
  const MuxMergeResult merged = merge_muxes(*binding_);
  std::map<uint64_t, std::set<uint64_t>> pin_sources;
  for (const ConnUse& u : connection_uses(*binding_)) {
    if (u.src.kind == Endpoint::Kind::kConstPort) continue;
    pin_sources[key_of(u.sink)].insert(key_of(u.src));
  }
  for (const MergedMux& m : merged.muxes) {
    std::set<uint64_t> offered;
    for (const Endpoint& e : m.sources) offered.insert(key_of(e));
    for (const Pin& sink : m.sinks)
      for (uint64_t src : pin_sources[key_of(sink)])
        EXPECT_TRUE(offered.count(src));
  }
}

TEST_P(Consistency, ControllerEnablesMatchRegisterWrites) {
  Netlist nl(*binding_);
  const ControllerStats cs = analyze_controller(nl);
  std::set<int> loading;
  for (const RegLoad& ld : nl.reg_loads()) loading.insert(ld.reg);
  EXPECT_EQ(cs.reg_enable_bits, static_cast<int>(loading.size()));
  EXPECT_GE(cs.distinct_words, 1);
  EXPECT_LE(cs.distinct_words, bundle_.schedule->length());
}

TEST_P(Consistency, RegsUsedMatchesOccupancy) {
  const Occupancy occ = binding_->occupancy();
  int used = 0;
  for (const auto& per_reg : occ.reg_sto) {
    bool any = false;
    for (int sid : per_reg) any |= sid >= 0;
    used += any;
  }
  EXPECT_EQ(used, binding_->regs_used());
}

INSTANTIATE_TEST_SUITE_P(
    Benches, Consistency,
    ::testing::Values(Case{"ewf_plain", make_ewf, 0, 1, 0},
                      Case{"ewf_scrambled", make_ewf, 0, 2, 400},
                      Case{"ewf_loose", make_ewf, 4, 2, 200},
                      Case{"dct_plain", make_dct, 2, 1, 0},
                      Case{"dct_scrambled", make_dct, 2, 2, 400},
                      Case{"ar_scrambled", make_ar_filter, 1, 2, 300},
                      Case{"fir_scrambled", make_fir8, 1, 2, 300},
                      Case{"diffeq_plain", make_diffeq, 1, 1, 0}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace salsa
