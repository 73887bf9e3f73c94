// The event-driven list scheduler and the filtered force loop must decide
// exactly as the rescanning schedulers they replaced, kept in
// sched_reference.h: the same start steps, the same std::nullopt and the
// same errors, on random CDFGs under varied timing (two-step adders,
// three-step and pipelined multipliers, lengths from below the critical
// path, where force-directed scheduling throws, to twice it, every small
// FU budget, with and without priority noise), on the four generated
// families and on a long schedule whose flat distributions make most
// candidate steps tie.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "bench_suite/random_cdfg.h"
#include "frontend/generate.h"
#include "sched/force_directed.h"
#include "sched/fu_search.h"
#include "sched_reference.h"

namespace salsa {
namespace {

// A scheduler call's outcome as text: every start step, "nullopt", or the
// error it threw.
std::string outcome(const std::function<std::optional<Schedule>()>& run) {
  try {
    const std::optional<Schedule> s = run();
    if (!s) return "nullopt";
    std::string out;
    for (NodeId n = 0; n < s->cdfg().num_nodes(); ++n)
      out += std::to_string(s->start(n)) + ' ';
    return out;
  } catch (const Error& e) {
    return std::string("error: ") + e.what();
  }
}

bool placed(const std::string& outcome) {
  return outcome != "nullopt" && outcome.rfind("error: ", 0) != 0;
}

struct Counts {
  int list = 0, list_placed = 0, fds = 0, fds_placed = 0;
};

// list_schedule at every budget in alus x muls, with and without noise
// (both sides draw it from a generator with the same seed).
void diff_list(const Cdfg& g, const HwSpec& hw, int len,
               const std::vector<int>& alus, const std::vector<int>& muls,
               const std::string& at, Counts& c) {
  for (const int alu : alus)
    for (const int mul : muls)
      for (const bool noisy : {false, true}) {
        const FuBudget b{alu, mul};
        Rng r1(static_cast<uint64_t>(len * 100 + alu * 10 + mul));
        Rng r2 = r1;
        const std::string got = outcome([&] {
          return list_schedule(g, hw, len, b, noisy ? &r1 : nullptr);
        });
        const std::string want = outcome([&] {
          return reference::list_schedule(g, hw, len, b,
                                          noisy ? &r2 : nullptr);
        });
        ASSERT_EQ(got, want) << at << " L=" << len << " budget " << alu << "x"
                             << mul << (noisy ? " noisy" : "");
        ++c.list;
        if (placed(got)) ++c.list_placed;
      }
}

void diff_fds(const Cdfg& g, const HwSpec& hw, int len, const std::string& at,
              Counts& c) {
  const std::string got = outcome(
      [&] { return std::optional(force_directed_schedule(g, hw, len)); });
  const std::string want = outcome([&] {
    return std::optional(reference::force_directed_schedule(g, hw, len));
  });
  ASSERT_EQ(got, want) << at << " L=" << len;
  ++c.fds;
  if (placed(got)) ++c.fds_placed;
}

TEST(SchedDifferential, RandomCdfgs) {
  Counts c;
  Rng pick(2028);
  for (int k = 0; k < 64; ++k) {
    RandomCdfgParams p;
    p.num_ops = 6 + pick.uniform(60);
    p.num_states = std::min(pick.uniform(4), p.num_ops - 1);
    p.mul_frac = 0.2 + 0.1 * pick.uniform(4);
    p.seed = 900 + static_cast<uint64_t>(k);
    const Cdfg g = make_random_cdfg(p);
    const HwSpec hw{.add_delay = 1 + pick.uniform(2),
                    .mul_delay = 2 + pick.uniform(2),
                    .pipelined_mul = pick.chance(0.5)};
    const std::string at = g.name() + " add_delay " +
                           std::to_string(hw.add_delay) + " mul_delay " +
                           std::to_string(hw.mul_delay) +
                           (hw.pipelined_mul ? " pipelined" : "");
    const int l0 = min_schedule_length(g, hw);
    for (const int len : {l0 - 1, l0, l0 + 1, l0 + 4, 2 * l0}) {
      if (len < 1) continue;
      diff_list(g, hw, len, {1, 2, 3, 4}, {1, 2, 3}, at, c);
      diff_fds(g, hw, len, at, c);
    }
  }
  // The corpus reaches both outcomes of both schedulers.
  EXPECT_GT(c.list_placed, c.list / 4);
  EXPECT_LT(c.list_placed, c.list);
  EXPECT_GT(c.fds_placed, c.fds / 2);
  EXPECT_LT(c.fds_placed, c.fds);
}

// list_schedule at ~300 ops from each family's occupancy bound up to twice
// it (generate_design's budget is the second point), and FDS on the same
// families at ~150 ops, where the reference force loop stays cheap.
TEST(SchedDifferential, GeneratedFamilies) {
  Counts c;
  auto from = [](int occ) {
    return std::vector<int>{occ, occ + occ / 8 + 1, occ + occ / 2 + 1,
                            2 * occ + 1};
  };
  for (const GenFamily f :
       {GenFamily::kFilterCascade, GenFamily::kGemmPipeline,
        GenFamily::kLayeredDag, GenFamily::kMemoryTraffic}) {
    const char* name = gen_family_name(f);
    const Cdfg g = generate_cdfg(GenParams{.family = f, .target_ops = 300});
    const HwSpec hw;
    const int l0 = min_schedule_length(g, hw);
    for (const int len : {l0, l0 + 1, l0 + 4, 2 * l0}) {
      const FuBudget occ = occupancy_bound(g, hw, len);
      diff_list(g, hw, len, from(occ.alu), from(occ.mul), name, c);
    }
    const Cdfg small =
        generate_cdfg(GenParams{.family = f, .target_ops = 150});
    const int s0 = min_schedule_length(small, hw);
    for (const int len : {s0, s0 + 4}) diff_fds(small, hw, len, name, c);
  }
  EXPECT_GT(c.list_placed, c.list / 4);
  EXPECT_LT(c.list_placed, c.list);
  EXPECT_EQ(c.fds_placed, c.fds);
}

// A four-node design at 2,000 steps: one operation per class, so each class
// distribution is flat and every candidate ties in exact arithmetic; the
// rounding of the left-to-right sums decides.
TEST(SchedDifferential, LongScheduleTies) {
  Cdfg g("tiny");
  const ValueId x = g.add_input("x");
  const ValueId p = g.add_op(OpKind::kMul, x, g.add_const(3, "k"), "p");
  g.add_output(g.add_op(OpKind::kAdd, p, x, "q"), "y");
  g.validate();
  Counts c;
  for (const bool pipe : {false, true}) {
    const HwSpec hw{.pipelined_mul = pipe};
    diff_fds(g, hw, 2000, "tiny", c);
    diff_list(g, hw, 2000, {1}, {1}, "tiny", c);
  }
  EXPECT_EQ(c.fds_placed, 2);
  EXPECT_EQ(c.list_placed, 4);
}

}  // namespace
}  // namespace salsa
