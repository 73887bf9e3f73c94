// The scaling-corpus generator (frontend/generate.h): cross-platform
// determinism pinned by digest, legality of every generated family under
// the static verifier, and a tier-1 smoke allocation on a ~1k-op cascade
// under a wall-clock guard.
#include "frontend/generate.h"

#include <gtest/gtest.h>

#include <chrono>

#include "core/improver.h"
#include "core/initial.h"
#include "core/lifetime.h"
#include "core/search_engine.h"
#include "core/verify.h"
#include "util/rng.h"

namespace salsa {
namespace {

GenParams params_for(GenFamily f, int target, uint64_t seed) {
  GenParams p;
  p.family = f;
  p.target_ops = target;
  p.seed = seed;
  return p;
}

// Two invocations with the same params must produce byte-identical designs;
// the pinned constants freeze the corpus across platforms and standard
// libraries (generation draws only integer Rng variates — a digest drift
// here means every committed scaling wall is measuring a different design).
TEST(Generate, DeterministicAndDigestPinned) {
  struct Pin {
    GenFamily family;
    int target;
    uint64_t seed;
    uint64_t digest;
  };
  const Pin pins[] = {
      {GenFamily::kFilterCascade, 1000, 1, 0x943d366f9a1ddd82ull},
      {GenFamily::kGemmPipeline, 1000, 1, 0xaf629e18ea6b045full},
      {GenFamily::kLayeredDag, 1000, 1, 0x2c6e914813213111ull},
      {GenFamily::kLayeredDag, 1000, 2, 0x4a72b58d7a9b7e66ull},
      {GenFamily::kMemoryTraffic, 1000, 1, 0x41f8a8fe6555653eull},
      // perfbench's cascade3k and dag5k designs (its design_digest line).
      {GenFamily::kFilterCascade, 3000, 1, 0x82e59cc8f5e44b78ull},
      {GenFamily::kLayeredDag, 5000, 1, 0xb487fcb59309b858ull},
  };
  for (const Pin& pin : pins) {
    const GenParams p = params_for(pin.family, pin.target, pin.seed);
    const GeneratedDesign a = generate_design(p);
    const GeneratedDesign b = generate_design(p);
    EXPECT_EQ(design_digest(a), design_digest(b))
        << gen_family_name(pin.family) << " seed " << pin.seed;
    EXPECT_EQ(design_digest(a), pin.digest)
        << gen_family_name(pin.family) << " seed " << pin.seed << " actual 0x"
        << std::hex << design_digest(a) << std::dec
        << ": the generated corpus drifted — every committed scaling wall "
           "measures a different design now";
  }
}

// Every family meets its target op count (rounded up to the family's
// granularity) and the generated schedule validates.
TEST(Generate, MeetsTargetAndSchedulesValidate) {
  for (GenFamily f : {GenFamily::kFilterCascade, GenFamily::kGemmPipeline,
                      GenFamily::kLayeredDag}) {
    for (int target : {200, 1200}) {
      const GeneratedDesign d = generate_design(params_for(f, target, 7));
      EXPECT_GE(d.num_ops, target) << gen_family_name(f);
      EXPECT_LT(d.num_ops, target * 2 + 40) << gen_family_name(f);
      EXPECT_NO_THROW(d.schedule->validate()) << gen_family_name(f);
    }
  }
}

// Initial allocations on generated designs pass the static verifier — the
// legality leg of the acceptance criteria.
TEST(Generate, InitialAllocationsVerify) {
  for (GenFamily f : {GenFamily::kFilterCascade, GenFamily::kGemmPipeline,
                      GenFamily::kLayeredDag}) {
    const GeneratedDesign d = generate_design(params_for(f, 600, 3));
    const Binding b =
        initial_allocation(*d.problem, InitialOptions{.seed = 5});
    EXPECT_TRUE(verify(b).empty()) << gen_family_name(f);
  }
}

// Tier-1 smoke: a fixed move budget on a ~1k-op cascade must finish well
// under the guard and end in a verified, no-worse binding. The guard is
// deliberately loose (CI runners, sanitizers); the scaling wall proper
// lives in BENCH_scaling.json.
TEST(Generate, CascadeSmokeAllocationUnderWallClock) {
  const GeneratedDesign d =
      generate_design(params_for(GenFamily::kFilterCascade, 1000, 11));
  const auto t0 = std::chrono::steady_clock::now();
  Binding b = initial_allocation(*d.problem, InitialOptions{.seed = 5});
  SearchEngine eng(b);
  const double start_cost = eng.cost().total;
  Rng rng(17);
  const MoveConfig moves = MoveConfig::salsa_default();
  long committed = 0;
  for (long i = 0; i < 20000; ++i) {
    const std::optional<double> delta = eng.propose(moves.pick(rng), rng);
    if (!delta) continue;
    if (*delta <= 0) {
      eng.commit();
      ++committed;
    } else {
      eng.rollback();
    }
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_GT(committed, 0);
  EXPECT_LE(eng.cost().total, start_cost);
  EXPECT_TRUE(verify(eng.binding()).empty());
  EXPECT_LT(secs, 120.0) << "1k-op smoke allocation blew the wall-clock guard";
}

}  // namespace
}  // namespace salsa
