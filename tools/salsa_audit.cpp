// salsa_audit — the SalsaCheck command line: drives the move fuzzer, the
// determinism audit and the index/bitplane/segment/scaling/sim
// cross-checks over the standard targets, printing one summary line per
// audit and exiting non-zero on any violation. Run with --help for the
// full flag catalogue (kUsage below is the single source of truth; an
// unknown flag prints it and exits 2 so CI invocations cannot silently
// mis-type a mode, and a malformed flag value prints "error: ..." and
// exits 2).
#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include <chrono>

#include "analysis/determinism.h"
#include "analysis/digest.h"
#include "analysis/fuzz.h"
#include "core/initial.h"
#include "datapath/event_sim.h"
#include "datapath/memory.h"
#include "frontend/generate.h"
#include "core/moves.h"
#include "core/search_engine.h"
#include "util/args.h"
#include "util/bitplane.h"
#include "util/flat_map.h"
#include "util/rng.h"

using namespace salsa;

namespace {

// One source of truth for the flag listing: printed by --help (stdout,
// exit 0) and after an unknown flag (stderr, exit 2). CI drives this tool
// with long hand-written invocations, where a silently mis-typed flag used
// to be easy to commit; now every flag either parses or stops the run with
// the catalogue in view.
constexpr const char* kUsage = R"(salsa_audit — the SalsaCheck command line

usage: salsa_audit [options]

general
  --target ewf|dct|random|all   standard target(s) to audit (default: all)
  --transactions N   feasible transactions per target (default: 10000)
  --seed S           fuzz seed; a CI failure replays with the printed seed
  --every N          audit every Nth transaction (default: 1 = all)
  --commit-prob P    probability a feasible move is committed (default: 0.5)
  --weighted         draw moves by MoveConfig weight instead of uniformly
  --artifacts DIR    directory for failure artifacts (seed + binding JSON)
  --dump             print each target's start binding JSON and exit
  --help, -h         print this listing and exit

audit modes
  --determinism      replay allocate() per thread count and diff the
                     per-restart digest streams (default threads 1,2,8)
  --restarts R       restarts for the determinism audit (default: 6)
  --threads a,b,c    comma-separated thread counts for the determinism audit
  --index            cross-check the flat connection index against a
                     from-scratch rebuild after every commit
  --index-commits N  commits per index audit run (default: 2000)
  --bitplane         run the packed-vs-scalar occupancy differential after
                     every commit
  --bitplane-commits N  commits per bitplane audit run (default: 2000)
  --segment          window-vs-whole differential: a segment-windowed engine
                     against a whole-storage-walk reference on the identical
                     move stream, cost integers and digests cross-checked
                     after every transaction
  --scaling          fuzz a generated mid-size cascade under the
                     size-sampled auditor (fails if sampling never engages)
  --scaling-ops N    target operation count for --scaling (default: 5000)
  --sim              engine-pair differential: event-driven vs full-eval
                     simulation on every target (initial and scrambled
                     bindings), one generated cascade, and the
                     memory-traffic subsystem end to end
  --sim-ops N        cascade operation count for --sim (default: 2000)
  --sim-wall         exclusive mode: time both engines on ewf and a large
                     generated cascade, verify they agree, and print the
                     sim wall JSON rows (input to scripts/check_sim_gate.py)
  --sim-wall-ops N   cascade operation count for --sim-wall (default: 10000)

mutation tests (expected output: a VIOLATION; CI asserts non-zero exit)
  --inject-broken-undo N   break the Nth rollback's undo
  --break-flat-erase N     Nth FlatMap erase skips backward-shift compaction
  --break-bitplane-word N  Nth ranged busy-plane word update left broken
  --break-segment-window N Nth windowed claim re-add drops its last segment
  --break-event-skip N     Nth event wake-up lost (occurrence marked handled)
  --break-restore N        Nth checkpoint restore of the move fuzzer leaves a
                           changed storage unrestored (the fuzzer restores
                           every 2500 transactions)
)";

// --index: a weighted random search (commit-biased, so the connection index
// churns through creation, refcount bumps and backward-shift erases) with
// the incrementally maintained flat index cross-checked against a
// from-scratch rebuild after every commit. An Error out of the engine (for
// example FlatMap's missing-key CHECK on a corrupted table) counts as a
// caught violation, same as a rebuild mismatch — that is the point of the
// --break-flat-erase mutation.
struct IndexAuditResult {
  long commits = 0;
  long proposals = 0;
  bool ok = true;
  std::string failure;
};

IndexAuditResult run_index_audit(const AllocProblem& prob, uint64_t seed,
                                 long commits_target) {
  IndexAuditResult res;
  try {
    Binding start = initial_allocation(
        prob, InitialOptions{.seed = derive_seed(seed, 0)});
    SearchEngine eng(start);
    Rng rng(derive_seed(seed, 1));
    const MoveConfig moves = MoveConfig::salsa_default();
    const long cap = commits_target * 50;
    while (res.commits < commits_target && res.proposals < cap) {
      ++res.proposals;
      if (!eng.propose(moves.pick(rng), rng)) continue;
      if (rng.chance(0.3)) {
        eng.rollback();
        continue;
      }
      eng.commit();
      ++res.commits;
      std::string why;
      if (!eng.index_matches_rebuild(&why)) {
        res.ok = false;
        res.failure = "index diverged from rebuild after commit " +
                      std::to_string(res.commits) + ": " + why;
        break;
      }
    }
  } catch (const Error& e) {
    res.ok = false;
    res.failure = std::string("engine check failed: ") + e.what();
  }
  return res;
}

// --bitplane: same search shape as --index, but the per-commit cross-check
// is the packed-vs-scalar occupancy differential
// (SearchEngine::occupancy_planes_match) — O(resources x steps) word-and-bit
// compares instead of a full O(design) rebuild. The --break-bitplane-word
// mutation degrades one ranged busy-plane word update to a per-bit loop
// that stops one bit short; the stale bit stays in the plane, a grid/plane
// divergence the next commit's check must report.
IndexAuditResult run_bitplane_audit(const AllocProblem& prob, uint64_t seed,
                                    long commits_target) {
  IndexAuditResult res;
  try {
    Binding start = initial_allocation(
        prob, InitialOptions{.seed = derive_seed(seed, 0)});
    SearchEngine eng(start);
    Rng rng(derive_seed(seed, 1));
    const MoveConfig moves = MoveConfig::salsa_default();
    const long cap = commits_target * 50;
    while (res.commits < commits_target && res.proposals < cap) {
      ++res.proposals;
      if (!eng.propose(moves.pick(rng), rng)) continue;
      if (rng.chance(0.3)) {
        eng.rollback();
        continue;
      }
      eng.commit();
      ++res.commits;
      std::string why;
      if (!eng.occupancy_planes_match(&why)) {
        res.ok = false;
        res.failure = "bitplanes diverged from the grids after commit " +
                      std::to_string(res.commits) + ": " + why;
        break;
      }
    }
  } catch (const Error& e) {
    res.ok = false;
    res.failure = std::string("engine check failed: ") + e.what();
  }
  return res;
}

// --sim: the engine-pair differential on one allocation problem — the
// event-driven simulator against the full-evaluation reference on the
// initial binding and again after a move scramble. Engine CHECK failures
// (stale-signal reads, lost events) count as caught violations, same as a
// trace divergence — that is the point of the --break-event-skip mutation.
struct SimAuditResult {
  long checks = 0;
  bool ok = true;
  std::string failure;
};

SimAuditResult run_sim_audit(const AllocProblem& prob, uint64_t seed) {
  SimAuditResult res;
  try {
    Binding b = initial_allocation(
        prob, InitialOptions{.seed = derive_seed(seed, 0)});
    {
      Netlist nl(b);
      const std::string d = random_engine_diff(nl, 5, derive_seed(seed, 2));
      ++res.checks;
      if (!d.empty()) {
        res.ok = false;
        res.failure = "initial binding: " + d;
        return res;
      }
    }
    Rng rng(derive_seed(seed, 3));
    const MoveConfig moves = MoveConfig::salsa_default();
    for (int i = 0; i < 400; ++i) apply_random_move(b, moves.pick(rng), rng);
    Netlist nl(b);
    const std::string d = random_engine_diff(nl, 5, derive_seed(seed, 4));
    ++res.checks;
    if (!d.empty()) {
      res.ok = false;
      res.failure = "scrambled binding: " + d;
    }
  } catch (const Error& e) {
    res.ok = false;
    res.failure = std::string("engine check failed: ") + e.what();
  }
  return res;
}

// --sim-wall: wall-clock rows for the sim gate. Absolute timings are
// meaningless on shared runners (same argument as the scaling gate), so
// scripts/check_sim_gate.py judges the ratio of event-engine ns-per-firing
// on a large cascade to ns-per-firing on EWF, measured in the same run: a
// per-step rescan creeping back into the event engine makes the big
// design's per-firing cost blow up while EWF's barely moves.
int run_sim_wall(int ops, uint64_t seed) {
  struct Case {
    const char* family;
    int iterations;
  };
  std::printf("[\n");
  bool first = true;
  // EWF needs enough iterations to time stably on a noisy shared runner;
  // each row is additionally measured several times and reported as the
  // minimum (the standard noise-floor estimate).
  for (const Case& c : {Case{"ewf", 5000}, Case{"cascade", 3}}) {
    std::unique_ptr<FuzzTarget> target;
    std::unique_ptr<GeneratedDesign> gen;
    const AllocProblem* prob = nullptr;
    int num_ops = 0;
    if (std::string(c.family) == "ewf") {
      target = std::make_unique<FuzzTarget>("ewf");
      prob = &target->prob();
      for (const Node& n : prob->cdfg().nodes())
        if (is_operation(n.kind)) ++num_ops;
    } else {
      gen = std::make_unique<GeneratedDesign>(generate_design(GenParams{
          .family = GenFamily::kFilterCascade,
          .target_ops = ops,
          .seed = 2,
      }));
      prob = gen->problem.get();
      num_ops = gen->num_ops;
    }
    const Binding b = initial_allocation(
        *prob, InitialOptions{.seed = derive_seed(seed, 7)});
    const Netlist nl(b);
    const Cdfg& g = prob->cdfg();
    Rng rng(derive_seed(seed, 8));
    std::vector<std::vector<int64_t>> inputs(
        static_cast<size_t>(c.iterations) + 1,
        std::vector<int64_t>(g.input_nodes().size(), 0));
    for (auto& vec : inputs)
      for (auto& v : vec) v = static_cast<int64_t>(rng.next() % 2001) - 1000;
    const std::vector<int64_t> states(g.state_nodes().size(), 0);

    EventSimStats stats;
    double event_ms = 0, full_ms = 0;
    for (int rep = 0; rep < 5; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      const SimResult ev =
          simulate_events(nl, inputs, states, c.iterations, nullptr, &stats);
      const auto t1 = std::chrono::steady_clock::now();
      const SimResult full = simulate(nl, inputs, states, c.iterations);
      const auto t2 = std::chrono::steady_clock::now();
      if (ev.outputs != full.outputs)
        fail(std::string("sim-wall: engines diverged on ") + c.family);
      const double e =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      const double f =
          std::chrono::duration<double, std::milli>(t2 - t1).count();
      if (rep == 0 || e < event_ms) event_ms = e;
      if (rep == 0 || f < full_ms) full_ms = f;
    }
    const double ns_per_firing =
        stats.firings > 0 ? event_ms * 1e6 / static_cast<double>(stats.firings)
                          : 0.0;
    std::printf(
        "%s  {\"benchmark\": \"SimWall\", \"family\": \"%s\", \"ops\": %d, "
        "\"iterations\": %d, \"slots\": %ld, \"firings\": %ld, "
        "\"event_ms\": %.3f, \"full_ms\": %.3f, \"ns_per_firing\": %.2f}",
        first ? "" : ",\n", c.family, num_ops, c.iterations, stats.slots,
        stats.firings, event_ms, full_ms, ns_per_firing);
    first = false;
  }
  std::printf("\n]\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string target = "all";
  FuzzParams fuzz;
  bool determinism = false, dump = false;
  bool index_audit = false;
  long index_commits = 2000;
  long break_flat_erase = 0;
  bool bitplane_audit = false;
  long bitplane_commits = 2000;
  long break_bitplane_word = 0;
  bool segment_audit = false;
  long break_segment_window = 0;
  bool scaling = false;
  int scaling_ops = 5000;
  bool sim_audit = false;
  int sim_ops = 2000;
  bool sim_wall = false;
  int sim_wall_ops = 10000;
  long break_event_skip = 0;
  long break_restore = 0;
  int restarts = 6;
  std::vector<int> threads{1, 2, 8};

  // Flag values are range-checked (util/args.h); a malformed one is a
  // usage error like an unknown flag.
  constexpr long kMaxCount = 1000000000;
  constexpr int kMaxOps = 1000000;
  auto count = [&](int* i) {
    return static_cast<long>(int_flag(argc, argv, i, 1, kMaxCount));
  };
  auto ops = [&](int* i) {
    return static_cast<int>(int_flag(argc, argv, i, 1, kMaxOps));
  };
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--target") {
        target = flag_value(argc, argv, &i);
        const auto& names = FuzzTarget::names();
        if (target != "all" &&
            std::find(names.begin(), names.end(), target) == names.end())
          fail("--target expects ewf, dct, random or all, got '" + target +
               "'");
      } else if (arg == "--transactions") {
        fuzz.transactions = count(&i);
      } else if (arg == "--seed") {
        fuzz.seed = static_cast<uint64_t>(int_flag(
            argc, argv, &i, 0, std::numeric_limits<long long>::max()));
      } else if (arg == "--every") {
        fuzz.audit.every = count(&i);
      } else if (arg == "--commit-prob") {
        fuzz.commit_prob = real_flag(argc, argv, &i, 0.0, 1.0);
      } else if (arg == "--weighted") {
        fuzz.uniform_kinds = false;
      } else if (arg == "--determinism") {
        determinism = true;
      } else if (arg == "--restarts") {
        restarts = static_cast<int>(int_flag(argc, argv, &i, 1, 100000));
      } else if (arg == "--threads") {
        threads = int_list_flag(argc, argv, &i, 1, 4096);
      } else if (arg == "--artifacts") {
        fuzz.artifact_dir = flag_value(argc, argv, &i);
      } else if (arg == "--inject-broken-undo") {
        // Mutation testing: break the Nth rollback's undo and watch the
        // digest check catch it (expected output: a VIOLATION).
        fuzz.inject_broken_undo_at = count(&i);
      } else if (arg == "--index") {
        index_audit = true;
      } else if (arg == "--index-commits") {
        index_commits = count(&i);
      } else if (arg == "--break-flat-erase") {
        // Mutation testing: skip the Nth erase's backward-shift compaction
        // and watch the rebuild cross-check catch the orphaned keys.
        index_audit = true;
        break_flat_erase = count(&i);
      } else if (arg == "--bitplane") {
        bitplane_audit = true;
      } else if (arg == "--bitplane-commits") {
        bitplane_commits = count(&i);
      } else if (arg == "--break-bitplane-word") {
        // Mutation testing: cripple the Nth ranged busy-plane word update
        // and watch the packed-vs-scalar differential catch the stale bit.
        bitplane_audit = true;
        break_bitplane_word = count(&i);
      } else if (arg == "--segment") {
        segment_audit = true;
      } else if (arg == "--break-segment-window") {
        // Mutation testing: the Nth windowed claim re-add drops its last
        // segment on the add side only, drifting occupancy/refcounts/key
        // cache from the binding — the window-vs-whole differential must
        // catch it.
        segment_audit = true;
        break_segment_window = count(&i);
      } else if (arg == "--scaling") {
        scaling = true;
      } else if (arg == "--scaling-ops") {
        scaling = true;
        scaling_ops = ops(&i);
      } else if (arg == "--sim") {
        sim_audit = true;
      } else if (arg == "--sim-ops") {
        sim_audit = true;
        sim_ops = ops(&i);
      } else if (arg == "--sim-wall") {
        sim_wall = true;
      } else if (arg == "--sim-wall-ops") {
        sim_wall = true;
        sim_wall_ops = ops(&i);
      } else if (arg == "--break-event-skip") {
        // Mutation testing: lose the Nth change-event wake-up (its
        // occurrence is marked handled, so redundant wakes cannot heal it)
        // and watch the engine differential catch the stale signal.
        sim_audit = true;
        break_event_skip = count(&i);
      } else if (arg == "--break-restore") {
        // Mutation testing: the Nth checkpoint restore leaves one changed
        // storage unrestored and the auditor's restore digest check must
        // catch the binding that no longer equals the checkpoint.
        break_restore = count(&i);
      } else if (arg == "--dump") {
        dump = true;
      } else if (arg == "--help" || arg == "-h") {
        std::fputs(kUsage, stdout);
        return 0;
      } else {
        std::fprintf(stderr, "salsa_audit: unknown flag '%s'\n\n%s",
                     arg.c_str(), kUsage);
        return 2;
      }
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  if (sim_wall) return run_sim_wall(sim_wall_ops, fuzz.seed);

  std::vector<std::string> names;
  if (target == "all") {
    names = FuzzTarget::names();
  } else {
    names.push_back(target);
  }

  bool failed = false;
  for (const std::string& name : names) {
    FuzzTarget t(name);
    if (dump) {
      const Binding start = initial_allocation(
          t.prob(), InitialOptions{.seed = derive_seed(fuzz.seed, 0)});
      std::printf("%s\n", binding_json(start).c_str());
      continue;
    }

    FuzzParams p = fuzz;
    p.name = name;
    if (break_restore > 0) {
      // Like the other mutation counters: process-wide, advances only
      // while armed — arm relative to the current value.
      checkpoint_hooks::break_restore_after =
          checkpoint_hooks::restores + break_restore;
    }
    const FuzzResult res = run_move_fuzz(t.prob(), p);
    std::printf(
        "fuzz %-6s seed %llu: %ld txns (%ld commit / %ld rollback / %ld "
        "infeasible) in %ld proposals, %ld audited, %ld restores — %s\n",
        name.c_str(), static_cast<unsigned long long>(p.seed),
        res.transactions, res.commits, res.rollbacks, res.infeasible,
        res.proposals, res.audit.audited, res.audit.restores,
        res.ok ? "ok" : "VIOLATION");
    if (!res.ok) {
      failed = true;
      std::fprintf(stderr, "  %s\n", res.failure.c_str());
      if (!res.artifact_path.empty())
        std::fprintf(stderr, "  artifact: %s\n", res.artifact_path.c_str());
    }
    if (break_restore > 0 && checkpoint_hooks::break_restore_after != 0) {
      // The armed mutation never fired (fewer restores than N, or none
      // with a changed storage): the run proved nothing, which a CI step
      // expecting a VIOLATION must not mistake for the wall standing.
      failed = true;
      checkpoint_hooks::break_restore_after = 0;
      std::fprintf(stderr,
                   "  --break-restore %ld never fired (only %ld restores)\n",
                   break_restore, checkpoint_hooks::restores);
    }

    if (index_audit) {
      if (break_flat_erase > 0) {
        // The hook counter is process-wide and cumulative: arm relative to
        // its current value so earlier targets' erases don't consume it.
        flat_map_hooks::break_backward_shift_after =
            flat_map_hooks::erase_count + break_flat_erase;
      }
      const IndexAuditResult ir =
          run_index_audit(t.prob(), fuzz.seed, index_commits);
      std::printf(
          "index %-6s seed %llu: %ld commits cross-checked in %ld proposals "
          "— %s\n",
          name.c_str(), static_cast<unsigned long long>(fuzz.seed),
          ir.commits, ir.proposals, ir.ok ? "ok" : "VIOLATION");
      if (!ir.ok) {
        failed = true;
        std::fprintf(stderr, "  %s\n", ir.failure.c_str());
      }
      if (break_flat_erase > 0 &&
          flat_map_hooks::break_backward_shift_after != 0) {
        // The armed mutation never fired (fewer compacting erases than N):
        // the run proved nothing, which a CI step expecting a VIOLATION
        // must not mistake for the wall standing.
        failed = true;
        flat_map_hooks::break_backward_shift_after = 0;
        std::fprintf(stderr,
                     "  --break-flat-erase %ld never fired (only %ld "
                     "compacting erases)\n",
                     break_flat_erase, flat_map_hooks::erase_count);
      }
    }

    if (bitplane_audit) {
      if (break_bitplane_word > 0) {
        // Like --break-flat-erase: the word-update counter is process-wide
        // (and advances only while armed), so arm relative to its current
        // value in case an earlier target already consumed the mutation.
        bitplane_hooks::break_word_update_after =
            bitplane_hooks::word_update_count + break_bitplane_word;
      }
      const IndexAuditResult br =
          run_bitplane_audit(t.prob(), fuzz.seed, bitplane_commits);
      std::printf(
          "plane %-6s seed %llu: %ld commits differentially checked in %ld "
          "proposals — %s\n",
          name.c_str(), static_cast<unsigned long long>(fuzz.seed),
          br.commits, br.proposals, br.ok ? "ok" : "VIOLATION");
      if (!br.ok) {
        failed = true;
        std::fprintf(stderr, "  %s\n", br.failure.c_str());
      }
      if (break_bitplane_word > 0 &&
          bitplane_hooks::break_word_update_after != 0) {
        // The armed mutation never fired (fewer ranged word updates than
        // N): the run proved nothing, which a CI step expecting a VIOLATION
        // must not mistake for the wall standing.
        failed = true;
        bitplane_hooks::break_word_update_after = 0;
        std::fprintf(stderr,
                     "  --break-bitplane-word %ld never fired (only %ld "
                     "ranged word updates)\n",
                     break_bitplane_word, bitplane_hooks::word_update_count);
      }
    }

    if (segment_audit) {
      if (break_segment_window > 0) {
        // Like the other mutation counters: the windowed-transaction
        // counter is process-wide and cumulative, so arm relative to its
        // current value in case an earlier target already consumed the
        // mutation.
        seg_window_hooks::break_claim_window_after =
            seg_window_hooks::windowed_txns + break_segment_window;
      }
      FuzzParams sp = fuzz;
      sp.name = name + "-segment";
      const SegmentDiffResult sgr = run_segment_diff(t.prob(), sp);
      std::printf(
          "segm  %-6s seed %llu: %ld txns (%ld commits, %ld windowed) "
          "window-vs-whole — %s\n",
          name.c_str(), static_cast<unsigned long long>(sp.seed),
          sgr.transactions, sgr.commits, sgr.windowed,
          sgr.ok ? "ok" : "VIOLATION");
      if (!sgr.ok) {
        failed = true;
        std::fprintf(stderr, "  %s\n", sgr.failure.c_str());
      } else if (sgr.windowed == 0) {
        // A run where no transaction took a non-whole window proved
        // nothing about the windowed path — the audit must not pass on
        // vacuous coverage.
        failed = true;
        std::fprintf(stderr,
                     "  no transaction took a segment window — the windowed "
                     "path was never exercised\n");
      }
      if (break_segment_window > 0 &&
          seg_window_hooks::break_claim_window_after != 0) {
        // The armed mutation never fired (fewer windowed transactions than
        // N): the run proved nothing, which a CI step expecting a VIOLATION
        // must not mistake for the wall standing.
        failed = true;
        seg_window_hooks::break_claim_window_after = 0;
        std::fprintf(stderr,
                     "  --break-segment-window %ld never fired (only %ld "
                     "windowed transactions)\n",
                     break_segment_window, seg_window_hooks::windowed_txns);
      }
    }

    if (sim_audit) {
      if (break_event_skip > 0) {
        // Like the other mutation counters: process-wide, advances only
        // while armed — arm relative to the current value so earlier
        // targets' wakes don't consume it.
        event_sim_hooks::drop_wake_after =
            event_sim_hooks::wake_count + break_event_skip;
      }
      const SimAuditResult sr = run_sim_audit(t.prob(), fuzz.seed);
      std::printf(
          "sim   %-6s seed %llu: %ld engine-pair differentials — %s\n",
          name.c_str(), static_cast<unsigned long long>(fuzz.seed), sr.checks,
          sr.ok ? "ok" : "VIOLATION");
      if (!sr.ok) {
        failed = true;
        std::fprintf(stderr, "  %s\n", sr.failure.c_str());
      }
      if (break_event_skip > 0 && event_sim_hooks::drop_wake_after != 0) {
        // The armed mutation never fired (fewer wakes than N): the run
        // proved nothing, which a CI step expecting a VIOLATION must not
        // mistake for the wall standing.
        failed = true;
        event_sim_hooks::drop_wake_after = 0;
        std::fprintf(stderr,
                     "  --break-event-skip %ld never fired (only %ld "
                     "wake-ups)\n",
                     break_event_skip, event_sim_hooks::wake_count);
      }
    }

    if (sim_audit && !dump && name == names.front()) {
      // Once per run (independent of --target): the differential on one
      // generated cascade — the design sizes the event engine exists for —
      // and the memory-traffic subsystem end to end, where the event-
      // simulated datapath's sampled outputs become LSU programs checked
      // against the zero-latency magic memory.
      try {
        const GeneratedDesign d = generate_design(GenParams{
            .family = GenFamily::kFilterCascade,
            .target_ops = sim_ops,
            .seed = 2,
        });
        Binding gb = initial_allocation(
            *d.problem, InitialOptions{.seed = derive_seed(fuzz.seed, 5)});
        Netlist gnl(gb);
        const std::string gd =
            random_engine_diff(gnl, 2, derive_seed(fuzz.seed, 6));
        std::printf("sim   cascade/%d (%d ops): %s\n", sim_ops, d.num_ops,
                    gd.empty() ? "ok" : "VIOLATION");
        if (!gd.empty()) {
          failed = true;
          std::fprintf(stderr, "  %s\n", gd.c_str());
        }

        const GeneratedDesign md = generate_design(GenParams{
            .family = GenFamily::kMemoryTraffic,
            .target_ops = sim_ops < 500 ? sim_ops : 500,
            .seed = 3,
        });
        Binding mb = initial_allocation(
            *md.problem, InitialOptions{.seed = derive_seed(fuzz.seed, 9)});
        Netlist mnl(mb);
        const int iters = 6;
        Rng mrng(derive_seed(fuzz.seed, 10));
        std::vector<std::vector<int64_t>> min(
            static_cast<size_t>(iters) + 1,
            std::vector<int64_t>(md.graph->input_nodes().size(), 0));
        for (auto& vec : min)
          for (auto& v : vec)
            v = static_cast<int64_t>(mrng.next() % 201) - 100;
        const std::vector<int64_t> mstates(md.graph->state_nodes().size(), 0);
        const SimResult mres = simulate_events(mnl, min, mstates, iters);
        const auto programs = mem_ops_from_outputs(mres, 64);
        const std::string memdiff = diff_memory_sim(programs, 3);
        std::printf("sim   mem/%d (%d ops, %zu lsus): %s\n",
                    sim_ops < 500 ? sim_ops : 500, md.num_ops,
                    programs.size(), memdiff.empty() ? "ok" : "VIOLATION");
        if (!memdiff.empty()) {
          failed = true;
          std::fprintf(stderr, "  %s\n", memdiff.c_str());
        }
      } catch (const Error& e) {
        failed = true;
        std::fprintf(stderr, "sim   generated: engine check failed: %s\n",
                     e.what());
      }
    }

    if (scaling && !dump && name == names.front()) {
      // One generated mid-size design (independent of --target, run once):
      // the move fuzzer under the size-sampled auditor. Every check of the
      // battery still runs — just on every ops/64-th transaction — so this
      // is the audit wall's presence on the scaling corpus, not a weaker
      // wall. A run that did NOT sample is itself a failure: it means the
      // threshold regressed and audited large-design searches are back to
      // O(design) per move.
      const GeneratedDesign d = generate_design(GenParams{
          .family = GenFamily::kFilterCascade,
          .target_ops = scaling_ops,
          .seed = 1,
      });
      FuzzParams p = fuzz;
      p.name = "scaling-cascade" + std::to_string(scaling_ops);
      const FuzzResult res = run_move_fuzz(*d.problem, p);
      const bool expect_sampled =
          p.audit.every <= 1 && p.audit.sample_threshold_ops > 0 &&
          d.num_ops > p.audit.sample_threshold_ops;
      const bool sampled = res.audit.audited < res.audit.txns;
      const bool ok = res.ok && (sampled || !expect_sampled);
      std::printf(
          "scale cascade/%d (%d ops) seed %llu: %ld txns, %ld of %ld "
          "audited — %s\n",
          scaling_ops, d.num_ops, static_cast<unsigned long long>(p.seed),
          res.transactions, res.audit.audited, res.audit.txns,
          ok ? (sampled ? "ok (sampled)" : "ok") : "VIOLATION");
      if (!res.ok) {
        failed = true;
        std::fprintf(stderr, "  %s\n", res.failure.c_str());
        if (!res.artifact_path.empty())
          std::fprintf(stderr, "  artifact: %s\n", res.artifact_path.c_str());
      } else if (!ok) {
        failed = true;
        std::fprintf(stderr,
                     "  auditor audited every transaction of a %d-op design "
                     "— large-design sampling did not engage\n",
                     d.num_ops);
      }
    }

    if (determinism && !dump) {
      AllocatorOptions opts;
      opts.restarts = restarts;
      opts.improve.seed = fuzz.seed;
      opts.initial.seed = derive_seed(fuzz.seed, 99);
      DeterminismOptions dopts;
      dopts.thread_counts = threads;
      const DeterminismReport rep = audit_determinism(t.prob(), opts, dopts);
      std::printf("det  %-6s %d restarts over threads {", name.c_str(),
                  restarts);
      for (size_t k = 0; k < rep.thread_counts.size(); ++k)
        std::printf("%s%d", k ? "," : "", rep.thread_counts[k]);
      std::printf("}: %s\n", rep.ok ? "byte-identical" : "DIVERGED");
      if (!rep.ok) {
        failed = true;
        std::fprintf(stderr, "  %s\n", rep.detail.c_str());
      }
    }
  }
  return failed ? 1 : 0;
}
