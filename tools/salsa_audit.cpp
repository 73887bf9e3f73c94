// salsa_audit — the SalsaCheck command line: drives the move fuzzer, the
// determinism audit and the index/bitplane/segment/scaling
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

#include "analysis/determinism.h"
#include "analysis/digest.h"
#include "analysis/fuzz.h"
#include "core/initial.h"
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

mutation tests (expected output: a VIOLATION; CI asserts non-zero exit)
  --inject-broken-undo N   break the Nth rollback's undo
  --break-flat-erase N     Nth FlatMap erase skips backward-shift compaction
  --break-bitplane-word N  Nth ranged busy-plane word update left broken
  --break-segment-window N Nth windowed claim re-add drops its last segment
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
