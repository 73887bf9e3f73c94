// salsa_audit — the SalsaCheck command line: drives the move fuzzer and
// the segment/scaling cross-checks over the standard targets, printing one
// summary line per audit and exiting non-zero on any violation. Run with
// --help for the full flag catalogue (kUsage below is the single source of
// truth). A usage error prints "error: ..." and exits 2: an unknown flag,
// followed by the catalogue, so CI invocations cannot silently mis-type a
// mode, and a malformed flag value.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "analysis/digest.h"
#include "analysis/fuzz.h"
#include "core/initial.h"
#include "frontend/generate.h"
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
  --every N          audit exactly every Nth transaction (1 = all; default:
                     every one up to 2048 ops, every ops/64-th above)
  --commit-prob P    probability a feasible move is committed (default: 0.5)
  --weighted         draw moves by MoveConfig::salsa_default() weight
                     instead of uniformly
  --artifacts DIR    directory for failure artifacts (seed + binding JSON)
  --dump             print each target's start binding JSON and exit
  --help, -h         print this listing and exit

audit modes
  --segment          window-vs-whole differential: a segment-windowed engine
                     against a whole-storage-walk reference on the identical
                     move stream, cost integers and digests cross-checked
                     after every transaction
  --scaling          fuzz a generated mid-size cascade under the
                     size-sampled auditor (without --every, fails if
                     sampling never engages)
  --scaling-ops N    target operation count for --scaling (default: 5000)

mutation drills (expected output: a VIOLATION and exit 1; an armed hook
that never fires also exits 1)
  --inject-broken-undo N   break the Nth rollback's undo
  --break-flat-erase N     Nth compacting FlatMap erase of the move fuzzer
                           skips backward-shift compaction
  --break-bitplane-word N  Nth ranged busy-plane word update of the move
                           fuzzer left one bit short
  --break-segment-window N Nth windowed claim re-add drops its last segment
  --break-restore N        Nth checkpoint restore of the move fuzzer leaves a
                           changed storage unrestored (the fuzzer restores
                           every 2500 transactions)
)";

// One --break-* mutation drill: a process-wide trigger (0 = disarmed)
// and the counter it fires against. The counters are cumulative and
// advance only while armed, so each target arms relative to the current
// count and an earlier target cannot consume the mutation.
struct Drill {
  const char* flag;
  const char* counted;  ///< what `count` counts, for the never-fired line
  long* after;
  const long* count;
  long n = 0;  ///< 0 = not requested

  void arm() const {
    if (n > 0) *after = *count + n;
  }

  /// True, with a diagnostic, when the armed hook never fired: the run
  /// proved nothing, which a drill expecting a VIOLATION must not mistake
  /// for the wall standing. Disarms the hook.
  bool never_fired() const {
    if (n == 0 || *after == 0) return false;
    *after = 0;
    std::fprintf(stderr, "  %s %ld never fired (only %ld %s)\n", flag, n,
                 *count, counted);
    return true;
  }
};

}  // namespace

int main(int argc, char** argv) {
  std::string target = "all";
  FuzzParams fuzz;
  bool dump = false;
  bool segment_audit = false;
  bool scaling = false;
  int scaling_ops = 5000;
  // Mutation drills run inside the move fuzzer, except the segment-window
  // drill, which runs inside the --segment differential.
  Drill flat_erase{"--break-flat-erase", "compacting erases",
                   &flat_map_hooks::break_backward_shift_after,
                   &flat_map_hooks::erase_count};
  Drill bitplane_word{"--break-bitplane-word", "ranged word updates",
                      &bitplane_hooks::break_word_update_after,
                      &bitplane_hooks::word_update_count};
  Drill restore{"--break-restore", "restores",
                &checkpoint_hooks::break_restore_after,
                &checkpoint_hooks::restores};
  Drill segment_window{"--break-segment-window", "windowed transactions",
                       &seg_window_hooks::break_claim_window_after,
                       &seg_window_hooks::windowed_txns};
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
      } else if (arg == "--artifacts") {
        fuzz.artifact_dir = flag_value(argc, argv, &i);
      } else if (arg == "--inject-broken-undo") {
        // Mutation testing: break the Nth rollback's undo and watch the
        // digest check catch it (expected output: a VIOLATION).
        fuzz.inject_broken_undo_at = count(&i);
      } else if (arg == "--break-flat-erase") {
        // Mutation testing: skip the Nth erase's backward-shift compaction
        // and watch the auditor's rebuild cross-check (b), or FlatMap's own
        // missing-key CHECK, catch the orphaned keys.
        flat_erase.n = count(&i);
      } else if (arg == "--break-bitplane-word") {
        // Mutation testing: cripple the Nth ranged busy-plane word update
        // and watch the auditor's plane-vs-grid check (e) catch the stale
        // bit.
        bitplane_word.n = count(&i);
      } else if (arg == "--segment") {
        segment_audit = true;
      } else if (arg == "--break-segment-window") {
        // Mutation testing: the Nth windowed claim re-add drops its last
        // segment on the add side only, drifting occupancy/refcounts/key
        // cache from the binding — the window-vs-whole differential must
        // catch it.
        segment_audit = true;
        segment_window.n = count(&i);
      } else if (arg == "--scaling") {
        scaling = true;
      } else if (arg == "--scaling-ops") {
        scaling = true;
        scaling_ops = ops(&i);
      } else if (arg == "--break-restore") {
        // Mutation testing: the Nth checkpoint restore leaves one changed
        // storage unrestored and the auditor's restore digest check must
        // catch the binding that no longer equals the checkpoint.
        restore.n = count(&i);
      } else if (arg == "--dump") {
        dump = true;
      } else if (arg == "--help" || arg == "-h") {
        std::fputs(kUsage, stdout);
        return 0;
      } else {
        std::fprintf(stderr, "error: unknown flag '%s'\n\n%s", arg.c_str(),
                     kUsage);
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
    for (const Drill* d : {&flat_erase, &bitplane_word, &restore}) d->arm();
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
    for (const Drill* d : {&flat_erase, &bitplane_word, &restore})
      if (d->never_fired()) failed = true;

    if (segment_audit) {
      segment_window.arm();
      FuzzParams sp = fuzz;
      sp.name = name + "-segment";
      const SegmentDiffResult sgr = run_segment_diff(t.prob(), sp);
      std::printf(
          "segm  %-6s seed %llu: %ld txns (%ld commits, %ld windowed, %ld "
          "restores) window-vs-whole — %s\n",
          name.c_str(), static_cast<unsigned long long>(sp.seed),
          sgr.transactions, sgr.commits, sgr.windowed, sgr.restores,
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
      if (segment_window.never_fired()) failed = true;
    }

    if (scaling && !dump && name == names.front()) {
      // One generated mid-size design (independent of --target, run once):
      // the move fuzzer under the size-sampled auditor. Every check of the
      // battery still runs — just on every ops/64-th transaction — so this
      // is the audit wall's presence on the scaling corpus, not a weaker
      // wall. At the default rate, a run that did NOT sample is itself a
      // failure: it means the threshold regressed and audited large-design
      // searches are back to O(design) per move. --every sets the rate
      // exactly (1 audits every transaction of the cascade).
      const GeneratedDesign d = generate_design(GenParams{
          .family = GenFamily::kFilterCascade,
          .target_ops = scaling_ops,
          .seed = 1,
      });
      FuzzParams p = fuzz;
      p.name = "scaling-cascade" + std::to_string(scaling_ops);
      const FuzzResult res = run_move_fuzz(*d.problem, p);
      const bool expect_sampled =
          p.audit.every == 0 && d.num_ops > AuditorOptions::kExactUpToOps;
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
  }
  return failed ? 1 : 0;
}
