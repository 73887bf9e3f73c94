#include "analysis/fuzz.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "analysis/digest.h"
#include "bench_suite/dct.h"
#include "bench_suite/ewf.h"
#include "bench_suite/random_cdfg.h"
#include "core/initial.h"
#include "core/moves.h"
#include "core/search_engine.h"
#include "util/rng.h"

namespace salsa {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

// Writes the failure artifact; best effort (an unwritable directory must
// not mask the underlying violation).
std::string write_artifact(const FuzzParams& params, const FuzzResult& res,
                           const Binding& binding) {
  std::error_code ec;
  std::filesystem::create_directories(params.artifact_dir, ec);
  const std::string path = params.artifact_dir + "/" + params.name + "-seed" +
                           std::to_string(params.seed) + ".json";
  std::ofstream out(path);
  if (!out) return {};
  out << "{\n  \"target\": \"" << params.name << "\",\n  \"seed\": "
      << params.seed << ",\n  \"transactions_done\": " << res.transactions
      << ",\n  \"proposals\": " << res.proposals << ",\n  \"error\": \""
      << json_escape(res.failure) << "\",\n  \"binding\": "
      << binding_json(binding) << "}\n";
  return out ? path : std::string{};
}

}  // namespace

FuzzResult run_move_fuzz(const AllocProblem& prob, const FuzzParams& params) {
  FuzzResult res;
  InvariantAuditor auditor(params.audit);
  // Placement and move streams are derived from the one user seed.
  Binding start = initial_allocation(
      prob, InitialOptions{.seed = derive_seed(params.seed, 0)});
  // The engine's checkpoint holds the best binding seen (initially start).
  SearchEngine eng(start);
  eng.set_observer(&auditor);
  Rng rng(derive_seed(params.seed, 1));
  const MoveConfig moves = MoveConfig::salsa_default();

  double best_cost = eng.total();
  const long cap = params.transactions * params.proposal_cap_factor;
  try {
    while (res.transactions < params.transactions && res.proposals < cap) {
      ++res.proposals;
      const MoveKind kind =
          params.uniform_kinds
              ? static_cast<MoveKind>(rng.uniform(kNumMoveKinds))
              : moves.pick(rng);
      const auto delta = eng.propose(kind, rng);
      if (!delta) {
        ++res.infeasible;
        continue;
      }
      ++res.transactions;
      if (rng.chance(params.commit_prob)) {
        eng.commit();
        ++res.commits;
        if (eng.total() < best_cost) {
          eng.checkpoint();
          best_cost = eng.total();
        }
      } else {
        if (params.inject_broken_undo_at > 0 &&
            res.rollbacks + 1 == params.inject_broken_undo_at)
          eng.inject_broken_undo_for_test();
        eng.rollback();
        ++res.rollbacks;
      }
      if (params.reset_every > 0 &&
          res.transactions % params.reset_every == 0) {
        eng.restore_checkpoint();
      }
    }
  } catch (const Error& e) {
    res.ok = false;
    res.failure = e.what();
    res.audit = auditor.stats();
    if (!params.artifact_dir.empty())
      res.artifact_path = write_artifact(params, res, eng.binding());
    return res;
  }
  res.audit = auditor.stats();
  if (res.transactions < params.transactions) {
    res.ok = false;
    std::ostringstream os;
    os << "fuzzer starved: only " << res.transactions << " of "
       << params.transactions << " feasible transactions in " << res.proposals
       << " proposals";
    res.failure = os.str();
  }
  return res;
}

// --- segment-window differential --------------------------------------------

SegmentDiffResult run_segment_diff(const AllocProblem& prob,
                                   const FuzzParams& params) {
  SegmentDiffResult res;
  Binding start = initial_allocation(
      prob, InitialOptions{.seed = derive_seed(params.seed, 0)});
  SearchEngine win(start);
  SearchEngine whole(start);
  whole.set_segment_windows(false);  // reference: whole-storage walks
  Rng rng(derive_seed(params.seed, 1));
  const MoveConfig moves = MoveConfig::salsa_default();
  const long cap = params.transactions * params.proposal_cap_factor;
  long proposals = 0;
  double best_cost = win.total();
  auto diverged = [&res](const std::string& what) {
    res.ok = false;
    res.divergence = res.transactions - 1;
    res.failure = what + " at transaction " + std::to_string(res.divergence);
  };
  try {
    while (res.transactions < params.transactions && proposals < cap &&
           res.ok) {
      ++proposals;
      const MoveKind kind =
          params.uniform_kinds
              ? static_cast<MoveKind>(rng.uniform(kNumMoveKinds))
              : moves.pick(rng);
      // Both engines draw from identical RNG clones; identical engine
      // states imply identical draws, so the shared stream advances by the
      // windowed engine's copy. Any enumeration drift between the engines
      // shows up as a delta/digest divergence below, never as silent
      // stream skew.
      const bool armed = seg_window_hooks::break_claim_window_after > 0;
      Rng rw = rng;
      Rng rf = rng;
      const auto dw = win.propose(kind, rw);
      const auto df = whole.propose(kind, rf);
      rng = rw;
      // --break-segment-window fires inside the windowed engine's claim
      // staging; force that transaction to commit so the drift it plants
      // must materialize in the cross-checked state (a rollback would
      // restore both the binding and the spliced key cache, proving
      // nothing).
      const bool fired =
          armed && seg_window_hooks::break_claim_window_after == 0;
      if (dw.has_value() != df.has_value()) {
        ++res.transactions;
        diverged(std::string("feasibility diverged (windowed: ") +
                 (dw ? "feasible" : "infeasible") + ", whole: " +
                 (df ? "feasible" : "infeasible") + ")");
        break;
      }
      if (!dw) continue;
      ++res.transactions;
      if (*dw != *df) {
        diverged("proposal delta diverged (windowed " + std::to_string(*dw) +
                 " vs whole " + std::to_string(*df) + ")");
        break;
      }
      if (rng.chance(params.commit_prob) || fired) {
        win.commit();
        whole.commit();
        ++res.commits;
        const CostBreakdown& cw = win.cost();
        const CostBreakdown& cf = whole.cost();
        if (cw.fus_used != cf.fus_used || cw.regs_used != cf.regs_used ||
            cw.connections != cf.connections || cw.muxes != cf.muxes) {
          std::ostringstream os;
          os << "cost integers diverged (windowed fus/regs/conns/muxes "
             << cw.fus_used << "/" << cw.regs_used << "/" << cw.connections
             << "/" << cw.muxes << " vs whole " << cf.fus_used << "/"
             << cf.regs_used << "/" << cf.connections << "/" << cf.muxes
             << ")";
          diverged(os.str());
          break;
        }
        if (digest_binding(win.binding()) != digest_binding(whole.binding())) {
          diverged("binding digests diverged after commit");
          break;
        }
        std::string why;
        if (!win.index_matches_rebuild(&why)) {
          diverged("windowed index diverged from rebuild: " + why);
          break;
        }
        if (win.total() < best_cost) {
          win.checkpoint();
          whole.checkpoint();
          best_cost = win.total();
        }
      } else {
        win.rollback();
        whole.rollback();
      }
      if (params.reset_every > 0 &&
          res.transactions % params.reset_every == 0) {
        // A restore is a transaction over the dirty units, so it runs the
        // windowed splices too: a dirty op's read generators and the [0, 0]
        // write window of the storage it produces.
        win.restore_checkpoint();
        whole.restore_checkpoint();
        ++res.restores;
        if (win.total() != whole.total()) {
          diverged("totals diverged after restore (windowed " +
                   std::to_string(win.total()) + " vs whole " +
                   std::to_string(whole.total()) + ")");
          break;
        }
        if (digest_binding(win.binding()) != digest_binding(whole.binding())) {
          diverged("binding digests diverged after restore");
          break;
        }
        std::string why;
        if (!win.index_matches_rebuild(&why)) {
          diverged("windowed index diverged from rebuild after restore: " +
                   why);
          break;
        }
        if (!whole.index_matches_rebuild(&why)) {
          diverged("whole index diverged from rebuild after restore: " + why);
          break;
        }
      }
    }
  } catch (const Error& e) {
    res.ok = false;
    if (res.divergence < 0) res.divergence = res.transactions;
    res.failure = std::string("engine check failed: ") + e.what();
  }
  res.windowed = win.windowed_readds();
  if (res.ok && res.transactions < params.transactions) {
    std::ostringstream os;
    os << "differential starved: only " << res.transactions << " of "
       << params.transactions << " feasible transactions in " << proposals
       << " proposals";
    res.ok = false;
    res.failure = os.str();
  }
  return res;
}

// --- standard targets -------------------------------------------------------

FuzzTarget::FuzzTarget(const std::string& name) : name_(name) {
  constexpr SpareRegisters kSpare{2};  // loosens the budget for the moves
  if (name == "ewf") {
    bundle_ = make_problem(make_ewf(), HwSpec{}, 17, kSpare);
  } else if (name == "dct") {
    bundle_ = make_problem(make_dct(), HwSpec{}, 9, kSpare);
  } else if (name == "random") {
    RandomCdfgParams p;
    p.num_ops = 24;
    p.seed = 5;
    bundle_ = make_problem(make_random_cdfg(p), HwSpec{}, 12, kSpare);
  } else {
    fail("unknown fuzz target '" + name + "' (expected ewf, dct or random)");
  }
}

const std::vector<std::string>& FuzzTarget::names() {
  static const std::vector<std::string> kNames{"ewf", "dct", "random"};
  return kNames;
}

}  // namespace salsa
