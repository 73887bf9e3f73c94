// SalsaCheck: a search-time invariant auditor over SearchEngine move
// transactions. Installed as the engine's SearchObserver (see
// core/search_engine.h), it proves the incremental machinery honest on
// every audited transaction:
//
//   (a) the working binding satisfies every rule of the extended binding
//       model (salsa::verify());
//   (b) the refcounted connection index, the FU/register use refcounts, the
//       occupancy grid and the cost breakdown all equal a from-scratch
//       rebuild (SearchEngine::index_matches_rebuild);
//   (c) the cost recomputed from scratch matches the incrementally
//       maintained total, and the committed delta equals the exact
//       difference of totals — no tolerance, the engine recomputes the
//       weighted sum from integer counts so equality must be bitwise;
//   (d) an FNV-1a digest of the canonical binding serialization taken
//       before the move equals the digest after its undo (rollback) or
//       after an infeasible proposal (abort), proving byte-identical
//       restoration;
//   (e) the packed occupancy bitplanes (util/bitplane.h) agree bit-for-bit
//       with the scalar identity grids after every commit — the
//       packed-vs-scalar differential check of the word-masked kernels.
//
// A violation throws salsa::Error with the failing check and transaction
// number. Checked mode is enabled through AllocatorOptions::checked (or
// SALSA_CHECK=1 in the environment — see core/allocator.h); the observer
// hooks themselves are compiled in always and cost one null check when off.
#pragma once

#include <cstdint>
#include <string>

#include "core/search_engine.h"

namespace salsa {

struct AuditorOptions {
  /// Audit every Nth transaction in full (1 = every transaction). The
  /// digest/verify/rebuild checks are O(design) each, so a full audit of
  /// every transaction turns an O(move footprint) search step into an
  /// O(design) one; raise this to spot-check long searches.
  long every = 1;
  /// Large-design auto-sampling: when `every` is 1 (audit everything) and
  /// the design has more than this many operations, the auditor instead
  /// audits every ops/64-th transaction — the O(design) battery amortizes
  /// to O(64) per transaction, keeping audited searches usable on the
  /// generated 10k+-op scaling corpus. An explicit `every` > 1 wins over
  /// the auto rate; 0 disables sampling entirely (exact mode — what
  /// SALSA_CHECK=full / CheckMode::kAuditFull selects). Sampling is by
  /// deterministic transaction index, never by RNG, so an audited run's
  /// trajectory is byte-identical to an unaudited one. Corruption landing
  /// between audited transactions is still caught: drift in the persistent
  /// structures (index refcounts, occupancy, cost counters) survives until
  /// the next audited commit's rebuild cross-check fires on it (the
  /// mutation test in tests/test_audit_scaling.cpp proves this).
  long sample_threshold_ops = 2048;
  bool verify_binding = true;  ///< check (a)
  bool check_index = true;     ///< check (b)
  bool check_cost = true;      ///< check (c)
  bool check_digest = true;    ///< check (d)
  /// Check (e): after a commit, the packed busy bitplanes must agree
  /// bit-for-bit with the scalar identity grids
  /// (Occupancy::planes_match_grids) — the packed-vs-scalar differential
  /// that pins the word-masked kernels to the reference representation.
  /// Cheaper than the O(design) battery (word compares, no rebuild) but
  /// still O(resources x steps), so it follows the same sampling: every
  /// commit below the size threshold, audited commits only once
  /// large-design sampling engages.
  bool check_bitplanes = true;
};

struct AuditorStats {
  long txns = 0;       ///< transactions observed (feasible or not)
  long audited = 0;    ///< transactions fully audited
  long commits = 0;
  long rollbacks = 0;
  long aborts = 0;     ///< infeasible proposals observed
};

class InvariantAuditor final : public SearchObserver {
 public:
  explicit InvariantAuditor(AuditorOptions opts = {}) : opts_(opts) {}

  const AuditorStats& stats() const { return stats_; }

  /// Effective audit period after the first transaction resolved the
  /// large-design sampling rate (0 until then); > 1 means sampling or an
  /// explicit `every` throttle is active.
  long effective_every() const { return effective_every_; }

  /// True once large-design auto-sampling engaged (never for an explicit
  /// `every` throttle or a design at/below the threshold).
  bool sampling() const { return sampling_; }

  // SearchObserver:
  void on_txn_begin(const SearchEngine& eng) override;
  void on_txn_abort(const SearchEngine& eng) override;
  void on_commit(const SearchEngine& eng, double delta) override;
  void on_rollback(const SearchEngine& eng) override;

 private:
  [[noreturn]] void violation(const std::string& what) const;

  /// Resolves `effective_every_` on first contact with an engine: an
  /// explicit opts_.every > 1 wins; otherwise designs above
  /// sample_threshold_ops audit every ops/64-th transaction (see
  /// AuditorOptions). Idempotent after the first call.
  void resolve_every(const SearchEngine& eng);

  AuditorOptions opts_;
  AuditorStats stats_;
  long effective_every_ = 0;     ///< resolved audit period; 0 = not yet
  bool sampling_ = false;        ///< large-design auto-sampling engaged
  bool auditing_ = false;        ///< current transaction is audited
  uint64_t digest_before_ = 0;   ///< binding digest at txn begin
  CostBreakdown cost_before_{};  ///< incremental breakdown at txn begin
};

}  // namespace salsa
