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
//       with the scalar identity grids after every commit
//       (Occupancy::planes_match_grids) — the end-to-end reference the
//       word-masked kernels are held to;
//   (f) a checkpoint restore (SearchEngine::restore_checkpoint) returns the
//       binding to the checkpoint — equal digests after every restore —
//       and, on the restores the sampling rate selects, leaves every
//       derived structure equal to a rebuild (check (b)).
//
// A violation throws salsa::Error with the failing check and transaction
// number. run_search (core/improver.h) installs one auditor per search
// under CheckMode::kAudit and kAuditFull: allocate() takes the mode from
// AllocatorOptions::checked, the other searches from SALSA_CHECK. The
// observer hooks themselves are compiled in always and cost one null check
// when no auditor is installed.
#pragma once

#include <cstdint>
#include <string>

#include "core/search_engine.h"

namespace salsa {

struct AuditorOptions {
  /// Designs up to this many operations are audited on every transaction
  /// at the size-based rate.
  static constexpr long kExactUpToOps = 2048;

  /// Audit rate. 0 (the default, CheckMode::kAudit) is size-based: every
  /// transaction on designs up to kExactUpToOps operations, every
  /// ops/64-th above, so the O(design) battery amortizes to O(64) per
  /// transaction and audited searches stay usable on the generated 10k+-op
  /// scaling corpus. N >= 1 audits exactly every Nth transaction on any
  /// design (1 = every transaction, CheckMode::kAuditFull). The rate counts
  /// transactions, never draws from an RNG, so an audited run's trajectory
  /// is byte-identical to an unaudited one. Corruption landing between
  /// audited transactions is still caught: drift in the persistent
  /// structures (index refcounts, occupancy, cost counters) survives until
  /// the next audited commit's rebuild cross-check fires on it (the
  /// mutation test in tests/test_audit_scaling.cpp proves this).
  long every = 0;
};

struct AuditorStats {
  long txns = 0;       ///< transactions observed (feasible or not)
  long audited = 0;    ///< transactions fully audited
  long commits = 0;
  long rollbacks = 0;
  long aborts = 0;     ///< infeasible proposals observed
  long restores = 0;   ///< checkpoint restores observed (all digest-checked)
};

class InvariantAuditor final : public SearchObserver {
 public:
  explicit InvariantAuditor(AuditorOptions opts = {}) : opts_(opts) {}

  const AuditorStats& stats() const { return stats_; }

  // SearchObserver:
  void on_txn_begin(const SearchEngine& eng) override;
  void on_txn_abort(const SearchEngine& eng) override;
  void on_commit(const SearchEngine& eng, double delta) override;
  void on_rollback(const SearchEngine& eng) override;
  void on_restore(const SearchEngine& eng) override;

 private:
  [[noreturn]] void violation(const std::string& what) const;

  /// Resolves `effective_every_` on first contact with an engine: an
  /// explicit opts_.every >= 1 wins; otherwise designs above kExactUpToOps
  /// audit every ops/64-th transaction (see AuditorOptions). Idempotent
  /// after the first call.
  void resolve_every(const SearchEngine& eng);

  AuditorOptions opts_;
  AuditorStats stats_;
  long effective_every_ = 0;     ///< resolved audit period; 0 = not yet
  bool sampling_ = false;        ///< size-based sampling engaged
  bool auditing_ = false;        ///< current transaction is audited
  uint64_t digest_before_ = 0;   ///< binding digest at txn begin
  CostBreakdown cost_before_{};  ///< incremental breakdown at txn begin
};

}  // namespace salsa
