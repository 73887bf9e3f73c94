#include "baseline/traditional.h"

#include <algorithm>
#include <functional>
#include <optional>

#include "core/verify.h"
#include "util/rng.h"

namespace salsa {

namespace {

// Exact contiguous placement by backtracking: circular-arc colouring with
// the register budget as the colour count. Storages ordered by decreasing
// lifetime length (long arcs are the most constrained).
std::optional<std::vector<RegId>> backtrack_place(const AllocProblem& prob) {
  const Lifetimes& lt = prob.lifetimes();
  const int L = prob.sched().length();
  const int n = lt.num_storages();
  std::vector<int> order(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return lt.storage(a).len > lt.storage(b).len;
  });
  std::vector<RegId> assign(static_cast<size_t>(n), kInvalidId);
  std::vector<std::vector<int>> reg_sto(
      static_cast<size_t>(prob.num_regs()),
      std::vector<int>(static_cast<size_t>(L), -1));
  long budget = 2'000'000;  // node-visit cap; placement problems here are tiny

  auto fits = [&](int sid, RegId r) {
    const Storage& s = lt.storage(sid);
    for (int seg = 0; seg < s.len; ++seg)
      if (reg_sto[static_cast<size_t>(r)]
                 [static_cast<size_t>(s.step_at(seg, L))] != -1)
        return false;
    return true;
  };
  auto mark = [&](int sid, RegId r, int val) {
    const Storage& s = lt.storage(sid);
    for (int seg = 0; seg < s.len; ++seg)
      reg_sto[static_cast<size_t>(r)][static_cast<size_t>(s.step_at(seg, L))] =
          val;
  };

  std::function<bool(int)> place = [&](int k) -> bool {
    if (k == n) return true;
    if (--budget < 0) return false;
    const int sid = order[static_cast<size_t>(k)];
    for (RegId r = 0; r < prob.num_regs(); ++r) {
      if (!fits(sid, r)) continue;
      assign[static_cast<size_t>(sid)] = r;
      mark(sid, r, sid);
      if (place(k + 1)) return true;
      mark(sid, r, -1);
      assign[static_cast<size_t>(sid)] = kInvalidId;
    }
    return false;
  };
  if (!place(0)) return std::nullopt;
  return assign;
}

}  // namespace

Binding traditional_initial(const AllocProblem& prob, uint64_t seed,
                            int retries) {
  for (int attempt = 0; attempt < retries; ++attempt) {
    try {
      InitialOptions opts;
      opts.allow_splits = false;
      opts.seed = seed + static_cast<uint64_t>(attempt) * 31337;
      Binding b = initial_allocation(prob, opts);
      check_legal(b);
      SALSA_CHECK(b.is_traditional());
      return b;
    } catch (const Error&) {
      // greedy order failed; retry with another shuffle
    }
  }
  // Exact placement, then first-available FU binding via the constructive
  // allocator's FU pass (reuse initial_allocation with splits, then rewrite
  // the register side from the exact assignment).
  const auto assign = backtrack_place(prob);
  if (!assign)
    fail("traditional binding model: no contiguous register placement exists "
         "within the budget of " +
         std::to_string(prob.num_regs()) + " registers");
  InitialOptions opts;
  opts.seed = seed;
  Binding b = initial_allocation(prob, opts);
  const Lifetimes& lt = prob.lifetimes();
  for (int sid = 0; sid < lt.num_storages(); ++sid) {
    StorageBinding& sb = b.sto(sid);
    const RegId r = (*assign)[static_cast<size_t>(sid)];
    for (size_t seg = 0; seg < sb.cells.size(); ++seg)
      sb.cells[seg].assign(1, Cell{r, seg == 0 ? -1 : 0, kInvalidId});
    std::fill(sb.read_cell.begin(), sb.read_cell.end(), 0);
  }
  check_legal(b);
  SALSA_CHECK(b.is_traditional());
  return b;
}

AllocationResult allocate_traditional(const AllocProblem& prob,
                                      const TraditionalOptions& opts) {
  std::optional<ImproveResult> best;
  ImproveStats total;
  for (int r = 0; r < opts.restarts; ++r) {
    ImproveParams params = opts.improve;
    params.moves = MoveConfig::traditional();
    params.seed = opts.improve.seed + static_cast<uint64_t>(r) * 104729;
    Binding start = traditional_initial(prob, params.seed);
    ImproveResult res = improve(start, params);
    SALSA_CHECK_MSG(res.best.is_traditional(),
                    "restricted move set left the traditional model");
    total += res.stats;
    if (!best || res.cost.total < best->cost.total) best = std::move(res);
  }
  AllocationResult out{std::move(best->best), best->cost, {}, total};
  out.merging = merge_muxes(out.binding);
  return out;
}

}  // namespace salsa
