// Datapath resources available to an allocation: functional-unit instances
// and a register budget. An AllocProblem bundles a schedule with the
// resources it must be implemented on; every binding refers back to its
// problem.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sched/list_scheduler.h"
#include "sched/schedule.h"

namespace salsa {

using FuId = int32_t;
using RegId = int32_t;

/// One functional-unit instance.
struct FuInst {
  std::string name;
  FuClass cls = FuClass::kAlu;
  /// Whether this unit can implement the No-Op pass-through (the paper uses
  /// the adder units for pass-throughs; multipliers normally cannot).
  bool can_pass = false;
};

/// The set of FU instances available to an allocation.
class FuPool {
 public:
  FuPool() = default;
  /// Builds the standard pool: `budget.alu` pass-through-capable ALUs and
  /// `budget.mul` multipliers (pass-through per `mul_can_pass`).
  static FuPool standard(const FuBudget& budget, bool alu_can_pass = true,
                         bool mul_can_pass = false);

  FuId add(FuInst fu);
  int size() const { return static_cast<int>(fus_.size()); }
  const FuInst& fu(FuId f) const { return fus_[static_cast<size_t>(f)]; }
  const std::vector<FuInst>& fus() const { return fus_; }

  /// Ids of all units of a class.
  std::vector<FuId> of_class(FuClass c) const;
  /// Ids of all pass-through-capable units.
  std::vector<FuId> pass_capable() const;

 private:
  std::vector<FuInst> fus_;
};

class Lifetimes;  // core/lifetime.h

/// A complete allocation problem: a validated schedule plus the resources
/// the datapath may use. Owns the lifetime (segment) analysis.
class AllocProblem {
 public:
  AllocProblem(const Schedule& sched, FuPool fus, int num_regs);
  ~AllocProblem();
  AllocProblem(const AllocProblem&) = delete;
  AllocProblem& operator=(const AllocProblem&) = delete;

  const Schedule& sched() const { return *sched_; }
  const Cdfg& cdfg() const { return sched_->cdfg(); }
  const FuPool& fus() const { return fus_; }
  int num_regs() const { return num_regs_; }
  const Lifetimes& lifetimes() const { return *lifetimes_; }

 private:
  const Schedule* sched_;
  FuPool fus_;
  int num_regs_;
  std::unique_ptr<Lifetimes> lifetimes_;
};

}  // namespace salsa
