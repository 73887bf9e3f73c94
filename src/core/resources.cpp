#include "core/resources.h"

#include "core/lifetime.h"
#include "sched/fu_search.h"

namespace salsa {

FuPool FuPool::standard(const FuBudget& budget, bool alu_can_pass,
                        bool mul_can_pass) {
  FuPool pool;
  for (int i = 0; i < budget.alu; ++i)
    pool.add(FuInst{"ALU" + std::to_string(i), FuClass::kAlu, alu_can_pass});
  for (int i = 0; i < budget.mul; ++i)
    pool.add(FuInst{"MUL" + std::to_string(i), FuClass::kMul, mul_can_pass});
  return pool;
}

FuId FuPool::add(FuInst fu) {
  fus_.push_back(std::move(fu));
  return static_cast<FuId>(fus_.size() - 1);
}

std::vector<FuId> FuPool::of_class(FuClass c) const {
  std::vector<FuId> out;
  for (FuId f = 0; f < size(); ++f)
    if (fu(f).cls == c) out.push_back(f);
  return out;
}

std::vector<FuId> FuPool::pass_capable() const {
  std::vector<FuId> out;
  for (FuId f = 0; f < size(); ++f)
    if (fu(f).can_pass) out.push_back(f);
  return out;
}

AllocProblem::AllocProblem(const Schedule& sched, FuPool fus, int num_regs)
    : sched_(&sched),
      fus_(std::move(fus)),
      num_regs_(num_regs),
      lifetimes_(std::make_unique<Lifetimes>(sched)) {
  SALSA_CHECK_MSG(num_regs_ >= lifetimes_->min_registers(),
                  "register budget below the schedule's minimum demand (" +
                      std::to_string(lifetimes_->min_registers()) + ")");
  const FuBudget need = peak_fu_demand(sched);
  SALSA_CHECK_MSG(static_cast<int>(fus_.of_class(FuClass::kAlu).size()) >=
                      need.alu,
                  "FU pool has fewer ALUs than the schedule's peak demand");
  SALSA_CHECK_MSG(static_cast<int>(fus_.of_class(FuClass::kMul).size()) >=
                      need.mul,
                  "FU pool has fewer multipliers than the schedule's peak demand");
}

AllocProblem::~AllocProblem() = default;

}  // namespace salsa
