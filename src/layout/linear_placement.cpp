#include "layout/linear_placement.h"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "util/rng.h"

namespace salsa {

namespace {

// Module index of an endpoint/pin; -1 for ports and constants.
int module_of(const Binding& b, const Endpoint& e) {
  switch (e.kind) {
    case Endpoint::Kind::kFuOut:
      return e.id;
    case Endpoint::Kind::kRegOut:
      return b.prob().fus().size() + e.id;
    default:
      return -1;
  }
}

int module_of(const Binding& b, const Pin& p) {
  switch (p.kind) {
    case Pin::Kind::kFuIn0:
    case Pin::Kind::kFuIn1:
      return p.id;
    case Pin::Kind::kRegIn:
      return b.prob().fus().size() + p.id;
    default:
      return -1;
  }
}

}  // namespace

std::vector<std::vector<double>> module_affinity(const Binding& b) {
  const int n = b.prob().fus().size() + b.prob().num_regs();
  std::vector<std::vector<double>> w(
      static_cast<size_t>(n), std::vector<double>(static_cast<size_t>(n), 0));
  // Distinct connections only: a wire is laid out once however often used.
  // Each wire's (sink, source) pair key, then the two modules it joins.
  std::vector<std::tuple<uint64_t, int, int>> wires;
  for (const ConnUse& u : connection_uses(b)) {
    const int a = module_of(b, u.src);
    const int c = module_of(b, u.sink);
    if (a < 0 || c < 0 || a == c) continue;
    wires.emplace_back(pair_key(u.sink, u.src), a, c);
  }
  std::sort(wires.begin(), wires.end());
  wires.erase(std::unique(wires.begin(), wires.end()), wires.end());
  for (const auto& [key, a, c] : wires) {
    w[static_cast<size_t>(a)][static_cast<size_t>(c)] += 1;
    w[static_cast<size_t>(c)][static_cast<size_t>(a)] += 1;
  }
  return w;
}

double placement_wirelength(const Binding& b, const LinearPlacement& p) {
  const auto w = module_affinity(b);
  const int n = static_cast<int>(w.size());
  double total = 0;
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j)
      if (w[static_cast<size_t>(i)][static_cast<size_t>(j)] > 0)
        total += w[static_cast<size_t>(i)][static_cast<size_t>(j)] *
                 std::abs(p.slot_of[static_cast<size_t>(i)] -
                          p.slot_of[static_cast<size_t>(j)]);
  return total;
}

LinearPlacement place_linear(const Binding& b, uint64_t seed, int passes) {
  const auto w = module_affinity(b);
  const int n = static_cast<int>(w.size());
  LinearPlacement p;
  p.num_fus = b.prob().fus().size();
  p.num_regs = b.prob().num_regs();
  p.slot_of.resize(static_cast<size_t>(n));
  std::vector<int> order(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;
  Rng rng(seed);
  rng.shuffle(order);
  for (int s = 0; s < n; ++s) p.slot_of[static_cast<size_t>(order[static_cast<size_t>(s)])] = s;

  // Evaluate against the cached affinity matrix (placement_wirelength
  // recomputes it and is too slow for the inner loop).
  auto cost = [&] {
    double total = 0;
    for (int i = 0; i < n; ++i)
      for (int j = i + 1; j < n; ++j)
        if (w[static_cast<size_t>(i)][static_cast<size_t>(j)] > 0)
          total += w[static_cast<size_t>(i)][static_cast<size_t>(j)] *
                   std::abs(p.slot_of[static_cast<size_t>(i)] -
                            p.slot_of[static_cast<size_t>(j)]);
    return total;
  };
  double best = cost();
  for (int pass = 0; pass < passes; ++pass) {
    bool improved = false;
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        std::swap(p.slot_of[static_cast<size_t>(i)],
                  p.slot_of[static_cast<size_t>(j)]);
        const double c = cost();
        if (c < best - 1e-12) {
          best = c;
          improved = true;
        } else {
          std::swap(p.slot_of[static_cast<size_t>(i)],
                    p.slot_of[static_cast<size_t>(j)]);
        }
      }
    }
    if (!improved) break;
  }
  p.wirelength = best;
  return p;
}

}  // namespace salsa
