// Known-bad fixture: iterating hash-layout-ordered containers in a
// result-affecting module. CI asserts salsa_lint.py FIRES on every pattern
// here (same mutation-test culture as --break-flat-erase): a lint that
// stops seeing this file has lost the check. Never compiled — lint fodder
// only.
//
// salsa-lint: expect(no-unordered-iteration)
#include <unordered_map>
#include <unordered_set>

namespace salsa_fixture {

template <typename K, typename V>
struct FlatMap {  // stand-in for a hash table's slot-order visitors
  template <typename Fn>
  void drain(Fn&&) {}
  template <typename Fn>
  void for_each(Fn&&) const {}
};

// Range-for over an unordered map: the visit order is the hash table's
// slot layout — a function of insertion history and rehash timing, not of
// the keys — so any result folded in this order is nondeterministic.
inline int sum_values(const std::unordered_map<int, int>& weights) {
  int total = 0;
  for (const auto& [key, value] : weights) total += value * key;
  return total;
}

// Iterator loop over an unordered set: same defect, spelled with begin().
inline int first_element(const std::unordered_set<int>& pool) {
  auto it = pool.begin();
  return it != pool.end() ? *it : -1;
}

// A slot-order drain with no order-independence rationale.
inline int drain_everything(FlatMap<unsigned long long, int>& delta) {
  int last = 0;
  delta.drain([&](unsigned long long, int net) { last = net; });
  return last;  // "last entry wins" — pure layout-order dependence
}

}  // namespace salsa_fixture
