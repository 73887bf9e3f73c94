// FlatMap: the cache-friendly open-addressing table behind the search
// engine's connection index and transaction netting tables
// (core/search_engine.h).
//
// It is deliberately NOT a general-purpose hash map. The two shapes it
// serves — packed (sink, source) pair keys `uint64_t -> int` and packed
// sink keys `uint32_t -> int` — are refcount tables: every stored value is
// a nonzero signed count, entries are created by the first increment and
// die the moment their count returns to zero. That contract buys the whole
// layout:
//
//   * one flat power-of-two slot array of {key, count} pairs (8 bytes per
//     slot for uint32_t keys, 16 for uint64_t) — no nodes, no buckets, no
//     per-entry allocation;
//   * count == 0 *is* the empty marker, so probing needs no separate
//     control bytes and a lookup touches exactly one contiguous cache line
//     run;
//   * linear probing with backward-shift deletion — erasing compacts the
//     probe chain in place, so there are no tombstones and the load factor
//     never degrades over a long search no matter how many transient pairs
//     a trajectory churns through.
//
// Iteration-order contract: for_each() walks the slot array in index
// order. Slot placement depends on insertion/deletion history, so two
// tables with equal contents may iterate in different orders — therefore
// NOTHING in the engine derives search state, digests or trajectories from
// iteration order, and equality (operator==, the auditor's
// index_matches_rebuild cross-check) is content-based: equal sizes and
// key-by-key equal counts, regardless of layout. Binding digests
// (analysis/digest.h) never touch the index at all, which is why swapping
// std::unordered_map for FlatMap left every trajectory byte-identical
// (tests/test_golden.cpp, tests/test_reproduction.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/diagnostics.h"

namespace salsa {

/// Test-only fault injection for the backward-shift deletion path. When
/// `break_backward_shift_after` is N > 0, the Nth *compacting* erase — one
/// whose walk would displace at least one key; erases with an empty
/// successor are harmless without compaction and don't count — abandons the
/// walk, leaving a hole that orphans every displaced key behind it: exactly
/// the corruption a buggy deletion would cause, guaranteed to make some
/// stored key unreachable by probing. `erase_count` counts compacting
/// erases while the hook is armed (process-wide). The salsa_audit --index
/// rebuild cross-check (or FlatMap's own missing-key CHECK) must catch the
/// drift; the mutation tests in tests/test_flat_map.cpp and the
/// --break-flat-erase CI run prove it does. One-shot: the hook disarms
/// after firing. Only tables opted in via mark_mutation_target() are
/// eligible — the engine marks its audited index tables, keeping the
/// sabotage away from transient accumulators (the transaction-delta
/// netting table) whose orphaned entries would still drain correctly and
/// prove nothing. Never set outside single-threaded tests.
namespace flat_map_hooks {
inline long break_backward_shift_after = 0;
inline long erase_count = 0;
}  // namespace flat_map_hooks

/// Open-addressing refcount table (see file header). Key must be an
/// unsigned integral packed-id type (uint32_t or uint64_t in practice);
/// counts are signed ints, stored only while nonzero.
template <typename Key>
class FlatMap {
  static_assert(sizeof(Key) == 4 || sizeof(Key) == 8,
                "FlatMap serves the packed 32/64-bit id shapes");

 public:
  struct Slot {
    Key key;
    int count;  ///< 0 = empty slot; stored entries are always nonzero
  };

  FlatMap() = default;

  /// Makes this table eligible for the flat_map_hooks backward-shift
  /// mutation (see above). Test/audit plumbing only; no effect while the
  /// hook is unarmed.
  void mark_mutation_target() { mutation_target_ = true; }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Number of slot-array reallocations this table has performed (including
  /// the ones reserve() triggers up front). The engine pre-reserves its
  /// tables from problem dimensions, and tests pin that this counter stays
  /// put over a steady-state move loop — a growth here means a mis-sized
  /// reserve silently reintroduced rehash stalls into the hot path.
  size_t rehashes() const { return rehashes_; }

  /// Drops every entry but keeps the slot array (capacity) allocated.
  void clear() {
    for (Slot& s : slots_) s.count = 0;
    size_ = 0;
  }

  /// Pre-sizes the slot array for `n` entries without rehashing later.
  void reserve(size_t n) {
    size_t cap = kMinCapacity;
    while (cap * kLoadNum < n * kLoadDen) cap <<= 1;
    if (cap > slots_.size()) rehash(cap);
  }

  /// Hints the cache that `key`'s probe chain is about to be walked. The
  /// transaction netting knows every key it will probe before the first
  /// probe, so issuing the loads up front overlaps the misses — on large
  /// designs the slot array spans megabytes and each cold probe is
  /// otherwise a serialized memory stall.
  void prefetch(Key key) const {
    if (!slots_.empty())
      __builtin_prefetch(&slots_[ideal(key, slots_.size() - 1)]);
  }

  /// Count stored for `key`, or nullptr when absent.
  const int* find(Key key) const {
    if (slots_.empty()) return nullptr;
    const size_t mask = slots_.size() - 1;
    for (size_t i = ideal(key, mask);; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.count == 0) return nullptr;
      if (s.key == key) return &s.count;
    }
  }

  /// ++count, creating the entry at 1. Returns the new count.
  int increment(Key key) { return add(key, 1); }

  /// --count, erasing the entry when it reaches zero (backward-shift
  /// compaction, no tombstone). The key must be present with a positive
  /// count — a miss means the index and the binding have diverged, which is
  /// a hard error even in release builds (SALSA_CHECK, not DCHECK: dying
  /// loudly beats silently corrupting the cost).
  int decrement(Key key) {
    SALSA_CHECK_MSG(!slots_.empty(), "FlatMap::decrement on an empty table");
    const size_t mask = slots_.size() - 1;
    size_t i = ideal(key, mask);
    for (;; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      SALSA_CHECK_MSG(s.count != 0,
                      "FlatMap::decrement: key absent from the index");
      if (s.key == key) break;
    }
    SALSA_CHECK_MSG(slots_[i].count > 0,
                    "FlatMap::decrement on a non-positive count");
    const int now = --slots_[i].count;
    if (now == 0) erase_at(i, mask);
    return now;
  }

  /// Adds a signed delta to `key`'s count: creates the entry when absent,
  /// erases it when the sum returns to zero. The general form behind
  /// increment()/decrement(), and the accumulator the engine's transaction
  /// netting uses (deltas there run negative transiently). Returns the new
  /// count.
  int add(Key key, int delta) {
    if (delta == 0) return value_or_zero(key);
    grow_if_needed();
    const size_t mask = slots_.size() - 1;
    for (size_t i = ideal(key, mask);; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.count == 0) {
        s.key = key;
        s.count = delta;
        ++size_;
        return delta;
      }
      if (s.key == key) {
        s.count += delta;
        const int now = s.count;
        if (now == 0) erase_at(i, mask);
        return now;
      }
    }
  }

  /// Applies fn(key, count) to every entry, in slot order (see the
  /// iteration-order contract in the file header).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_)
      if (s.count != 0) fn(s.key, s.count);
  }

  /// for_each + clear in one pass over the slot array: applies fn(key,
  /// count) to every entry and empties the table, keeping capacity. The
  /// transaction-delta accumulator drains itself this way once per
  /// proposal, so the single walk matters.
  template <typename Fn>
  void drain(Fn&& fn) {
    if (size_ != 0) {
      size_t remaining = size_;
      for (Slot& s : slots_) {
        if (s.count == 0) continue;
        fn(s.key, s.count);
        s.count = 0;
        if (--remaining == 0) break;  // tail already empty, skip the scan
      }
      size_ = 0;
    }
  }

  /// Content equality: equal entry sets, independent of slot layout.
  /// Deliberately symmetric — each side's entries are probed in the other —
  /// although equal sizes would make one direction sufficient for two
  /// well-formed tables: a table corrupted by a botched deletion still
  /// *stores* its orphaned entries (slot scans see them) but can no longer
  /// *reach* them by probing, so only the probe into the corrupted side
  /// exposes the damage. The audit wall's rebuild cross-check
  /// (SearchEngine::index_matches_rebuild) relies on this direction.
  friend bool operator==(const FlatMap& a, const FlatMap& b) {
    if (a.size_ != b.size_) return false;
    for (const Slot& s : a.slots_) {
      if (s.count == 0) continue;
      const int* other = b.find(s.key);
      if (other == nullptr || *other != s.count) return false;
    }
    for (const Slot& s : b.slots_) {
      if (s.count == 0) continue;
      const int* other = a.find(s.key);
      if (other == nullptr || *other != s.count) return false;
    }
    return true;
  }

 private:
  static constexpr size_t kMinCapacity = 16;
  // Grow past 7/8 full: linear probing stays short and the table is still
  // dense enough that a whole probe run fits in one or two cache lines.
  static constexpr size_t kLoadNum = 7;
  static constexpr size_t kLoadDen = 8;

  /// Fibonacci hashing: one multiply by 2^64/phi, then take *high* bits
  /// (where the multiply has mixed the whole key) down to the mask range.
  /// Weaker than a full-avalanche finalizer but a fraction of the latency,
  /// and plenty for the packed id keys — the dense low id bits land in the
  /// multiplier's best-mixed output. Layout (hence iteration order) is all
  /// this decides; nothing observable depends on it (see file header).
  static size_t ideal(Key key, size_t mask) {
    if constexpr (sizeof(Key) == 8) {
      return static_cast<size_t>((key * 0x9e3779b97f4a7c15ull) >> 32) & mask;
    } else {
      return static_cast<size_t>((key * 0x9e3779b9u) >> 16) & mask;
    }
  }

  int value_or_zero(Key key) const {
    const int* p = find(key);
    return p ? *p : 0;
  }

  void grow_if_needed() {
    if (slots_.empty()) {
      rehash(kMinCapacity);
      return;
    }
    if ((size_ + 1) * kLoadDen > slots_.size() * kLoadNum)
      rehash(slots_.size() * 2);
  }

  void rehash(size_t cap) {
    ++rehashes_;
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(cap, Slot{Key{}, 0});
    const size_t mask = cap - 1;
    for (const Slot& s : old) {
      if (s.count == 0) continue;
      size_t i = ideal(s.key, mask);
      while (slots_[i].count != 0) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  /// Backward-shift deletion: slot `i` was just emptied; walk the probe
  /// chain forward until a gap. Every entry whose probe path crosses the
  /// hole is shifted back into it (an entry already cyclically at-or-past
  /// its ideal slot without passing the hole stays put); the hole follows
  /// the shifted entry. Terminates at the first empty slot — one always
  /// exists because the load factor is capped below 1. Leaves no
  /// tombstone, so probe chains never grow stale.
  void erase_at(size_t i, size_t mask) {
    --size_;
    bool shifted = false;
    for (size_t j = (i + 1) & mask;; j = (j + 1) & mask) {
      const Slot& next = slots_[j];
      if (next.count == 0) {
        slots_[i].count = 0;
        return;
      }
      // Shift iff the hole lies on next's probe path: cyclic distance from
      // its ideal slot to j is at least the distance from the hole to j.
      if (((j - ideal(next.key, mask)) & mask) >= ((j - i) & mask)) {
        if (!shifted && mutation_target_ &&
            flat_map_hooks::break_backward_shift_after > 0 &&
            ++flat_map_hooks::erase_count ==
                flat_map_hooks::break_backward_shift_after) {
          // Test-only mutation (see flat_map_hooks): this erase would have
          // compacted displaced keys over the hole; leave the hole in
          // place instead, orphaning them. One-shot.
          flat_map_hooks::break_backward_shift_after = 0;
          slots_[i].count = 0;
          return;
        }
        shifted = true;
        slots_[i] = next;
        i = j;
      }
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  size_t rehashes_ = 0;           ///< slot-array reallocations (see rehashes())
  bool mutation_target_ = false;  ///< eligible for flat_map_hooks sabotage
};

}  // namespace salsa
