// BitPlane: fixed-stride uint64_t bitplane matrix — the word-parallel
// backing behind occupancy legality checks (core/binding.h) and cyclic
// lifetime masks (core/lifetime.h). Modeled on the value/defined bitplane idiom of
// gatery's reference simulator DataState (see SNIPPETS.md): one flat
// uint64_t array, rows at a fixed word stride, bit-level accessors plus
// word-level combine/query kernels.
//
// Layout: rows() rows of bits() bits each, padded to stride() = ceil(bits /
// 64) words; row r occupies words [r * stride, (r + 1) * stride). Padding
// bits past bits() are kept zero by every mutator, so word-level queries
// (any_in_range, popcount_row, operator==) never see garbage.
//
// Cyclic ranges: a schedule-cyclic interval [start, start + len) mod bits()
// decomposes into at most two linear spans — [start, bits()) and [0, start +
// len - bits()) — each of which is a first-word/last-word mask pair. This is
// the two-mask wrap decomposition the lifetime masks are built from
// (set_range_wrap); in-schedule windows (FU occupancy claims) never wrap and
// use the single-span forms directly.
//
// One implementation per kernel. Its references are the per-bit boolean
// model in tests/test_bitplane.cpp, which checks every kernel over shapes
// that cross word boundaries, and the invariant auditor's check (e), which
// compares the engine's planes with the scalar identity grids after every
// commit (Occupancy::planes_match_grids).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "util/diagnostics.h"

// Raw SIMD intrinsics, if a kernel ever needs them, live only here:
// everything else goes through the word kernels below
// (scripts/salsa_lint.py enforces the confinement).

namespace salsa {

/// Test-only fault injection for the ranged word-update path
/// (BitPlane::set_range / clear_range). When `break_word_update_after` is
/// N > 0, the Nth ranged update on a plane opted in via
/// mark_mutation_target() abandons the word-masked update and runs a
/// per-bit loop with an off-by-one instead — it stops one bit short, so a
/// set_range leaves the window's last bit clear and a clear_range leaves it
/// stale. Exactly the corruption a hand-rolled mask computation with a
/// fencepost bug would cause. `word_update_count` counts eligible updates
/// while the hook is armed (process-wide). The auditor's plane-vs-grid
/// check (e) (Occupancy::planes_match_grids) must catch the drift; the
/// salsa_audit --break-bitplane-word drill proves it does. One-shot:
/// the hook disarms after firing. Only planes opted in are eligible — the
/// engine marks its occupancy planes, keeping the sabotage away from
/// scratch masks whose corruption nothing cross-checks. Never set outside
/// single-threaded tests.
namespace bitplane_hooks {
inline long break_word_update_after = 0;
inline long word_update_count = 0;
}  // namespace bitplane_hooks

class BitPlane {
 public:
  BitPlane() = default;

  /// Shapes the plane to `rows` x `bits` and zeroes every word. Reuses the
  /// existing allocation when the shape already matches.
  void resize(int rows, int bits) {
    SALSA_DCHECK(rows >= 0 && bits >= 0);
    rows_ = rows;
    bits_ = bits;
    stride_ = (bits + 63) >> 6;
    w_.assign(static_cast<size_t>(rows) * static_cast<size_t>(stride_), 0);
  }

  /// Zeroes every word, keeping the shape.
  void zero() { std::fill(w_.begin(), w_.end(), 0); }

  int rows() const { return rows_; }
  int bits() const { return bits_; }
  int stride() const { return stride_; }

  uint64_t* row(int r) {
    return w_.data() + static_cast<size_t>(r) * static_cast<size_t>(stride_);
  }
  const uint64_t* row(int r) const {
    return w_.data() + static_cast<size_t>(r) * static_cast<size_t>(stride_);
  }
  bool test(int r, int b) const {
    return (row(r)[b >> 6] >> (b & 63)) & 1ull;
  }
  void set(int r, int b) { row(r)[b >> 6] |= 1ull << (b & 63); }
  void clear(int r, int b) { row(r)[b >> 6] &= ~(1ull << (b & 63)); }

  /// Makes this plane eligible for the bitplane_hooks ranged-update
  /// mutation (see above). Test/audit plumbing only.
  void mark_mutation_target() { mutation_target_ = true; }

  /// Sets the linear bit range [start, start + len) of row `r` with
  /// first/last-word masks. The range must not wrap (start + len <= bits).
  void set_range(int r, int start, int len) {
    if (len <= 0) return;
    SALSA_DCHECK(start >= 0 && start + len <= bits_);
    if (fire_mutation()) {
      // Armed fault injection: per-bit loop, one bit short (see
      // bitplane_hooks). The plane now disagrees with the scalar grids.
      for (int b = start; b + 1 < start + len; ++b) set(r, b);
      return;
    }
    uint64_t* w = row(r);
    const int we = start + len - 1;
    for (int i = start >> 6; i <= we >> 6; ++i)
      w[i] |= word_mask(i, start, start + len);
  }

  /// Clears the linear bit range [start, start + len) of row `r`.
  void clear_range(int r, int start, int len) {
    if (len <= 0) return;
    SALSA_DCHECK(start >= 0 && start + len <= bits_);
    if (fire_mutation()) {
      for (int b = start; b + 1 < start + len; ++b) clear(r, b);
      return;
    }
    uint64_t* w = row(r);
    const int we = start + len - 1;
    for (int i = start >> 6; i <= we >> 6; ++i)
      w[i] &= ~word_mask(i, start, start + len);
  }

  /// Sets the cyclic range [start, start + len) mod bits() of row `r` via
  /// the two-span wrap decomposition. len may equal bits() (full period).
  void set_range_wrap(int r, int start, int len) {
    SALSA_DCHECK(len >= 0 && len <= bits_ && start >= 0 && start < bits_);
    if (start + len <= bits_) {
      set_range(r, start, len);
    } else {
      set_range(r, start, bits_ - start);
      set_range(r, 0, start + len - bits_);
    }
  }

  int popcount_row(int r) const {
    const uint64_t* w = row(r);
    int n = 0;
    for (int i = 0; i < stride_; ++i) n += std::popcount(w[i]);
    return n;
  }

  /// True iff any bit of the linear range [start, start + len) of row `r`
  /// is set — the windowed legality probe of the FU occupancy plane.
  bool any_in_range(int r, int start, int len) const {
    if (len <= 0) return false;
    SALSA_DCHECK(start >= 0 && start + len <= bits_);
    const uint64_t* w = row(r);
    const int we = start + len - 1;
    for (int i = start >> 6; i <= we >> 6; ++i)
      if (w[i] & word_mask(i, start, start + len)) return true;
    return false;
  }

  /// Word-for-word content equality (same shape and bits).
  friend bool operator==(const BitPlane& a, const BitPlane& b) {
    return a.rows_ == b.rows_ && a.bits_ == b.bits_ && a.w_ == b.w_;
  }

 private:
  /// Bits of word `i` covered by the linear range [start, end).
  static uint64_t word_mask(int i, int start, int end) {
    const int lo = start > (i << 6) ? start - (i << 6) : 0;
    const int hi = end < ((i + 1) << 6) ? end - (i << 6) : 64;
    // hi > lo by construction (the caller iterates covered words only);
    // hi - lo == 64 must not shift by 64.
    return (~0ull >> (64 - (hi - lo))) << lo;
  }

  bool fire_mutation() {
    if (mutation_target_ && bitplane_hooks::break_word_update_after > 0 &&
        ++bitplane_hooks::word_update_count ==
            bitplane_hooks::break_word_update_after) {
      bitplane_hooks::break_word_update_after = 0;
      return true;
    }
    return false;
  }

  int rows_ = 0;
  int bits_ = 0;
  int stride_ = 0;
  std::vector<uint64_t> w_;
  bool mutation_target_ = false;  ///< eligible for bitplane_hooks sabotage
};

// ---------------------------------------------------------------------------
// Free word-span kernels over raw rows (all spans `n` words long). The move
// proposers combine an occupancy row with one or two lifetime masks through
// these.

/// (a & b) != 0 over n words.
inline bool words_and_any(const uint64_t* a, const uint64_t* b, int n) {
  for (int i = 0; i < n; ++i)
    if (a[i] & b[i]) return true;
  return false;
}

/// acc |= row over n words — the accumulate half of the batched
/// register-mask scoring kernel: proposers OR the transposed busy rows of a
/// storage's live steps into one mask, then reduce it with popcount_words /
/// nth_clear_bit.
inline void words_or_accumulate(uint64_t* acc, const uint64_t* row, int n) {
  for (int i = 0; i < n; ++i) acc[i] |= row[i];
}

/// (a & b & ~c) != 0 over n words.
inline bool words_and_andnot_any(const uint64_t* a, const uint64_t* b,
                                 const uint64_t* c, int n) {
  for (int i = 0; i < n; ++i)
    if (a[i] & b[i] & ~c[i]) return true;
  return false;
}

/// Number of set bits over n words — the reduction half of the batched
/// register-mask kernels (see words_or_accumulate). Four independent
/// accumulators keep the per-word popcounts pipelined.
inline int popcount_words(const uint64_t* w, int n) {
  int a = 0, b = 0, c = 0, d = 0;
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    a += std::popcount(w[i]);
    b += std::popcount(w[i + 1]);
    c += std::popcount(w[i + 2]);
    d += std::popcount(w[i + 3]);
  }
  for (; i < n; ++i) a += std::popcount(w[i]);
  return a + b + c + d;
}

/// The k-th (0-based) CLEAR bit among the first `bits` bits of the word
/// span `w` — the select half of the move proposers' free-register pick:
/// count free via popcount of the complement, then descend to the k-th.
/// Padding bits past `bits` may hold anything; they are masked out. The
/// caller guarantees k < (number of clear bits), which the counting draw
/// established.
inline int nth_clear_bit(const uint64_t* w, int bits, int k) {
  for (int i = 0; (i << 6) < bits; ++i) {
    const int span = bits - (i << 6) >= 64 ? 64 : bits - (i << 6);
    const uint64_t tail = span == 64 ? ~0ull : (1ull << span) - 1;
    const uint64_t free_bits = ~w[i] & tail;
    const int n = std::popcount(free_bits);
    if (k < n) {
      uint64_t v = free_bits;
      for (int b = 0;; ++b) {
        if (v & 1ull) {
          if (k == 0) return (i << 6) + b;
          --k;
        }
        v >>= 1;
      }
    }
    k -= n;
  }
  SALSA_DCHECK(false);  // k exceeded the clear-bit count
  return -1;
}

/// The k-th (0-based) SET bit among the first `bits` bits of the word span
/// `w` — the select half of candidate-mask picks (e.g. the pass binder's
/// free pass-FU mask): count candidates via popcount_words, then descend
/// to the k-th. The caller guarantees k < (number of set bits).
inline int nth_set_bit(const uint64_t* w, int bits, int k) {
  for (int i = 0; (i << 6) < bits; ++i) {
    const int span = bits - (i << 6) >= 64 ? 64 : bits - (i << 6);
    const uint64_t tail = span == 64 ? ~0ull : (1ull << span) - 1;
    const uint64_t set_bits = w[i] & tail;
    const int n = std::popcount(set_bits);
    if (k < n) {
      uint64_t v = set_bits;
      for (int b = 0;; ++b) {
        if (v & 1ull) {
          if (k == 0) return (i << 6) + b;
          --k;
        }
        v >>= 1;
      }
    }
    k -= n;
  }
  SALSA_DCHECK(false);  // k exceeded the set-bit count
  return -1;
}

}  // namespace salsa
