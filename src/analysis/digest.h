// Canonical binding digests for the SalsaCheck subsystem (see
// src/analysis/auditor.h). A binding is hashed with FNV-1a over a canonical
// field-by-field serialization — operations in node order (fu, swap), then
// storages in id order (per-segment cell lists as (reg, parent, via)
// triples, then the read→cell table). Two bindings of the same problem
// digest equal iff they are byte-identical (operator== equal), so digests
// taken before a move transaction and after its undo prove exact
// restoration.
//
// binding_json() renders the same canonical fields as a JSON document; the
// fuzzer dumps it (together with the seed) as the failure artifact CI
// uploads.
#pragma once

#include <cstdint>
#include <string>

#include "core/binding.h"
#include "core/cost.h"

namespace salsa {

/// Incremental FNV-1a (64-bit) hasher. Multi-byte integers are fed in a
/// fixed little-endian order so digests are stable across platforms.
class Fnv1a {
 public:
  static constexpr uint64_t kOffsetBasis = 0xcbf29ce484222325ull;
  static constexpr uint64_t kPrime = 0x100000001b3ull;

  void byte(uint8_t b) {
    h_ = (h_ ^ b) * kPrime;
  }
  void u32(uint32_t v) {
    for (int i = 0; i < 4; ++i) byte(static_cast<uint8_t>(v >> (8 * i)));
  }
  void u64(uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<uint8_t>(v >> (8 * i)));
  }
  void i32(int32_t v) { u32(static_cast<uint32_t>(v)); }
  /// Bit pattern of a double (all cost totals are exact in this codebase,
  /// so bit equality is the right notion).
  void f64(double v);

  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = kOffsetBasis;
};

/// Feeds the canonical serialization of `b` into `h`.
void digest_binding(Fnv1a& h, const Binding& b);
/// FNV-1a digest of the canonical serialization of `b`.
uint64_t digest_binding(const Binding& b);

/// The canonical binding fields as a self-contained JSON document (ops,
/// cells, read tables, cost breakdown, digest). Stable field order; used
/// for fuzzer failure artifacts and salsa_audit --dump.
std::string binding_json(const Binding& b);

}  // namespace salsa
