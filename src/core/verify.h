// Static legality verification of a binding: every rule of the extended
// binding model, reported as a list of human-readable violations (empty ==
// legal). Tests and the allocator's public API run this on every result;
// the datapath simulator provides the complementary dynamic check.
#pragma once

#include <string>
#include <vector>

#include "core/cost.h"

namespace salsa {

/// Returns all rule violations of `b` (empty if the binding is legal):
///   * every operation bound to an FU of its class;
///   * no two occupants of an FU at a step (ops and pass-throughs);
///   * no two storages in a register at a step, no duplicate cells;
///   * cell chains well-formed (seg-0 cells producer-written, others with a
///     valid parent; via only on actual transfers, on idle pass-capable FUs);
///   * every read served by an existing cell;
///   * at most one driving source per module input pin per step (checked
///     only when the rules above all hold, by filling a RouteTable; each
///     conflicting use adds one message, in connection_uses() order).
std::vector<std::string> verify(const Binding& b);

/// Convenience: throws salsa::Error with all violations if any. Otherwise
/// returns the route table the one-driver check filled.
RouteTable check_legal(const Binding& b);

}  // namespace salsa
