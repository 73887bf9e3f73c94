// Multiplexer merging post-pass (Section 4): after allocation improvement,
// compatible multiplexers are combined with a simple greedy heuristic — an
// arbitrary mux is selected and merged with as many compatible muxes as
// possible, then the next unmerged mux is processed, until all have been
// tried. Two muxes are compatible when no control step requires them to
// route different sources simultaneously; merged muxes share one selector
// and their source sets union.
#pragma once

#include <vector>

#include "core/cost.h"

namespace salsa {

/// One multiplexer after merging: the input pins it feeds and the sources it
/// selects among.
struct MergedMux {
  std::vector<Pin> sinks;
  std::vector<Endpoint> sources;
  /// Equivalent 2-1 multiplexers: sources.size() - 1.
  int width() const { return static_cast<int>(sources.size()) - 1; }
};

struct MuxMergeResult {
  std::vector<MergedMux> muxes;
  int muxes_before = 0;  ///< equivalent 2-1 muxes without merging
  int muxes_after = 0;   ///< equivalent 2-1 muxes after merging
};

/// Runs the greedy merge on a legal binding's point-to-point interconnect.
/// Constant sources are excluded (they are free in the cost model).
///
/// Order contract: the multi-source muxes are taken in ascending sink-key
/// order (pack(), the PinIndex order); each group opens at the lowest unused
/// mux and tries the later unused muxes once each, in ascending order,
/// merging those that share a source with the group and never need a
/// different source at one of its steps. `muxes` lists the groups in that
/// order, each with its sinks in merge order and its sources in ascending
/// key order. A group's candidates come from an inverted source index, so
/// the pass costs about the route table plus the candidates that share a
/// source, not every mux pair (DESIGN.md, "Mux merge");
/// tests/mux_merge_reference.h keeps the pairwise loop it must equal.
MuxMergeResult merge_muxes(const Binding& b);

}  // namespace salsa
