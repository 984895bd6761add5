// Structural validation of geometric descriptions.
//
// Rules enforced (paper Sec. 1 and 2.4, in plumbing-piece units — see
// geometry.h for the coordinate convention):
//   V1. every segment is axis-aligned;
//   V2. the segments of one defect form a single connected structure
//       (touching or overlapping cells);
//   V3. two *disjoint* defects of the same type never share a cell
//       ("two disjoint defects cannot overlap and are separated by one
//       unit", where the unit separation is part of the cell pitch).
//       Exception for dual defects: a cell on a primal module loop or in
//       its port region (face-adjacent to a primal cell) may carry several
//       dual nets — the loop is spatially extended and each threading net
//       passes through its own sub-cell slot (see route/router.h);
//   V4. distillation boxes do not overlap each other;
//   V5. defect cells do not enter distillation-box interiors (boxes hold
//       the place for the distillation sub-circuit).
// Cross-type sharing of a cell is legal (half-offset sublattices).
//
// Cost: no check is all-pairs on a legal design. Each costs a sort plus
// the pairs that overlap along x, or one grid probe per cell — near-linear
// for real designs, whose defects run along the time axis — so a stitched
// long circuit (defects of thousands of segments) validates in
// milliseconds.
//   - V2 sort-and-sweeps one defect's segment boxes along x into a
//     union-find; the piece count equals the all-pairs count.
//   - The default V3 pass rasterizes defects into a dense bit-grid
//     (geom/cell_grid.h), testing all of a defect's cells before setting
//     any, so a hit is always a cross-defect share and a legal geometry
//     never hashes a single Vec3. When a share *is* found, the pass
//     re-runs the original hash-map reference so the emitted issues
//     (text and order) are byte-identical to the reference engine.
//     `ValidateOptions.use_grid = false` forces the reference engine
//     throughout — kept for A/B tests and benchmarks.
//   - V4 and V5 detect any overlap with sweeps along x and only then run
//     the all-pairs loops that emit their issues in order.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "geom/geometry.h"

namespace tqec::geom {

struct ValidationIssue {
  std::string rule;   // "V1".."V5"
  std::string detail;
};

struct ValidationReport {
  std::vector<ValidationIssue> issues;
  /// Occupancy-grid build cost of the V3 pass (0 for the reference
  /// engine); surfaced as the geom.grid_build_s / geom.grid_bytes gauges.
  double grid_build_s = 0;
  std::int64_t grid_bytes = 0;
  bool ok() const { return issues.empty(); }
  std::string summary() const;
};

struct ValidateOptions {
  /// false: force the hash-map reference engine (A/B testing).
  bool use_grid = true;
};

ValidationReport validate(const GeomDescription& g,
                          const ValidateOptions& options = {});

/// Convenience: throws TqecError with the report summary when invalid.
void validate_or_throw(const GeomDescription& g);

}  // namespace tqec::geom
