#include "geom/validate.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <sstream>
#include <unordered_map>

#include "common/union_find.h"
#include "geom/cell_grid.h"

namespace tqec::geom {

namespace {

/// Enumerate the cells of a segment.
template <typename Fn>
void for_each_cell(const Segment& s, Fn&& fn) {
  Vec3 step{0, 0, 0};
  const Vec3 d = s.b - s.a;
  if (d.x != 0) step = {d.x > 0 ? 1 : -1, 0, 0};
  else if (d.y != 0) step = {0, d.y > 0 ? 1 : -1, 0};
  else if (d.z != 0) step = {0, 0, d.z > 0 ? 1 : -1};
  Vec3 p = s.a;
  for (;;) {
    fn(p);
    if (p == s.b) break;
    p += step;
  }
}

bool boxes_touch_or_overlap(const Box3& a, const Box3& b) {
  return a.inflated(1).intersects(b);
}

/// Sort-and-sweep along x: calls `fn(a, b)` for every pair of `boxes`
/// whose x-ranges lie within `slack` cells of each other — every pair that
/// can intersect once one of them is inflated by `slack`. Each box scans
/// forward through the boxes sorted by lo.x until one starts past its
/// hi.x + slack, so the cost is the sort plus the x-overlapping pairs, not
/// all pairs. Stops as soon as `fn` returns true, and returns whether it
/// did.
template <typename Fn>
bool sweep_pairs(const std::vector<Box3>& boxes, int slack, Fn&& fn) {
  std::vector<std::size_t> order(boxes.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return boxes[a].lo.x < boxes[b].lo.x;
  });
  for (std::size_t i = 0; i < order.size(); ++i) {
    const int reach = boxes[order[i]].hi.x + slack;
    for (std::size_t k = i + 1;
         k < order.size() && boxes[order[k]].lo.x <= reach; ++k)
      if (fn(order[i], order[k])) return true;
  }
  return false;
}

/// True when some box of `a` intersects some box of `b`. An intersecting
/// pair overlaps in x, so the box with the larger lo.x starts inside the
/// other's x-range: scanning each side's boxes forward from lo.x through
/// the other side (sorted by lo.x) sees every such pair.
bool any_intersection(std::vector<Box3> a, std::vector<Box3> b) {
  const auto by_lo_x = [](const Box3& u, const Box3& v) {
    return u.lo.x < v.lo.x;
  };
  std::sort(a.begin(), a.end(), by_lo_x);
  std::sort(b.begin(), b.end(), by_lo_x);
  const auto scan = [&](const std::vector<Box3>& from,
                        const std::vector<Box3>& to) {
    for (const Box3& f : from) {
      auto it = std::lower_bound(to.begin(), to.end(), f, by_lo_x);
      for (; it != to.end() && it->lo.x <= f.hi.x; ++it)
        if (f.intersects(*it)) return true;
    }
    return false;
  };
  return scan(a, b) || scan(b, a);
}

/// Reference V3 for one sublattice: the original hash-map pass. Emits the
/// exact issue text/order the pre-grid validator produced; also fills
/// `cells` (cell -> owning defect) for the dual pass's port-region test.
template <typename PortExempt, typename Fail>
void v3_reference_pass(const GeomDescription& g, DefectType type,
                       std::unordered_map<Vec3, int>& cells,
                       PortExempt&& exempt, Fail&& fail) {
  const bool primal = type == DefectType::Primal;
  for (std::size_t i = 0; i < g.defects().size(); ++i) {
    const DefectView d = g.defect(i);
    if (d.type != type) continue;
    for (const Segment& s : d.segments) {
      for_each_cell(s, [&](Vec3 p) {
        const auto [it, inserted] = cells.emplace(p, static_cast<int>(i));
        if (primal) {
          if (!inserted && it->second != static_cast<int>(i)) {
            std::ostringstream os;
            os << "primal defects " << it->second << " and " << i
               << " share cell " << p;
            fail("V3", os.str());
            it->second = static_cast<int>(i);  // report each pair once
          }
        } else {
          if (!inserted && it->second != static_cast<int>(i) && !exempt(p)) {
            std::ostringstream os;
            os << "dual defects " << it->second << " and " << i
               << " share cell " << p;
            fail("V3", os.str());
          }
          it->second = static_cast<int>(i);
        }
      });
    }
  }
}

/// Grid V3 for one sublattice: each defect's cells are tested against
/// `occ`'s plane first and set afterwards, so the plane only ever holds
/// earlier defects and a hit is a cross-defect conflict (unless `exempt`,
/// the dual pass's port-region rule) — a defect re-entering its own cells (shared corners,
/// stitched rails) never registers. Returns true when a conflict was
/// found; the caller then re-runs the reference pass for identical issue
/// output. Legal geometries complete without hashing a single cell.
template <typename PortExempt>
bool v3_grid_pass(const GeomDescription& g, DefectType type,
                  OccupancyGrid& occ, PortExempt&& exempt) {
  const int plane = plane_of(type);
  for (std::size_t i = 0; i < g.defects().size(); ++i) {
    const DefectView d = g.defect(i);
    if (d.type != type) continue;
    bool conflict = false;
    for (const Segment& s : d.segments) {
      for_each_cell(s, [&](Vec3 p) {
        if (!conflict && occ.test(plane, p) && !exempt(p)) conflict = true;
      });
      if (conflict) return true;
    }
    for (const Segment& s : d.segments) occ.set_segment(plane, s);
  }
  return false;
}

}  // namespace

std::string ValidationReport::summary() const {
  if (ok()) return "valid";
  std::ostringstream os;
  os << issues.size() << " issue(s):";
  for (const auto& issue : issues)
    os << "\n  [" << issue.rule << "] " << issue.detail;
  return os.str();
}

ValidationReport validate(const GeomDescription& g,
                          const ValidateOptions& options) {
  ValidationReport report;
  const auto fail = [&](const char* rule, const std::string& detail) {
    report.issues.push_back({rule, detail});
  };

  // V1 + V2: per-defect checks.
  std::vector<Box3> seg_boxes;
  for (std::size_t i = 0; i < g.defects().size(); ++i) {
    const DefectView d = g.defect(i);
    if (d.segments.empty()) {
      fail("V2", "defect " + std::to_string(i) + " has no segments");
      continue;
    }
    bool aligned = true;
    for (const Segment& s : d.segments) {
      if (!s.axis_aligned()) {
        aligned = false;
        std::ostringstream os;
        os << "defect " << i << " segment " << s.a << "->" << s.b
           << " not axis-aligned";
        fail("V1", os.str());
      }
    }
    if (!aligned) continue;
    // Connectivity: segments whose boxes touch (Chebyshev gap 0) or overlap
    // belong to the same connected structure. The sweep visits every pair
    // within one cell of each other along x and may stop once the defect
    // is one piece, so the component count is the all-pairs count.
    seg_boxes.clear();
    for (const Segment& s : d.segments) seg_boxes.push_back(s.box());
    UnionFind uf(seg_boxes.size());
    sweep_pairs(seg_boxes, 1, [&](std::size_t a, std::size_t b) {
      if (boxes_touch_or_overlap(seg_boxes[a], seg_boxes[b])) uf.unite(a, b);
      return uf.component_count() == 1;
    });
    if (uf.component_count() != 1)
      fail("V2", "defect " + std::to_string(i) + " is disconnected (" +
                     std::to_string(uf.component_count()) + " pieces)");
  }

  // V3: same-type cell-sharing across distinct defects. Exception: two
  // dual defects may share a cell that also hosts a primal defect — that
  // cell is a primal module loop, which is spatially extended and offers
  // one crossing slot per threading net (see route/router.h).
  if (options.use_grid) {
    const auto t0 = std::chrono::steady_clock::now();
    Box3 bb;
    for (const DefectView d : g.defects()) bb = bb.merged(d.bounding_box());
    OccupancyGrid occ(bb, 2);
    const auto no_exempt = [](Vec3) { return false; };
    const bool primal_conflict =
        v3_grid_pass(g, DefectType::Primal, occ, no_exempt);
    // A dual-dual shared cell is legal on a primal module loop itself or
    // in its port region (the face-adjacent cells).
    const auto grid_exempt = [&](Vec3 p) {
      if (occ.test(kPrimalPlane, p)) return true;
      for (const Vec3 step : {Vec3{1, 0, 0}, Vec3{-1, 0, 0}, Vec3{0, 1, 0},
                              Vec3{0, -1, 0}, Vec3{0, 0, 1}, Vec3{0, 0, -1}})
        if (occ.test(kPrimalPlane, p + step)) return true;
      return false;
    };
    const bool dual_conflict =
        !primal_conflict &&
        v3_grid_pass(g, DefectType::Dual, occ, grid_exempt);
    report.grid_build_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
    report.grid_bytes = occ.byte_size();
    if (primal_conflict || dual_conflict) {
      // Conflict found: re-run the reference engine for both sublattices
      // so issue text and order match it byte-for-byte (the primal map
      // also feeds the dual pass's port-region test).
      std::unordered_map<Vec3, int> primal_cells;
      std::unordered_map<Vec3, int> dual_cells;
      v3_reference_pass(g, DefectType::Primal, primal_cells,
                        [](Vec3) { return false; }, fail);
      const auto map_exempt = [&](Vec3 p) {
        if (primal_cells.find(p) != primal_cells.end()) return true;
        for (const Vec3 step :
             {Vec3{1, 0, 0}, Vec3{-1, 0, 0}, Vec3{0, 1, 0}, Vec3{0, -1, 0},
              Vec3{0, 0, 1}, Vec3{0, 0, -1}})
          if (primal_cells.find(p + step) != primal_cells.end()) return true;
        return false;
      };
      v3_reference_pass(g, DefectType::Dual, dual_cells, map_exempt, fail);
    }
  } else {
    std::unordered_map<Vec3, int> primal_cells;
    std::unordered_map<Vec3, int> dual_cells;
    v3_reference_pass(g, DefectType::Primal, primal_cells,
                      [](Vec3) { return false; }, fail);
    const auto map_exempt = [&](Vec3 p) {
      if (primal_cells.find(p) != primal_cells.end()) return true;
      for (const Vec3 step :
           {Vec3{1, 0, 0}, Vec3{-1, 0, 0}, Vec3{0, 1, 0}, Vec3{0, -1, 0},
            Vec3{0, 0, 1}, Vec3{0, 0, -1}})
        if (primal_cells.find(p + step) != primal_cells.end()) return true;
      return false;
    };
    v3_reference_pass(g, DefectType::Dual, dual_cells, map_exempt, fail);
  }

  // V4 + V5 are detected by sweeps along x; only a design that breaks one
  // of them runs the all-pairs loops, which emit the issues in their
  // established order and text.
  std::vector<Box3> extents;
  for (const DistillBox& b : g.boxes()) extents.push_back(b.extent());
  if (extents.empty()) return report;

  // V4: box overlap.
  if (sweep_pairs(extents, 0, [&](std::size_t a, std::size_t b) {
        return extents[a].intersects(extents[b]);
      })) {
    for (std::size_t a = 0; a < extents.size(); ++a) {
      for (std::size_t b = a + 1; b < extents.size(); ++b) {
        if (extents[a].intersects(extents[b])) {
          std::ostringstream os;
          os << "boxes " << a << " and " << b << " overlap";
          fail("V4", os.str());
        }
      }
    }
  }

  // V5: defect cells inside box interiors (the cell adjacent to the box
  // face where the injected state exits is outside the extent, so plain
  // containment is the right test).
  seg_boxes.clear();
  for (const DefectView d : g.defects())
    for (const Segment& s : d.segments) seg_boxes.push_back(s.box());
  if (any_intersection(std::move(seg_boxes), extents)) {
    for (std::size_t i = 0; i < g.defects().size(); ++i) {
      for (const Segment& s : g.defect(i).segments) {
        for (std::size_t b = 0; b < extents.size(); ++b) {
          if (extents[b].intersects(s.box())) {
            std::ostringstream os;
            os << "defect " << i << " enters box " << b;
            fail("V5", os.str());
          }
        }
      }
    }
  }

  return report;
}

void validate_or_throw(const GeomDescription& g) {
  const ValidationReport report = validate(g);
  if (!report.ok())
    throw TqecError("invalid geometric description: " + report.summary());
}

}  // namespace tqec::geom
