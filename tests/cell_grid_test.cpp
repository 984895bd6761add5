// Data-oriented geometry engine: CellGrid / IntervalOccupancy /
// OccupancyGrid pitted against a hash-set reference model on random
// segment soups, plus A/B bit-identity pins for the grid-backed validate
// and stitch engines against their hash-set reference paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/union_find.h"
#include "core/compiler.h"
#include "core/paper_tables.h"
#include "core/shard.h"
#include "geom/cell_grid.h"
#include "geom/stitch.h"
#include "geom/validate.h"
#include "icm/workload.h"

namespace tqec {
namespace {

// ---------------------------------------------------------------------------
// Reference model: per-plane hash sets (what every consumer used before
// the grid engine).

struct HashModel {
  std::unordered_set<Vec3> planes[2];

  /// Mirror of set_segment: returns newly set count; appends already-set
  /// cells to `collisions` in the documented order — x-runs in ascending
  /// x regardless of endpoint order (the grid scans words left to right),
  /// y/z runs in run order from a to b.
  std::int64_t set_segment(int plane, const geom::Segment& s,
                           std::vector<Vec3>* collisions = nullptr) {
    std::int64_t fresh = 0;
    for_each_cell(s, [&](Vec3 p) {
      if (planes[plane].insert(p).second) {
        ++fresh;
      } else if (collisions != nullptr) {
        collisions->push_back(p);
      }
    });
    return fresh;
  }

  template <typename Fn>
  static void for_each_cell(const geom::Segment& s, Fn&& fn) {
    if (s.a.x != s.b.x) {  // x-run: always ascending
      for (int x = std::min(s.a.x, s.b.x); x <= std::max(s.a.x, s.b.x); ++x)
        fn(Vec3{x, s.a.y, s.a.z});
      return;
    }
    // y/z run (or a single cell): step from a to b in run direction.
    const Vec3 d{0, s.b.y > s.a.y ? 1 : s.b.y < s.a.y ? -1 : 0,
                 s.b.z > s.a.z ? 1 : s.b.z < s.a.z ? -1 : 0};
    Vec3 p = s.a;
    while (true) {
      fn(p);
      if (p == s.b) break;
      p = p + d;
    }
  }
};

geom::Segment random_segment(Rng& rng, const Box3& box, int max_len) {
  const Vec3 a{rng.range(box.lo.x, box.hi.x), rng.range(box.lo.y, box.hi.y),
               rng.range(box.lo.z, box.hi.z)};
  Vec3 b = a;
  const int axis = rng.range(0, 2);
  const int len = rng.range(0, max_len);
  int& c = axis == 0 ? b.x : axis == 1 ? b.y : b.z;
  const int cap = axis == 0 ? box.hi.x : axis == 1 ? box.hi.y : box.hi.z;
  c = std::min(c + len, cap);
  // Half the runs descending, to exercise either endpoint order.
  return rng.range(0, 1) ? geom::Segment{a, b} : geom::Segment{b, a};
}

class CellGridSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CellGridSweep, MatchesHashReference) {
  Rng rng(GetParam());
  const Box3 bounds{{-20, -20, -20}, {45, 25, 25}};
  geom::CellGrid grid(bounds, 2);
  HashModel ref;

  for (int trial = 0; trial < 120; ++trial) {
    const geom::Segment s = random_segment(rng, bounds, 70);
    const int plane = rng.range(0, 1);
    std::vector<Vec3> grid_coll, ref_coll;
    const std::int64_t grid_fresh = grid.set_segment(plane, s, &grid_coll);
    const std::int64_t ref_fresh = ref.set_segment(plane, s, &ref_coll);
    EXPECT_EQ(grid_fresh, ref_fresh) << "trial " << trial;
    EXPECT_EQ(grid_coll, ref_coll) << "trial " << trial;
  }
  for (int plane = 0; plane < 2; ++plane) {
    EXPECT_EQ(grid.popcount(plane),
              static_cast<std::int64_t>(ref.planes[plane].size()));
  }
  // Point probes: every reference cell tests set, random cells agree.
  for (int plane = 0; plane < 2; ++plane)
    for (const Vec3& p : ref.planes[plane])
      EXPECT_TRUE(grid.test(plane, p)) << p;
  for (int probe = 0; probe < 500; ++probe) {
    const Vec3 p{rng.range(-25, 50), rng.range(-25, 30), rng.range(-25, 30)};
    const int plane = rng.range(0, 1);
    EXPECT_EQ(grid.test(plane, p), ref.planes[plane].count(p) != 0) << p;
  }
  // Out-of-bounds cells are never occupied.
  EXPECT_FALSE(grid.test(0, {bounds.lo.x - 1, 0, 0}));
  EXPECT_FALSE(grid.test(1, {0, bounds.hi.y + 1, 0}));
}

TEST_P(CellGridSweep, ClearSegmentAndClearAll) {
  Rng rng(GetParam());
  const Box3 bounds{{0, 0, 0}, {80, 12, 12}};
  geom::CellGrid grid(bounds, 2);
  HashModel ref;
  std::vector<std::pair<int, geom::Segment>> placed;
  for (int trial = 0; trial < 60; ++trial) {
    const geom::Segment s = random_segment(rng, bounds, 30);
    const int plane = rng.range(0, 1);
    grid.set_segment(plane, s);
    ref.set_segment(plane, s);
    placed.emplace_back(plane, s);
  }
  // Clear a random half; bit semantics — a cell clears no matter how many
  // segments set it, so mirror with an erase.
  for (const auto& [plane, s] : placed) {
    if (rng.range(0, 1) == 0) continue;
    grid.clear_segment(plane, s);
    HashModel::for_each_cell(s, [&, p = plane](Vec3 c) {
      ref.planes[p].erase(c);
    });
  }
  for (int plane = 0; plane < 2; ++plane) {
    EXPECT_EQ(grid.popcount(plane),
              static_cast<std::int64_t>(ref.planes[plane].size()));
    for (const Vec3& p : ref.planes[plane]) EXPECT_TRUE(grid.test(plane, p));
  }
  for (int probe = 0; probe < 400; ++probe) {
    const Vec3 p{rng.range(0, 80), rng.range(0, 12), rng.range(0, 12)};
    const int plane = rng.range(0, 1);
    EXPECT_EQ(grid.test(plane, p), ref.planes[plane].count(p) != 0) << p;
  }
  grid.clear_all();
  EXPECT_EQ(grid.popcount(0), 0);
  EXPECT_EQ(grid.popcount(1), 0);
}

TEST_P(CellGridSweep, IntervalAndWrapperAgreeWithDense) {
  Rng rng(GetParam());
  const Box3 bounds{{-10, -10, -10}, {60, 15, 15}};
  geom::CellGrid dense(bounds, 2);
  geom::IntervalOccupancy sparse(bounds, 2);
  geom::OccupancyGrid forced_sparse(bounds, 2, /*dense_byte_cap=*/1);
  geom::OccupancyGrid auto_dense(bounds, 2);
  EXPECT_FALSE(forced_sparse.dense());
  EXPECT_TRUE(auto_dense.dense());

  for (int trial = 0; trial < 100; ++trial) {
    const geom::Segment s = random_segment(rng, bounds, 50);
    const int plane = rng.range(0, 1);
    std::vector<Vec3> c0, c1, c2, c3;
    const std::int64_t f0 = dense.set_segment(plane, s, &c0);
    const std::int64_t f1 = sparse.set_segment(plane, s, &c1);
    const std::int64_t f2 = forced_sparse.set_segment(plane, s, &c2);
    const std::int64_t f3 = auto_dense.set_segment(plane, s, &c3);
    EXPECT_EQ(f0, f1) << "trial " << trial;
    EXPECT_EQ(f0, f2) << "trial " << trial;
    EXPECT_EQ(f0, f3) << "trial " << trial;
    EXPECT_EQ(c0, c1) << "trial " << trial;
    EXPECT_EQ(c0, c2) << "trial " << trial;
    EXPECT_EQ(c0, c3) << "trial " << trial;
  }
  for (int plane = 0; plane < 2; ++plane) {
    EXPECT_EQ(dense.popcount(plane), sparse.popcount(plane));
    EXPECT_EQ(dense.popcount(plane), forced_sparse.popcount(plane));
    EXPECT_EQ(dense.popcount(plane), auto_dense.popcount(plane));
  }
  for (int probe = 0; probe < 600; ++probe) {
    const Vec3 p{rng.range(-12, 62), rng.range(-12, 17), rng.range(-12, 17)};
    const int plane = rng.range(0, 1);
    const bool want = dense.test(plane, p);
    EXPECT_EQ(sparse.test(plane, p), want) << p;
    EXPECT_EQ(forced_sparse.test(plane, p), want) << p;
    EXPECT_EQ(auto_dense.test(plane, p), want) << p;
  }
  // The sparse rows of a soup this size undercut the dense planes.
  EXPECT_GT(dense.byte_size(), 0);
  EXPECT_GT(sparse.byte_size(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CellGridSweep,
                         ::testing::Values(11u, 22u, 33u));

// ---------------------------------------------------------------------------
// exact_cell_count: grid popcount vs the per-segment upper bound.

TEST(ExactCellCountTest, GridPopcountDedupesSharedCorners) {
  geom::GeomDescription g("corners");
  geom::Defect d;
  d.type = geom::DefectType::Primal;
  // An L: the corner cell (5,0,0) belongs to both segments.
  d.segments.push_back({{0, 0, 0}, {5, 0, 0}});
  d.segments.push_back({{5, 0, 0}, {5, 0, 4}});
  g.add_defect(d);
  EXPECT_EQ(g.defect_cell_count(), 11);  // 6 + 5, corner double-counted
  EXPECT_EQ(g.exact_cell_count(), 10);

  // A dual defect over the same coordinates lives on the other plane and
  // counts separately (half-offset sublattices).
  d.type = geom::DefectType::Dual;
  g.add_defect(d);
  EXPECT_EQ(g.exact_cell_count(), 20);
}

// ---------------------------------------------------------------------------
// Validate A/B: the grid engine's verdicts and issue text are
// byte-identical to the hash-set reference engine.

std::string report_text(const geom::ValidationReport& r) {
  std::string s;
  for (const geom::ValidationIssue& i : r.issues)
    s += "[" + i.rule + "] " + i.detail + "\n";
  return s;
}

class ValidateEngineAB : public ::testing::TestWithParam<const char*> {};

TEST_P(ValidateEngineAB, BenchmarkReportsBitIdentical) {
  const core::PaperBenchmark& bench = core::paper_benchmark(GetParam());
  const icm::IcmCircuit circuit =
      icm::make_workload(core::workload_spec(bench));
  core::CompileOptions opt;
  opt.seed = 7;
  const core::CompileResult r = core::compile(circuit, opt);
  ASSERT_TRUE(r.routed_legal);

  geom::ValidateOptions grid_on, grid_off;
  grid_off.use_grid = false;
  const geom::ValidationReport a = geom::validate(r.geometry, grid_on);
  const geom::ValidationReport b = geom::validate(r.geometry, grid_off);
  EXPECT_TRUE(a.ok()) << a.summary();
  EXPECT_EQ(report_text(a), report_text(b));
  EXPECT_GT(a.grid_bytes, 0);   // the grid engine really ran
  EXPECT_EQ(b.grid_bytes, 0);   // the reference engine never builds one
}

INSTANTIATE_TEST_SUITE_P(PaperBenchmarks, ValidateEngineAB,
                         ::testing::Values("4gt10-v1_81", "4gt4-v0_73"));

TEST(ValidateEngineABTest, BrokenSoupsProduceIdenticalIssues) {
  // Random walks in a deliberately tight box: plenty of same-type overlap,
  // so the grid engine's reference-rerun path (conflict detected -> replay
  // the hash engine for byte-identical issues) is exercised, not just the
  // clean fast path.
  for (const std::uint64_t seed : {5u, 6u, 7u, 8u}) {
    Rng rng(seed);
    geom::GeomDescription g("soup" + std::to_string(seed));
    for (int d = 0; d < 10; ++d) {
      geom::Defect defect;
      defect.type = rng.range(0, 1) ? geom::DefectType::Primal
                                    : geom::DefectType::Dual;
      defect.source_id = d;
      Vec3 at{rng.range(0, 6), rng.range(0, 6), rng.range(0, 6)};
      for (int step = 0; step < 5; ++step) {
        Vec3 to = at;
        const int axis = rng.range(0, 2);
        int& c = axis == 0 ? to.x : axis == 1 ? to.y : to.z;
        c += rng.range(1, 3) * (rng.range(0, 1) ? 1 : -1);
        defect.segments.push_back({at, to});
        at = to;
      }
      g.add_defect(defect);
    }
    geom::ValidateOptions grid_off;
    grid_off.use_grid = false;
    const geom::ValidationReport a = geom::validate(g);
    const geom::ValidationReport b = geom::validate(g, grid_off);
    EXPECT_EQ(report_text(a), report_text(b)) << "seed " << seed;
    EXPECT_FALSE(a.ok()) << "seed " << seed
                         << ": soup unexpectedly clean, weaken the box";
  }
}

// Validate both ways and require byte-identical reports.
geom::ValidationReport validate_both(const geom::GeomDescription& g) {
  geom::ValidateOptions grid_off;
  grid_off.use_grid = false;
  const geom::ValidationReport a = geom::validate(g);
  const geom::ValidationReport b = geom::validate(g, grid_off);
  EXPECT_EQ(report_text(a), report_text(b)) << g.name();
  return a;
}

std::string rule_text(const geom::ValidationReport& r, const char* rule) {
  std::string s;
  for (const geom::ValidationIssue& i : r.issues)
    if (i.rule == rule) s += i.detail + "\n";
  return s;
}

/// A random axis-aligned walk of `steps` segments from `at`, each step
/// 1..3 cells along a random axis, clamped to `box`.
std::vector<geom::Segment> random_walk(Rng& rng, Vec3 at, const Box3& box,
                                       int steps) {
  std::vector<geom::Segment> segments;
  for (int step = 0; step < steps; ++step) {
    Vec3 to = at;
    const int axis = rng.range(0, 2);
    int& c = axis == 0 ? to.x : axis == 1 ? to.y : to.z;
    const int lo = axis == 0 ? box.lo.x : axis == 1 ? box.lo.y : box.lo.z;
    const int hi = axis == 0 ? box.hi.x : axis == 1 ? box.hi.y : box.hi.z;
    c = std::clamp(c + rng.range(1, 3) * (rng.range(0, 1) ? 1 : -1), lo, hi);
    segments.push_back({at, to});
    at = to;
  }
  return segments;
}

TEST(ValidateSweepTest, V2PieceCountsMatchAllPairs) {
  // Scattered segments make many-piece defects, random walks one-piece
  // ones; the sweep's counts must equal the all-pairs union-find's.
  int disconnected = 0, connected = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed);
    geom::GeomDescription g("v2_soup" + std::to_string(seed));
    const Box3 box{{0, 0, 0}, {24, 12, 12}};
    for (int d = 0; d < 8; ++d) {
      geom::Defect defect;
      defect.type = d % 2 ? geom::DefectType::Dual : geom::DefectType::Primal;
      const int n = rng.range(1, 40);
      if (rng.range(0, 1)) {
        for (int k = 0; k < n; ++k)
          defect.segments.push_back(random_segment(rng, box, 6));
      } else {
        defect.segments = random_walk(rng, {12, 6, 6}, box, n);
      }
      g.add_defect(defect);
    }
    std::string expected;
    for (std::size_t i = 0; i < g.defects().size(); ++i) {
      const auto segments = g.defect(i).segments;
      UnionFind uf(segments.size());
      for (std::size_t a = 0; a < segments.size(); ++a)
        for (std::size_t b = a + 1; b < segments.size(); ++b)
          if (segments[a].box().inflated(1).intersects(segments[b].box()))
            uf.unite(a, b);
      if (uf.component_count() == 1) {
        ++connected;
        continue;
      }
      ++disconnected;
      expected += "defect " + std::to_string(i) + " is disconnected (" +
                  std::to_string(uf.component_count()) + " pieces)\n";
    }
    EXPECT_EQ(rule_text(validate_both(g), "V2"), expected) << "seed " << seed;
  }
  EXPECT_GT(disconnected, 0);
  EXPECT_GT(connected, 0);
}

TEST(ValidateSweepTest, SelfReentryThroughFarEarlierSegmentIsLegal) {
  // A long primal walk that finally returns to a cell of its very first
  // segment, hundreds of segments back; a second primal defect runs
  // alongside (adjacent, never sharing a cell) and a dual defect retraces
  // the first one's cells on the other sublattice.
  for (const std::uint64_t seed : {3u, 4u, 5u}) {
    Rng rng(seed);
    geom::GeomDescription g("reentry" + std::to_string(seed));
    geom::Defect walk;
    walk.type = geom::DefectType::Primal;
    walk.segments.push_back({{0, 0, 0}, {40, 0, 0}});
    walk.segments.push_back({{40, 0, 0}, {40, 1, 0}});
    for (const geom::Segment& s :
         random_walk(rng, {40, 1, 0}, Box3{{0, 1, 0}, {40, 12, 12}}, 400))
      walk.segments.push_back(s);
    const Vec3 end = walk.segments.back().b;
    walk.segments.push_back({end, {20, end.y, end.z}});
    walk.segments.push_back({{20, end.y, end.z}, {20, end.y, 0}});
    walk.segments.push_back({{20, end.y, 0}, {20, 0, 0}});  // re-entry
    g.add_defect(walk);
    geom::Defect side;
    side.type = geom::DefectType::Primal;
    side.segments.push_back({{0, 0, -1}, {40, 0, -1}});
    g.add_defect(side);
    walk.type = geom::DefectType::Dual;
    g.add_defect(walk);
    const geom::ValidationReport r = validate_both(g);
    EXPECT_TRUE(r.ok()) << "seed " << seed << ": " << r.summary();
  }
}

TEST(ValidateSweepTest, CrossCollisionOnOwnEarlierCellIsReported) {
  // Defect 1 crosses defect 0 at (5,0,3) on its first segment and comes
  // back through the same cell on its last one: the cross-defect share
  // must be reported, on either sublattice.
  for (const geom::DefectType type :
       {geom::DefectType::Primal, geom::DefectType::Dual}) {
    geom::GeomDescription g("cross_reentry");
    g.add_defect(type, 0, std::vector<geom::Segment>{{{5, 0, 0}, {5, 0, 6}}});
    g.add_defect(type, 1,
                 std::vector<geom::Segment>{{{0, 0, 3}, {10, 0, 3}},
                                            {{10, 0, 3}, {10, 0, 9}},
                                            {{10, 0, 9}, {5, 0, 9}},
                                            {{5, 0, 9}, {5, 0, 3}}});
    const geom::ValidationReport r = validate_both(g);
    const std::string prefix =
        type == geom::DefectType::Primal ? "primal" : "dual";
    EXPECT_NE(rule_text(r, "V3").find(prefix +
                                      " defects 0 and 1 share cell (5,0,3)"),
              std::string::npos)
        << r.summary();
  }
}

TEST(ValidateSweepTest, RandomWalksAgreeWithReference) {
  // Self-overlapping walks in overlapping slabs: some seeds stay clean,
  // others collide across defects, and every report matches the reference.
  int clean = 0, dirty = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    geom::GeomDescription g("walks" + std::to_string(seed));
    for (int d = 0; d < 6; ++d) {
      const Box3 slab{{8 * d, 0, 0}, {8 * d + 9, 8, 8}};
      g.add_defect(d % 3 == 2 ? geom::DefectType::Dual
                              : geom::DefectType::Primal,
                   d, random_walk(rng, {8 * d + 4, 4, 4}, slab, 80));
    }
    (validate_both(g).ok() ? clean : dirty) += 1;
  }
  EXPECT_GT(clean, 0);
  EXPECT_GT(dirty, 0);
}

TEST(ValidateSweepTest, V4V5HitsMatchAllPairs) {
  int hits = 0, misses = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed);
    geom::GeomDescription g("boxes" + std::to_string(seed));
    const Box3 box{{0, 0, 0}, {80, 20, 20}};
    for (int d = 0; d < 6; ++d)
      g.add_defect(geom::DefectType::Primal, d,
                   std::vector<geom::Segment>{random_segment(rng, box, 12)});
    for (int b = 0; b < 12; ++b) {
      geom::DistillBox db;
      db.kind = rng.range(0, 3) ? geom::BoxKind::YBox : geom::BoxKind::ABox;
      db.origin = {rng.range(0, 80), rng.range(0, 20), rng.range(0, 20)};
      g.add_box(db);
    }
    std::string expected;
    const auto& boxes = g.boxes();
    for (std::size_t a = 0; a < boxes.size(); ++a)
      for (std::size_t b = a + 1; b < boxes.size(); ++b)
        if (boxes[a].extent().intersects(boxes[b].extent()))
          expected += "boxes " + std::to_string(a) + " and " +
                      std::to_string(b) + " overlap\n";
    for (std::size_t i = 0; i < g.defects().size(); ++i)
      for (const geom::Segment& s : g.defect(i).segments)
        for (std::size_t b = 0; b < boxes.size(); ++b)
          if (boxes[b].extent().intersects(s.box()))
            expected += "defect " + std::to_string(i) + " enters box " +
                        std::to_string(b) + "\n";
    const geom::ValidationReport r = validate_both(g);
    EXPECT_EQ(rule_text(r, "V4") + rule_text(r, "V5"), expected)
        << "seed " << seed;
    (expected.empty() ? misses : hits) += 1;
  }
  EXPECT_GT(hits, 0);
  EXPECT_GT(misses, 0);
}

// ---------------------------------------------------------------------------
// Stitch A/B: the grid-backed seam engine produces bit-identical stitched
// geometry to the hash-set engine on a long_* sharded workload.

TEST(StitchEngineABTest, LongWorkloadBitIdentical) {
  icm::LayeredWorkloadSpec spec;
  spec.name = "long_8x16_t1_c2";
  spec.data_lines = 8;
  spec.layers = 16;
  spec.t_per_layer = 1;
  spec.cnots_per_layer = 2;
  spec.seed = 7;
  const icm::IcmCircuit circuit = icm::make_layered_workload(spec);
  const core::ShardPlan plan = core::plan_windows(circuit, 4);
  const std::size_t n = plan.windows.size();
  ASSERT_GE(n, 2u);

  // The shard pipeline's window prep: compile each window, normalize to
  // the origin, carry cells from the first/last module of each carry line.
  std::vector<geom::GeomDescription> geoms(n);
  std::vector<std::vector<std::pair<int, Vec3>>> carry_in(n), carry_out(n);
  for (std::size_t w = 0; w < n; ++w) {
    core::CompileOptions wopt;
    wopt.seed = 7;
    wopt.keep_internals = true;
    const core::CompileResult r = core::compile(
        core::extract_window(circuit, plan, static_cast<int>(w)), wopt);
    ASSERT_TRUE(r.routed_legal) << "window " << w;
    const Box3 bb = r.geometry.bounding_box();
    const Vec3 lo = bb.empty() ? Vec3{0, 0, 0} : bb.lo;
    geoms[w] = r.geometry;
    geoms[w].translate({-lo.x, -lo.y, -lo.z});
    const auto& rows = r.internals->graph.rows();
    const auto& module_cell = r.placement.module_cell;
    const core::WindowPlan& wp = plan.windows[w];
    for (std::size_t i = 0; i < wp.lines.size(); ++i) {
      if (wp.carry_in[i])
        carry_in[w].emplace_back(
            wp.lines[i],
            module_cell[static_cast<std::size_t>(rows[i].front())] - lo);
      if (wp.carry_out[i])
        carry_out[w].emplace_back(
            wp.lines[i],
            module_cell[static_cast<std::size_t>(rows[i].back())] - lo);
    }
  }

  std::vector<geom::StitchWindow> windows(n);
  for (std::size_t w = 0; w < n; ++w) {
    windows[w].geometry = &geoms[w];
    windows[w].carry_in = carry_in[w];
    windows[w].carry_out = carry_out[w];
  }
  geom::StitchOptions grid_on, grid_off;
  grid_off.use_grid = false;
  const geom::StitchResult a =
      geom::stitch_windows(windows, circuit.name(), grid_on);
  const geom::StitchResult b =
      geom::stitch_windows(windows, circuit.name(), grid_off);
  ASSERT_TRUE(a.ok()) << a.issues.front();
  ASSERT_TRUE(b.ok()) << b.issues.front();
  EXPECT_EQ(geom::to_json(a.geometry), geom::to_json(b.geometry));
  EXPECT_EQ(a.window_offsets, b.window_offsets);
  EXPECT_EQ(a.stitches, b.stitches);
  EXPECT_EQ(a.seam_cells, b.seam_cells);
  EXPECT_GT(a.grid_bytes, 0);  // the grid engine really carried the seams
  EXPECT_EQ(b.grid_bytes, 0);
}

}  // namespace
}  // namespace tqec
