// Dual-defect net routing (paper Sec. 3.6): A*-search within restricted
// regions plus PathFinder-style negotiated congestion rip-up-and-reroute
// (McMurchie & Ebeling, FPGA'95).
//
// The routing fabric is the lattice-cell grid spanning the placement core
// plus a margin. Obstacles:
//   - distillation-box extents (no defect may enter a box, validator V5);
//   - every primal module cell that is NOT a pin of the net being routed —
//     a dual defect sharing a cell with a primal module is exactly what
//     "threading that module's loop" means in the plumbing-cell model, so
//     passing through an unrelated module would add a spurious braid.
// Capacity: one dual net per cell (disjoint dual defects must occupy
// distinct cells, validator V3). Congestion is negotiated: overused cells
// get growing present- and history-cost until every net is legally routed.
//
// Each merged net component is routed as a Steiner tree: pins are connected
// one at a time by A* toward the partially built tree (admissible heuristic:
// Manhattan distance to the tree's bounding box).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/error.h"
#include "place/nodes.h"
#include "place/placer.h"

namespace tqec::route {

namespace detail {

/// Occupancy-counter update for the routing fabric's uint16 usage/capacity
/// arrays. A plain cast would wrap a negative result to 65535 (a cell that
/// looks maximally used is never chosen) or wrap a saturated counter to 0
/// (a maximally pinned module suddenly looks free and negotiation
/// deadlocks on phantom capacity); assert on both ends and clamp as
/// defense in depth.
inline std::uint16_t counter_add(std::uint16_t value, int delta) {
  const int next = static_cast<int>(value) + delta;
  TQEC_ASSERT(next >= 0, "routing-fabric counter underflow");
  TQEC_ASSERT(next <= 65535, "routing-fabric counter overflow");
  return static_cast<std::uint16_t>(std::clamp(next, 0, 65535));
}

}  // namespace detail

struct RouteOptions {
  std::uint64_t seed = 1;
  /// Free cells added around the placement core on every side.
  int margin = 4;
  /// Maximum PathFinder iterations before giving up.
  int max_iterations = 40;
  /// History cost added to each overused cell per iteration.
  double history_increment = 1.0;
  /// Present-congestion multiplier; grows by `present_growth` per iteration,
  /// clamped at `present_max` (unbounded growth reaches inf, making every
  /// congested cell's cost equal and stalling negotiation).
  double present_base = 2.0;
  double present_growth = 1.6;
  double present_max = 1e9;
  /// Incremental rip-up-and-reroute: from iteration 2 onward only nets that
  /// occupy at least one overused cell are rerouted (in the same
  /// deterministic net order as a full sweep), falling back to a full sweep
  /// when the overused-cell count stalls (at most kStallSweeps times).
  /// Test-only hook: false forces the classic full rip-up of every net on
  /// every iteration, the reference the incremental schedule is checked
  /// against (route_property_test, RepairTest). No front end exposes it.
  bool incremental = true;
  /// Initial half-width of the restricted search region around a
  /// connection's bounding box; grows when a connection fails.
  int region_margin = 6;
  /// Worker threads for the batched negotiation schedule (CLI
  /// `--route-threads`). Results are bit-identical for any value: batch
  /// composition, commit order, and conflict decisions are pure functions
  /// of the deterministic net order, never of the worker count. 0 = let
  /// the caller decide (core::compile divides its `--jobs` budget across
  /// concurrent place+route attempts; plain route_nets treats 0 as 1).
  int threads = 0;
  /// Obstacle-aware A* lookahead: one global labeling of the fabric's
  /// free-space components (around distillation boxes and module walls)
  /// plus each net's reachable-label set. Searches fail doomed connects
  /// with one lookup instead of flooding their region. Pruning only
  /// removes provably dead work — pop order, g-values, and tie-breaking of
  /// the live search are untouched — so routes are bit-identical either
  /// way (DESIGN.md §Routing gives the argument). Test-only hook: false is
  /// the reference the lookahead on/off test compares against. No front
  /// end exposes it.
  bool lookahead = true;
  /// Warm-start negotiation across core::compile's restart attempts (CLI
  /// `--route-warm-start`): carry PathFinder history costs and final route
  /// windows from one attempt into the next via NegotiationMemory.
  bool warm_start = true;
  /// Fail fast once a negotiation is recognizably doomed (see
  /// abandon_trigger): skip the remaining iterations and the hard-block
  /// repair and return legal=false with `abandoned_by` set. Off by default,
  /// so a plain route_nets call always runs to completion; core::compile
  /// switches it on for its y_gap = 0 whitespace-escalation level only
  /// (CompileOptions::abandon_plateaued_levels).
  bool abandon_at_plateau = false;
};

/// Budget of stall-triggered full-sweep fallbacks per negotiation run. The
/// first sweeps after a stall regularly shake out another contested cell
/// or two, but a negotiation still stuck after two of them essentially
/// never recovers by sweeping more — it needs hard-block repair or a
/// whitespace escalation — while every extra sweep rips up and reroutes
/// all nets. Once the budget is spent, stalls keep rerouting only the
/// contested subset until the stall abort ends the run. Converging runs
/// never stall, so the budget cannot change their result.
inline constexpr int kStallSweeps = 2;

/// Overused-cell count at or above which a pass that plateaus is given up
/// (RouteOptions::abandon_at_plateau). Measured margin on the
/// bench/escalation_corpus set: no pass that converges first plateaus
/// above 6 cells, while the failing y_gap=0 passes the rule catches
/// plateau at 10-28.
inline constexpr int kAbandonOverused = 10;

/// Iteration-2 contraction trigger: a pass still holding at least
/// kContractionOverused overused cells after iteration 2, and at least
/// kContractionPercent % of its iteration-1 count, is given up there.
/// Measured margin on the bench/escalation_corpus full set: no converging
/// y_gap=0 pass holds more than 56 cells after iteration 2, while the
/// failing passes the trigger catches hold 121-360 (the seed-7 paper rows
/// keep 17-27 % of their iteration-1 count). The percentage keeps the
/// rule scale-safe: a large pass can hold more than 100 cells after
/// iteration 2 and still converge (ham15_107's y_gap=1 pass reads 1506,
/// 81 — 5.4 %). The floor stays above 85 so that a failing pass such as
/// rd84_142's (350, 85, ...) is left to its plateau.
inline constexpr int kContractionOverused = 100;
inline constexpr int kContractionPercent = 12;

/// Which fail-fast trigger gave a pass up (RoutingResult::abandoned_by).
enum class AbandonTrigger : std::uint8_t {
  None,
  Contraction,  // still heavily overused after iteration 2
  Plateau,      // first congestion plateau at kAbandonOverused or more
};

/// "contraction", "plateau", or "none".
const char* abandon_trigger_name(AbandonTrigger trigger);

/// The fail-fast decision on a negotiation's overused-cell series so far
/// (one entry per finished iteration); None unless `may_abandon` is set.
///   - Contraction: the series has exactly two entries and the second
///     keeps at least kContractionOverused cells and at least
///     kContractionPercent % of the first.
///   - Plateau: the last iteration is the series' first that did not
///     reduce the overused count — the point where the negotiation would
///     start its stall-triggered full sweeps — with at least
///     kAbandonOverused cells still overused.
/// A pure function, so recorded series can be replayed.
AbandonTrigger abandon_trigger(const std::vector<int>& overused_per_iter,
                               bool may_abandon);

/// Negotiation state carried between route_nets calls (core::compile's
/// multi-seed restart loop): decayed PathFinder history costs addressed by
/// absolute fabric coordinates, plus each component's final route window
/// encoded as per-face slack beyond its pin bounding box (kNeighbours face
/// order: +x,-x,+y,-y,+z,-z). slack[0] == -1 marks a component that had no
/// routed cells. A default-constructed memory (valid == false) warms
/// nothing; route_nets never reads placement-specific indices from it —
/// only absolute coordinates intersected with the new fabric box — so it
/// is safe to replay against a different placement.
struct NegotiationMemory {
  bool valid = false;
  Box3 fabric_box;
  std::vector<float> history;
  std::vector<std::array<int, 6>> window_slack;
};

struct RoutedNet {
  int component = -1;  // index into NodeSet::net_pins
  std::vector<Vec3> cells;  // all cells of the routed tree (pins included)
};

struct RoutingResult {
  std::vector<RoutedNet> nets;
  bool legal = false;
  /// Not None when the pass gave up early
  /// (RouteOptions::abandon_at_plateau): the trigger that fired; legal is
  /// false and no hard-block repair ran.
  AbandonTrigger abandoned_by = AbandonTrigger::None;
  /// Some component could not be connected even by a search over the
  /// whole fabric (obstacles and module cells cut a pin off); legal is
  /// false, the component has no cells, and no hard-block repair ran.
  bool unroutable = false;
  int iterations = 0;
  int overused_cells = 0;
  std::int64_t total_wire = 0;  // summed route cells
  /// Bounding box over placement core and all routed cells.
  Box3 bounding;
  std::int64_t volume = 0;

  // PathFinder observability (serialized via core::stats_json).
  /// Nets ripped up and rerouted in each negotiation iteration; the first
  /// entry always equals the component count (iteration 1 routes all).
  std::vector<int> reroutes_per_iter;
  std::int64_t reroutes_total = 0;
  /// Iterations that rerouted every net (iteration 1 plus stall fallbacks).
  int full_sweeps = 0;
  /// A*-queue traffic summed over all searches (negotiation + repair).
  std::int64_t queue_pushes = 0;
  std::int64_t queue_pops = 0;
  /// Hard-block repair outcomes: contested cells awarded to one net vs.
  /// cells where every candidate winner failed (left honestly overused).
  int repair_awarded = 0;
  int repair_failed = 0;
  /// Present-congestion factor after the last negotiation iteration
  /// (clamped at RouteOptions::present_max, hence always finite).
  double present_factor_final = 0;

  // Batched-negotiation observability (see net_batcher.h). All three are
  // pure functions of the schedule, not of the worker count, so they are
  // identical for any --route-threads value.
  /// Disjoint-region batches committed across all negotiation iterations
  /// (requeued conflict reroutes count one batch each).
  int batches = 0;
  /// Nets requeued because their committed path collided with a cell an
  /// earlier commit of the same batch had just filled to capacity (a
  /// search that escaped its declared region through the failure-inflated
  /// retries).
  int conflicts_requeued = 0;
  /// Mean nets per batch: the spatial parallelism the batcher exposed, an
  /// upper bound on the speedup any worker count can realize.
  double parallel_efficiency = 0;

  // Lookahead / warm-window observability. Like the stats above, all of
  // these are summed per component in deterministic component order, so
  // they are identical for any --route-threads value.
  /// Components whose searches used the obstacle-aware lookahead at least
  /// once (0 when RouteOptions::lookahead is off).
  int lookahead_nets = 0;
  /// Warm-window connect attempts that succeeded within the previous
  /// route's bounding box vs. fell through to the classic margin ladder.
  std::int64_t window_hits = 0;
  std::int64_t window_misses = 0;
  /// Whether this run consumed a valid NegotiationMemory.
  bool warm_started = false;

  // Congestion observability (always computed; one O(cells) pass at the
  // end of routing, serialized via core::stats_json and rendered by
  // tools/tqec_report).
  /// Overused-cell count after each negotiation iteration (same indexing
  /// as reroutes_per_iter; the last entry of a legal route is 0).
  std::vector<int> overused_per_iter;
  /// congestion_histogram[u] = number of fabric cells with final usage u
  /// (index 0 counts the free cells).
  std::vector<std::int64_t> congestion_histogram;
  /// The most-used fabric cells (highest usage first, ties by cell index),
  /// capped at 16 — the report tool's "congestion top-K".
  struct HotCell {
    Vec3 cell;
    int usage = 0;
    int capacity = 0;
  };
  std::vector<HotCell> hottest_cells;
  /// Top-down text heatmap: one row per z, one column per x, each char the
  /// max usage over y ('.' free, '1'-'9', '#' above 9). Empty when the
  /// fabric footprint exceeds 160x100 cells.
  std::string congestion_heatmap;
};

/// Route all merged dual-net components of a placed design.
RoutingResult route_nets(const place::NodeSet& nodes,
                         const place::Placement& placement,
                         const RouteOptions& options);

/// Warm-startable variant: when `warm` is non-null, valid, and
/// options.warm_start is set, the run seeds its history costs and initial
/// per-net windows from it; when `memory_out` is non-null the run's final
/// negotiation state is exported for the next attempt. Either pointer may
/// be null (the plain overload passes both as null).
RoutingResult route_nets(const place::NodeSet& nodes,
                         const place::Placement& placement,
                         const RouteOptions& options,
                         const NegotiationMemory* warm,
                         NegotiationMemory* memory_out);

}  // namespace tqec::route
