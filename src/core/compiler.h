// Top-level TQEC circuit compression pipeline (paper Fig. 5).
//
// Orchestrates the seven stages on an ICM circuit:
//   (1) preprocess / gate decomposition happens upstream (decompose + icm);
//   (2) PD-graph generation, (3) I-shaped simplification, (4) flipping /
//   primal bridging, (5) iterative dual bridging, (6) 2.5D module
//   placement, (7) dual-defect net routing — and emits the final 3D
//   geometric description with its space-time volume.
//
// Three pipeline modes select how much of the paper's contribution runs:
//   Full        — the paper's algorithm (primal + dual bridging).
//   DualOnly    — the [Hsu DAC'21] baseline: dual bridging on the raw
//                 module records, every module its own placement node.
//   ModularOnly — modularization + placement + routing with no bridging at
//                 all (the "topological deformation only" point of Fig. 1).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/trace.h"
#include "compress/dual_bridging.h"
#include "compress/flipping.h"
#include "compress/ishape.h"
#include "geom/geometry.h"
#include "icm/icm.h"
#include "pdgraph/pd_graph.h"
#include "place/placer.h"
#include "route/router.h"

namespace tqec::core {

enum class PipelineMode : std::uint8_t { Full, DualOnly, ModularOnly };

struct CompileOptions {
  PipelineMode mode = PipelineMode::Full;
  std::uint64_t seed = 7;
  /// Multiplier on the SA iteration budget (and other effort knobs).
  double effort = 1.0;
  /// f-value dual-segment planning (eq. 5); disable for the Fig. 15
  /// "no planning" ablation.
  bool plan_flips = true;
  /// Fine-grained stage ablations (Full mode only): individually disable
  /// I-shaped simplification, primal bridging (chains + super-modules), or
  /// iterative dual bridging.
  bool enable_ishape = true;
  bool enable_primal = true;
  bool enable_dual = true;
  /// Greedy primal-bridging restarts (best-of-N chain covers; the greedy
  /// start is randomized per the paper, so restarts escape bad starts).
  int primal_restarts = 4;
  /// Independent place+route attempts with derived seeds (best legal
  /// result wins by (volume, attempt index) — a total order, so the
  /// outcome is identical for any `jobs` value). Attempt 0 uses `seed`
  /// itself, so the default reproduces the single-attempt pipeline.
  int place_restarts = 1;
  /// Worker threads for the parallel stages (primal-bridging restarts and
  /// place+route attempts). 1 = sequential; 0 or negative = one per
  /// hardware thread. Never changes results, only wall-clock.
  int jobs = 1;
  /// Validate and keep the emitted geometric description (adds memory and
  /// time on the largest benchmarks; tables only need the volume).
  bool emit_geometry = true;
  /// Retain the intermediate pipeline structures (PD graph, placement
  /// nodes, merged-net components) on the result, enabling end-to-end
  /// verification via verify::verify_result().
  bool keep_internals = false;
  /// Cooperative cancellation: compile() polls this token at stage
  /// boundaries (and between place+route attempts / whitespace
  /// escalations) and raises CancelledError when it fires. The default
  /// token never fires. cancel() may be called from any thread.
  CancelToken cancel;
  /// Stage-boundary progress callback, invoked on the thread that called
  /// compile() with the name of the stage about to run ("pd_graph",
  /// "ishape", "primal_bridge", "dual_bridge", "place_route",
  /// "emit_geometry", "done") — the same boundaries the trace spans mark.
  /// Must not throw; may call cancel.cancel() (a deadline watchdog does).
  std::function<void(const char* stage)> progress;
  /// Let the y_gap = 0 whitespace-escalation level give up once its
  /// negotiation is recognizably doomed — still heavily overused after
  /// iteration 2, or at its first congestion plateau
  /// (route::RouteOptions::abandon_at_plateau) — instead of negotiating
  /// and repairing to the end before escalating. The later
  /// levels always run to completion, and compile() overrides
  /// route.abandon_at_plateau per level from this field.
  bool abandon_plateaued_levels = true;
  place::PlaceOptions place;
  route::RouteOptions route;
};

/// How one whitespace-escalation level of an attempt ended.
enum class PassOutcome : std::uint8_t {
  Legal,
  Illegal,
  Abandoned,   // gave up early (PassStats::abandoned_by names the trigger)
  Unroutable,  // a pin was cut off from its net (route::RoutingResult)
};

const char* pass_outcome_name(PassOutcome outcome);

/// Observability record of one whitespace-escalation level (one place +
/// route pass) of an attempt.
struct PassStats {
  int y_gap = 0;
  double place_s = 0;
  double route_s = 0;
  int iterations = 0;
  std::vector<int> overused_per_iter;
  std::int64_t queue_pops = 0;
  std::int64_t queue_pushes = 0;
  PassOutcome outcome = PassOutcome::Illegal;
  route::AbandonTrigger abandoned_by = route::AbandonTrigger::None;
};

/// Observability record of one place+route attempt of the multi-seed
/// outer loop (CompileOptions::place_restarts).
struct PlaceAttemptStats {
  std::uint64_t seed = 0;
  std::int64_t volume = 0;
  bool legal = false;
  bool selected = false;  // this attempt produced the final result
  int y_gap = 0;          // whitespace-escalation level that finished it
  double place_s = 0;     // summed over `passes`
  double route_s = 0;     // summed over `passes`
  /// Every whitespace-escalation level run, in order (the last one
  /// finished the attempt).
  std::vector<PassStats> passes;
  int sa_iterations = 0;
  int sa_accepted = 0;
  int sa_rejected = 0;
  /// SA engine observability (see place::Placement): parallel-tempering
  /// schedule counters and the incremental-packing work metric. The
  /// moves/sec rate is timing-derived (not deterministic); everything else
  /// is bit-reproducible.
  int sa_replicas = 1;
  int sa_selected_replica = 0;
  std::int64_t sa_repacked_nodes = 0;
  std::int64_t sa_exchanges_attempted = 0;
  std::int64_t sa_exchanges_accepted = 0;
  double sa_moves_per_sec = 0;
  int route_iterations = 0;
  int route_overused = 0;
  /// PathFinder observability (final routing of the attempt): nets ripped
  /// up + rerouted per negotiation iteration and in total, iterations that
  /// swept every net, A*-queue traffic, and hard-block repair outcomes.
  std::vector<int> route_reroutes_per_iter;
  std::int64_t route_reroutes = 0;
  int route_full_sweeps = 0;
  std::int64_t route_queue_pushes = 0;
  std::int64_t route_queue_pops = 0;
  int route_repair_awarded = 0;
  int route_repair_failed = 0;
  /// Batched-negotiation schedule observability: disjoint-region batches
  /// committed, conflict requeues, and mean nets per batch (all pure
  /// functions of the schedule, identical for any --route-threads value).
  int route_batches = 0;
  int route_conflicts_requeued = 0;
  double route_parallel_efficiency = 0;
  /// Lookahead / warm-window / warm-start observability: components whose
  /// searches used the obstacle-aware lookahead, warm-window first-attempt
  /// hits vs. ladder fallbacks, and whether this attempt consumed the
  /// previous attempt's NegotiationMemory (--route-warm-start).
  int route_lookahead_nets = 0;
  std::int64_t route_window_hits = 0;
  std::int64_t route_window_misses = 0;
  bool route_warm_started = false;
  /// SA convergence curve of the attempt's (final) placement, one sample
  /// per temperature batch.
  std::vector<place::SaSample> sa_curve;
  /// Convergence curves of every tempering replica, indexed by ladder
  /// position (sa_replica_curves[sa_selected_replica] == sa_curve).
  std::vector<std::vector<place::SaSample>> sa_replica_curves;
  /// Overused-cell count after each PathFinder negotiation iteration.
  std::vector<int> route_overused_per_iter;
};

/// Per-stage observability report. The scalar *_s fields time the pipeline
/// stages (for place/route: the *selected* attempt, summed over its
/// whitespace escalations); the vectors break the parallel stages down
/// per restart/attempt. Serializable via stats_json().
struct StageTimings {
  double pd_graph_s = 0;
  double ishape_s = 0;
  double primal_bridge_s = 0;
  double dual_bridge_s = 0;
  double place_s = 0;
  double route_s = 0;
  /// Wall-clock of the whole multi-seed place+route stage (all attempts).
  double place_route_wall_s = 0;
  double total_s = 0;
  /// Per-restart greedy primal-bridging breakdown (Full mode only).
  compress::RestartReport primal_restarts;
  /// One entry per place+route attempt, in attempt order.
  std::vector<PlaceAttemptStats> attempts;
};

/// Intermediate pipeline structures, kept when
/// CompileOptions::keep_internals is set.
struct PipelineInternals {
  pdgraph::PdGraph graph;
  place::NodeSet nodes;
  compress::DualBridging dual{0};
};

/// Stage-cache observability for one request, filled in by the
/// tqec::Compiler facade (core::compile itself never touches the cache).
/// Per-stage outcomes are "hit", "miss", or "skip" (stage not run for this
/// input kind — e.g. an .icm request needs no decompose); the counters are
/// the cache-wide cumulative totals at response time.
struct CacheUsage {
  bool enabled = false;
  std::string decompose = "skip";
  std::string icm = "skip";
  std::string pd_graph = "skip";
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t entries = 0;
  std::int64_t bytes = 0;
  std::int64_t budget = 0;
  std::int64_t evictions = 0;
};

/// Geometry-engine observability (geom/cell_grid.h): occupancy-grid build
/// cost and footprint for the emitted geometry, the exact deduplicated
/// cell count from the grid's population count, and the segment-arena
/// size. All zero when CompileOptions::emit_geometry is off.
struct GeomStats {
  double grid_build_s = 0;       // occupancy-grid rasterization wall clock
  std::int64_t grid_bytes = 0;   // grid footprint (dense words or intervals)
  std::int64_t exact_cells = 0;  // population count over both sublattices
  std::int64_t segments = 0;     // segment-arena entries
  std::int64_t arena_bytes = 0;  // arena + defect-record heap bytes
};

/// Observability record of a time-axis sharded compile (core/shard.h).
/// Default-constructed (enabled == false) on unsharded results.
struct ShardStats {
  bool enabled = false;
  int window = 0;           // --shard-window layer budget
  int threads = 1;          // window workers used
  int windows_total = 0;
  int windows_resumed = 0;  // loaded from checkpoint instead of compiled
  int windows_reseeded = 0;  // recompiled with a retry seed (blocked seam)
  int crossings = 0;        // line/cut crossings over all seams
  int stitches = 0;         // seam paths carved
  std::int64_t seam_cells = 0;
  /// Chosen cut boundaries (first ASAP layer of each window after the
  /// first).
  std::vector<int> cut_layers;
  /// Final volume of each window's geometry, in window order.
  std::vector<std::int64_t> window_volumes;
  double stitch_s = 0;
  /// geom::validate of the stitched geometry.
  double validate_s = 0;
  /// Seam / window failures (empty on a fully legal sharded result).
  std::vector<std::string> issues;
};

struct CompileResult {
  std::string name;
  icm::IcmStats stats;

  // Compression statistics (paper Table 1).
  int modules = 0;          // #Modules: PD-graph modules
  int nodes = 0;            // #Nodes: 2.5D B*-tree nodes after bridging
  int ishape_merges = 0;
  int primal_bridges = 0;
  int dual_bridges = 0;
  int net_components = 0;

  std::int64_t canonical_volume = 0;
  place::Placement placement;
  route::RoutingResult routing;
  /// Final space-time volume (#x * #y * #z of the routed design).
  std::int64_t volume = 0;
  bool routed_legal = false;

  /// Emitted final geometry (empty when emit_geometry is off).
  geom::GeomDescription geometry;

  /// Intermediate structures (null unless keep_internals was set).
  std::shared_ptr<PipelineInternals> internals;

  StageTimings timings;

  /// Stage-cache usage of the request that produced this result (default:
  /// caching disabled — the single-shot CLI path).
  CacheUsage cache;

  /// Time-axis sharding observability (enabled == false unless the result
  /// came from core::compile_sharded).
  ShardStats shard;

  /// Geometry-engine observability of `geometry` (zero when emit_geometry
  /// was off).
  GeomStats geom;

  /// Process peak RSS in bytes, sampled when the result was assembled
  /// (0 where the platform offers no probe — see trace::peak_rss_bytes).
  std::uint64_t peak_rss_bytes = 0;

  /// Snapshot of the trace metrics registry taken at the end of this
  /// compile (empty unless tracing was enabled — see common/trace.h).
  /// Embedded in stats_json so the report is a pure function of the
  /// result.
  trace::MetricsSnapshot metrics;
};

/// Run the compression pipeline on an ICM circuit.
///
/// `prebuilt_graph`, when non-null, must be build_pd_graph(circuit) (the
/// stage is deterministic, so the tqec::Compiler facade can supply a
/// cached copy); compile() then skips stage 2 entirely — no pdgraph.build
/// span, pd_graph_s stays 0 — and every downstream result is bit-identical
/// to the self-built path. Raises CancelledError if options.cancel fires.
CompileResult compile(const icm::IcmCircuit& circuit,
                      const CompileOptions& options = {},
                      const pdgraph::PdGraph* prebuilt_graph = nullptr);

/// Emit the final geometric description of a placed-and-routed design.
geom::GeomDescription emit_geometry(const pdgraph::PdGraph& graph,
                                    const place::NodeSet& nodes,
                                    const place::Placement& placement,
                                    const route::RoutingResult& routing,
                                    const std::string& name);

/// Append one segment per maximal collinear x-run of `cells` to the
/// defect; duplicate input cells collapse. Exposed for testing.
void emit_cell_runs(geom::Defect& defect, std::vector<Vec3> cells);

/// Serialize a compile result's statistics and per-stage observability
/// report as JSON (format v2): scalar stats and stage timings, the
/// per-restart and per-attempt breakdowns with their SA convergence and
/// PathFinder time-series, the selected attempt's congestion census
/// (histogram, top-K hottest cells, text heatmap), and the trace metrics
/// registry snapshot. tools/tqec_report renders this into a run report.
std::string stats_json(const CompileResult& result);

}  // namespace tqec::core
