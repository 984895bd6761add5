// perfbench_replay — input generator and traced layer-by-layer replay for
// the repository benchmark (perfbench/run.py; see perfbench/README.md).
//
//   perfbench_replay gen-paper <seed> <dir> <count> <row>...
//       write <dir>/<row>_<j>.icm, j < count, for each paper row, from
//       core::workload_spec(row, seed * count + j)
//   perfbench_replay gen-long <seed> <dir> <count> <data> <layers> <t> <c>
//       write <dir>/long_<j>.icm, j < count, layered long circuits
//       (icm::make_layered_workload, seed * count + j)
//   perfbench_replay gen-serve <seed> <dir> <count> <qubits> <gates>
//       write <dir>/r<i>.real, seeded random reversible circuits
//       (qcir::make_random_reversible)
//   perfbench_replay replay <out.json> <input>...
//       replay every .icm / .real input through the unsharded pipeline
//   perfbench_replay replay-long <out.json> <long.icm> <window> <ckdir>
//       replay the unsharded arm, the sharded arm window by window, and
//       the resume arm (core::compile_sharded reading <ckdir>)
//
// The replay calls each module's public functions in the order
// core::compile and core::compile_sharded call them, at the options the
// front ends use by default, and records one span around every call. The
// program's own tracing stays off. Spans, per-pass route rows, volumes and
// the correctness-oracle verdicts go to <out.json>; run.py aggregates them
// into the per-layer metrics and checks them against the CLI and server
// outputs of the same inputs.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "compress/dual_bridging.h"
#include "compress/flipping.h"
#include "compress/ishape.h"
#include "core/compiler.h"
#include "core/paper_tables.h"
#include "core/shard.h"
#include "decompose/decompose.h"
#include "geom/cell_grid.h"
#include "geom/stitch.h"
#include "geom/validate.h"
#include "icm/builder.h"
#include "icm/serialize.h"
#include "icm/workload.h"
#include "pdgraph/pd_graph.h"
#include "place/nodes.h"
#include "place/placer.h"
#include "qcir/generator.h"
#include "qcir/optimizer.h"
#include "qcir/revlib.h"
#include "route/router.h"
#include "verify/verifier.h"

namespace {

using namespace tqec;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

/// In-memory span recorder: every span has a name, the input it belongs
/// to, its parent, start and duration, and the work counts of its call.
class Tracer {
 public:
  struct Span {
    int id = 0;
    int parent = -1;
    std::string name;
    std::string input;
    std::int64_t start_ns = 0;
    std::int64_t dur_ns = 0;
    std::vector<std::pair<std::string, double>> counts;
  };

  /// RAII span: opened on construction, closed by end() or destruction.
  class Scope {
   public:
    Scope(Tracer& t, const std::string& name) : t_(t) {
      index_ = t_.spans_.size();
      Span s;
      s.id = static_cast<int>(index_);
      s.parent = t_.stack_.empty() ? -1 : t_.stack_.back();
      s.name = name;
      s.input = t_.input_;
      s.start_ns = t_.now_ns();
      t_.spans_.push_back(std::move(s));
      t_.stack_.push_back(static_cast<int>(index_));
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { end(); }

    void count(const std::string& key, double value) {
      t_.spans_[index_].counts.emplace_back(key, value);
    }
    void end() {
      if (ended_) return;
      ended_ = true;
      Span& s = t_.spans_[index_];
      s.dur_ns = t_.now_ns() - s.start_ns;
      t_.stack_.pop_back();
    }
    double seconds() const {
      return static_cast<double>(t_.spans_[index_].dur_ns) / 1e9;
    }

   private:
    Tracer& t_;
    std::size_t index_ = 0;
    bool ended_ = false;
  };

  void set_input(const std::string& input) { input_ = input; }
  const std::vector<Span>& spans() const { return spans_; }

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::string input_;
};

/// One place+route escalation level of core::compile (per-pass route
/// accounting: the failed y_gap=0 pass gets its own row).
struct PassRow {
  int y_gap = 0;
  double place_s = 0;
  double route_s = 0;
  std::int64_t pops = 0;
  std::int64_t pushes = 0;
  std::int64_t reroutes = 0;
  int iterations = 0;
  int overused = 0;
  bool legal = false;
};

/// The pipeline state core::compile builds for one circuit.
struct Pipeline {
  pdgraph::PdGraph graph;
  place::NodeSet nodes;
  compress::DualBridging dual{0};
  place::Placement placement;
  route::RoutingResult routing;
  geom::GeomDescription geometry;
  std::vector<PassRow> passes;
  int y_gap = 0;
};

/// core::compile at default CompileOptions (Full mode, jobs = 1,
/// place_restarts = 1, emit_geometry on) with `seed`, one span per call.
Pipeline run_pipeline(Tracer& tr, const icm::IcmCircuit& circuit,
                      std::uint64_t seed) {
  const core::CompileOptions o;
  Pipeline p;
  {
    Tracer::Scope s(tr, "pdgraph.build_pd_graph");
    p.graph = pdgraph::build_pd_graph(circuit);
    s.count("modules", p.graph.module_count());
  }
  compress::IshapeResult ishape(p.graph);
  {
    Tracer::Scope s(tr, "compress.simplify_ishape");
    ishape = compress::simplify_ishape(p.graph);
    s.count("merges", ishape.merge_count());
  }
  const int jobs = resolve_jobs(o.jobs);
  compress::PrimalBridging bridging;
  {
    Tracer::Scope s(tr, "compress.bridge_primal_best");
    compress::RestartReport report;
    bridging = compress::bridge_primal_best(p.graph, ishape, seed,
                                            o.primal_restarts, jobs, &report);
    s.count("bridges", bridging.bridge_count());
  }
  {
    Tracer::Scope s(tr, "compress.bridge_dual");
    p.dual = compress::bridge_dual(p.graph, ishape);
    s.count("bridges", p.dual.bridge_count());
    s.count("components", p.dual.component_count());
  }
  {
    Tracer::Scope s(tr, "place.build_nodes");
    p.nodes = place::build_nodes(p.graph, ishape, bridging, p.dual,
                                 o.plan_flips);
    s.count("nodes", p.nodes.node_count());
  }

  // One attempt (place_restarts = 1), warm-start chaining as in
  // core::compile: the attempt consumes an empty memory and exports its
  // own, which changes nothing for a single attempt but keeps the call
  // identical.
  const bool warm_chain = o.route.warm_start;
  const route::NegotiationMemory attempt_in;
  route::NegotiationMemory chained_memory;
  for (const int y_gap : {0, 1}) {
    Tracer::Scope pass(tr, "core.pass");
    pass.count("y_gap", y_gap);
    PassRow row;
    row.y_gap = y_gap;
    {
      Tracer::Scope s(tr, "place.place_modules");
      place::PlaceOptions place_opt = o.place;
      place_opt.seed = seed;
      place_opt.effort *= o.effort;
      place_opt.layer_y_gap = std::max(place_opt.layer_y_gap, y_gap);
      if (place_opt.threads == 0) place_opt.threads = jobs;
      p.placement = place::place_modules(p.nodes, place_opt);
      s.end();
      row.place_s = s.seconds();
      s.count("iterations", p.placement.iterations_run);
      s.count("moves", static_cast<double>(p.placement.moves_accepted) +
                           p.placement.moves_rejected);
      s.count("repacked_nodes",
              static_cast<double>(p.placement.repacked_nodes));
    }
    {
      Tracer::Scope s(tr, "route.route_nets");
      route::RouteOptions route_opt = o.route;
      route_opt.seed = seed;
      if (route_opt.threads == 0) route_opt.threads = jobs;
      p.routing = warm_chain
                      ? route::route_nets(p.nodes, p.placement, route_opt,
                                          &attempt_in, &chained_memory)
                      : route::route_nets(p.nodes, p.placement, route_opt);
      s.end();
      row.route_s = s.seconds();
      row.pops = p.routing.queue_pops;
      row.pushes = p.routing.queue_pushes;
      row.reroutes = p.routing.reroutes_total;
      row.iterations = p.routing.iterations;
      row.overused = p.routing.overused_cells;
      row.legal = p.routing.legal;
      s.count("pops", static_cast<double>(row.pops));
      s.count("pushes", static_cast<double>(row.pushes));
      s.count("reroutes", static_cast<double>(row.reroutes));
      s.count("iterations", row.iterations);
      s.count("legal", row.legal ? 1 : 0);
    }
    pass.count("legal", row.legal ? 1 : 0);
    p.passes.push_back(row);
    p.y_gap = y_gap;
    if (p.routing.legal) break;
  }
  {
    Tracer::Scope s(tr, "core.emit_geometry");
    p.geometry = core::emit_geometry(p.graph, p.nodes, p.placement,
                                     p.routing, circuit.name());
    s.count("segments", static_cast<double>(p.geometry.segment_count()));
  }
  {
    Tracer::Scope s(tr, "geom.build_occupancy");
    geom::GridBuildStats gstats;
    const geom::OccupancyGrid grid = geom::build_occupancy(p.geometry, &gstats);
    s.count("cells", static_cast<double>(grid.popcount(geom::kPrimalPlane) +
                                         grid.popcount(geom::kDualPlane)));
  }
  return p;
}

/// geom::validate in its own span; returns the issue count.
std::size_t traced_validate(Tracer& tr, const geom::GeomDescription& g) {
  Tracer::Scope s(tr, "geom.validate");
  const geom::ValidationReport vr = geom::validate(g);
  s.count("issues", static_cast<double>(vr.issues.size()));
  s.count("segments", static_cast<double>(g.segment_count()));
  return vr.issues.size();
}

/// Oracle on an unsharded output: geom::validate plus verify B1-B5.
std::string check_unsharded(Tracer& tr, Pipeline& p) {
  std::string problems;
  if (!p.routing.legal) problems += "routing illegal; ";
  if (const std::size_t n = traced_validate(tr, p.geometry); n > 0)
    problems += "validate: " + std::to_string(n) + " issue(s); ";
  Tracer::Scope s(tr, "verify.verify_design");
  verify::VerifyInputs in;
  in.graph = &p.graph;
  in.nodes = &p.nodes;
  in.placement = &p.placement;
  in.routing = &p.routing;
  in.dual = &p.dual;
  const verify::VerifyReport vr = verify::verify_design(in, p.geometry);
  s.count("issues", static_cast<double>(vr.issues.size()));
  if (!vr.ok()) problems += "verify: " + vr.summary() + "; ";
  return problems;
}

std::string passes_json(const std::vector<PassRow>& passes) {
  std::string out = "[";
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const PassRow& r = passes[i];
    if (i > 0) out += ", ";
    out += "{\"y_gap\": " + std::to_string(r.y_gap) +
           ", \"place_s\": " + json_num(r.place_s) +
           ", \"route_s\": " + json_num(r.route_s) +
           ", \"pops\": " + std::to_string(r.pops) +
           ", \"pushes\": " + std::to_string(r.pushes) +
           ", \"reroutes\": " + std::to_string(r.reroutes) +
           ", \"iterations\": " + std::to_string(r.iterations) +
           ", \"overused\": " + std::to_string(r.overused) +
           ", \"legal\": " + (r.legal ? "true" : "false") + "}";
  }
  return out + "]";
}

std::string spans_json(const Tracer& tr) {
  std::string out = "[";
  bool first = true;
  for (const Tracer::Span& s : tr.spans()) {
    if (!first) out += ",\n ";
    first = false;
    out += "{\"id\": " + std::to_string(s.id) +
           ", \"parent\": " + std::to_string(s.parent) +
           ", \"name\": " + json_str(s.name) +
           ", \"input\": " + json_str(s.input) +
           ", \"start_ns\": " + std::to_string(s.start_ns) +
           ", \"dur_ns\": " + std::to_string(s.dur_ns) + ", \"counts\": {";
    for (std::size_t i = 0; i < s.counts.size(); ++i) {
      if (i > 0) out += ", ";
      out += json_str(s.counts[i].first) + ": " + json_num(s.counts[i].second);
    }
    out += "}}";
  }
  return out + "]";
}

/// One replayed output, as compared against the front end's report.
struct OutputRecord {
  std::string input;
  std::string arm;  // "unsharded", "sharded" or "resume"
  std::int64_t volume = 0;
  int y_gap = -1;   // -1: not applicable (sharded arms)
  std::string problems;
  std::vector<PassRow> passes;
  std::string geometry_json_path;  // written for the sharded arms
};

bool write_report(const std::string& path, const Tracer& tr,
                  const std::vector<OutputRecord>& outputs, double wall_s) {
  std::string out = "{\"wall_s\": " + json_num(wall_s) + ", \"outputs\": [";
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    const OutputRecord& o = outputs[i];
    if (i > 0) out += ",\n ";
    out += "{\"input\": " + json_str(o.input) + ", \"arm\": " +
           json_str(o.arm) + ", \"volume\": " + std::to_string(o.volume) +
           ", \"y_gap\": " + std::to_string(o.y_gap) +
           ", \"problems\": " + json_str(o.problems) +
           ", \"geometry_json\": " + json_str(o.geometry_json_path) +
           ", \"passes\": " + passes_json(o.passes) + "}";
  }
  out += "],\n\"spans\": " + spans_json(tr) + "}\n";
  std::ofstream f(path, std::ios::binary);
  f << out;
  return static_cast<bool>(f);
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw TqecError("cannot read " + path);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

void write_file(const fs::path& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary);
  f << text;
  if (!f) throw TqecError("cannot write " + path.string());
}

std::string stem_of(const std::string& path) {
  return fs::path(path).stem().string();
}

/// The front end's input loader, in spans: .icm is parsed; .real goes
/// through the service's parse, peephole optimize, decompose and
/// Clifford+T -> ICM steps.
icm::IcmCircuit load_input(Tracer& tr, const std::string& path) {
  const std::string text = read_file(path);
  if (fs::path(path).extension() == ".icm") {
    Tracer::Scope s(tr, "icm.parse_icm");
    return icm::parse_icm_text(text);
  }
  qcir::Circuit reversible;
  {
    Tracer::Scope s(tr, "qcir.parse_real");
    reversible = qcir::parse_real_string(text, stem_of(path));
  }
  {
    Tracer::Scope s(tr, "qcir.optimize");
    reversible = qcir::optimize(reversible);
  }
  qcir::Circuit clifford;
  {
    Tracer::Scope s(tr, "decompose.decompose");
    clifford = decompose::decompose(reversible);
    s.count("gates", static_cast<double>(clifford.gates().size()));
  }
  Tracer::Scope s(tr, "icm.from_clifford_t");
  icm::IcmCircuit circuit = icm::from_clifford_t(clifford);
  s.count("lines", circuit.stats().qubits);
  return circuit;
}

int cmd_replay(const std::string& out_path,
               const std::vector<std::string>& inputs) {
  Tracer tr;
  const auto t0 = Clock::now();
  std::vector<OutputRecord> outputs;
  const core::CompileOptions defaults;
  for (const std::string& path : inputs) {
    const std::string name = stem_of(path);
    tr.set_input(name);
    Tracer::Scope root(tr, "input");
    OutputRecord rec;
    rec.input = name;
    rec.arm = "unsharded";
    // A pipeline error is an output of its own: recorded, and the replay
    // goes on with the next input.
    try {
      const icm::IcmCircuit circuit = load_input(tr, path);
      Pipeline p = run_pipeline(tr, circuit, defaults.seed);
      rec.volume = p.routing.volume;
      rec.y_gap = p.y_gap;
      rec.passes = p.passes;
      rec.problems = check_unsharded(tr, p);
    } catch (const std::exception& e) {
      rec.problems = std::string("error: ") + e.what();
    }
    outputs.push_back(std::move(rec));
  }
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - t0).count();
  return write_report(out_path, tr, outputs, wall_s) ? 0 : 1;
}

/// Per-window outcome the stitch consumes (mirrors core/shard.cpp).
struct WindowOut {
  bool legal = false;
  std::int64_t volume = 0;
  geom::GeomDescription geometry;
  std::vector<std::pair<int, Vec3>> carry_in;
  std::vector<std::pair<int, Vec3>> carry_out;
};

int cmd_replay_long(const std::string& out_path, const std::string& path,
                    int window, const std::string& ckdir) {
  Tracer tr;
  const auto t0 = Clock::now();
  std::vector<OutputRecord> outputs;
  const core::CompileOptions defaults;
  const std::string name = stem_of(path);
  tr.set_input(name);
  icm::IcmCircuit circuit;
  {
    Tracer::Scope s(tr, "input");
    circuit = load_input(tr, path);
  }

  // Unsharded arm.
  {
    Tracer::Scope root(tr, "arm.unsharded");
    OutputRecord rec;
    rec.input = name;
    rec.arm = "unsharded";
    try {
      Pipeline p = run_pipeline(tr, circuit, defaults.seed);
      rec.volume = p.routing.volume;
      rec.y_gap = p.y_gap;
      rec.passes = p.passes;
      rec.problems = check_unsharded(tr, p);
    } catch (const std::exception& e) {
      rec.problems = std::string("error: ") + e.what();
    }
    outputs.push_back(std::move(rec));
  }

  double validate_s = 0;
  const auto sharded_arms = [&] {
    // Sharded arm, window by window, as core::compile_sharded runs it.
    OutputRecord sharded;
    sharded.input = name;
    sharded.arm = "sharded";
    geom::GeomDescription stitched_geometry;
    {
      Tracer::Scope root(tr, "arm.sharded");
      core::ShardPlan plan;
      {
        Tracer::Scope s(tr, "shard.plan_windows");
        plan = core::plan_windows(circuit, window);
        s.count("windows", static_cast<double>(plan.windows.size()));
        s.count("crossings", plan.crossings);
      }
      const std::size_t n = plan.windows.size();
      std::vector<icm::IcmCircuit> window_circuits(n);
      for (std::size_t w = 0; w < n; ++w) {
        Tracer::Scope s(tr, "shard.extract_window");
        window_circuits[w] =
            core::extract_window(circuit, plan, static_cast<int>(w));
      }
      std::vector<std::uint64_t> seeds(n);
      seeds[0] = defaults.seed;
      std::uint64_t seed_state = defaults.seed;
      for (std::size_t w = 1; w < n; ++w) seeds[w] = splitmix64(seed_state);

      std::vector<WindowOut> outs(n);
      auto run_window = [&](std::size_t w, std::uint64_t seed) {
        Tracer::Scope s(tr, "shard.window");
        s.count("window", static_cast<double>(w));
        Pipeline p = run_pipeline(tr, window_circuits[w], seed);
        WindowOut o;
        o.legal = p.routing.legal;
        o.volume = p.routing.volume;
        for (const PassRow& r : p.passes) sharded.passes.push_back(r);
        const Box3 bb = p.geometry.bounding_box();
        const Vec3 lo = bb.empty() ? Vec3{0, 0, 0} : bb.lo;
        o.geometry = std::move(p.geometry);
        o.geometry.translate({-lo.x, -lo.y, -lo.z});
        const core::WindowPlan& wp = plan.windows[w];
        const auto& rows = p.graph.rows();
        const auto& module_cell = p.placement.module_cell;
        for (std::size_t i = 0; i < wp.lines.size(); ++i) {
          const auto& row = rows[i];
          if (wp.carry_in[i])
            o.carry_in.emplace_back(
                wp.lines[i],
                module_cell[static_cast<std::size_t>(row.front())] - lo);
          if (wp.carry_out[i])
            o.carry_out.emplace_back(
                wp.lines[i],
                module_cell[static_cast<std::size_t>(row.back())] - lo);
        }
        outs[w] = std::move(o);
      };
      {
        Tracer::Scope s(tr, "shard.windows");
        for (std::size_t w = 0; w < n; ++w) run_window(w, seeds[w]);
      }

      geom::StitchOptions sopt;
      sopt.seam_gap = core::ShardOptions{}.seam_gap;
      geom::StitchResult stitched;
      std::vector<int> reseeds(n, 0);
      constexpr int kMaxReseedsPerWindow = 3;
      int windows_reseeded = 0;
      {
        Tracer::Scope st(tr, "shard.stitch");
        for (;;) {
          std::vector<geom::StitchWindow> stitch_in(n);
          for (std::size_t w = 0; w < n; ++w) {
            stitch_in[w].geometry = &outs[w].geometry;
            stitch_in[w].carry_in = outs[w].carry_in;
            stitch_in[w].carry_out = outs[w].carry_out;
          }
          {
            Tracer::Scope s(tr, "geom.stitch_windows");
            stitched = geom::stitch_windows(stitch_in, circuit.name(), sopt);
            s.count("blocked", static_cast<double>(stitched.blocked.size()));
          }
          if (stitched.blocked.empty()) break;
          std::vector<int> blamed;
          for (const auto& b : stitched.blocked) blamed.push_back(b.window);
          std::sort(blamed.begin(), blamed.end());
          blamed.erase(std::unique(blamed.begin(), blamed.end()), blamed.end());
          bool progressed = false;
          for (const int w : blamed) {
            const auto wu = static_cast<std::size_t>(w);
            if (reseeds[wu] >= kMaxReseedsPerWindow) continue;
            ++reseeds[wu];
            ++windows_reseeded;
            std::uint64_t state = seeds[wu];
            std::uint64_t seed = 0;
            for (int i = 0; i < reseeds[wu]; ++i) seed = splitmix64(state);
            run_window(wu, seed);
            progressed = true;
          }
          if (!progressed) break;
        }
        st.count("seam_cells", static_cast<double>(stitched.seam_cells));
        st.count("stitches", stitched.stitches);
        st.count("windows_reseeded", windows_reseeded);
      }

      std::string problems;
      for (std::size_t w = 0; w < n; ++w)
        if (!outs[w].legal)
          problems += "window " + std::to_string(w) + " not legal; ";
      for (const std::string& issue : stitched.issues)
        problems += "stitch: " + issue + "; ";
      for (const icm::MeasOrder& o : plan.cross_order)
        if (plan.meas_window[static_cast<std::size_t>(o.before_line)] >
            plan.meas_window[static_cast<std::size_t>(o.after_line)])
          problems += "cross-window measurement order reversed; ";
      {
        Tracer::Scope s(tr, "shard.validate");
        if (const std::size_t k = traced_validate(tr, stitched.geometry);
            k > 0)
          problems += "validate: " + std::to_string(k) + " issue(s); ";
        s.end();
        validate_s = s.seconds();
      }
      {
        Tracer::Scope s(tr, "geom.build_occupancy");
        geom::GridBuildStats gstats;
        const geom::OccupancyGrid grid =
            geom::build_occupancy(stitched.geometry, &gstats);
        s.count("cells",
                static_cast<double>(grid.popcount(geom::kPrimalPlane) +
                                    grid.popcount(geom::kDualPlane)));
      }
      sharded.volume = stitched.geometry.volume();
      sharded.problems = problems;
      stitched_geometry = std::move(stitched.geometry);
    }
    sharded.geometry_json_path = out_path + ".sharded.json";
    write_file(sharded.geometry_json_path, geom::to_json(stitched_geometry));
    outputs.push_back(sharded);

    // Resume arm: core::compile_sharded reading the checkpoints the cold CLI
    // arm wrote. Its stitch time comes from the result; its validate time is
    // the replayed validate of the identical stitched geometry.
    OutputRecord resumed;
    resumed.input = name;
    resumed.arm = "resume";
    {
      Tracer::Scope root(tr, "arm.resume");
      core::ShardOptions shard;
      shard.window = window;
      shard.checkpoint_dir = ckdir;
      core::CompileResult r;
      {
        Tracer::Scope s(tr, "core.compile_sharded");
        r = core::compile_sharded(circuit, defaults, shard);
        s.end();
        s.count("windows_total", r.shard.windows_total);
        s.count("windows_resumed", r.shard.windows_resumed);
        s.count("stitch_s", r.shard.stitch_s);
        s.count("read_s", std::max(0.0, s.seconds() - r.shard.stitch_s -
                                            validate_s));
      }
      resumed.volume = r.volume;
      if (!r.routed_legal) resumed.problems += "resumed result not legal; ";
      if (r.shard.windows_resumed != r.shard.windows_total)
        resumed.problems += "only " + std::to_string(r.shard.windows_resumed) +
                            " of " + std::to_string(r.shard.windows_total) +
                            " windows resumed; ";
      resumed.geometry_json_path = out_path + ".resume.json";
      write_file(resumed.geometry_json_path, geom::to_json(r.geometry));
    }
    outputs.push_back(resumed);
  };
  try {
    sharded_arms();
  } catch (const std::exception& e) {
    OutputRecord rec;
    rec.input = name;
    rec.arm = "sharded";
    rec.problems = std::string("error: ") + e.what();
    outputs.push_back(std::move(rec));
  }

  const double wall_s =
      std::chrono::duration<double>(Clock::now() - t0).count();
  return write_report(out_path, tr, outputs, wall_s) ? 0 : 1;
}

// Instance j of a generator that makes `count` inputs from `seed` uses
// workload seed seed * count + j, so distinct seeds never share an input.
std::uint64_t instance_seed(std::uint64_t seed, int count, int j) {
  return seed * static_cast<std::uint64_t>(count) +
         static_cast<std::uint64_t>(j);
}

int cmd_gen_paper(std::uint64_t seed, const fs::path& dir, int count,
                  const std::vector<std::string>& rows) {
  for (const std::string& row : rows) {
    const core::PaperBenchmark& bench = core::paper_benchmark(row);
    for (int j = 0; j < count; ++j)
      icm::write_icm_file(
          icm::make_workload(
              core::workload_spec(bench, instance_seed(seed, count, j))),
          (dir / (row + "_" + std::to_string(j) + ".icm")).string());
  }
  return 0;
}

int cmd_gen_long(std::uint64_t seed, const fs::path& dir, int count,
                 int data, int layers, int t, int c) {
  for (int j = 0; j < count; ++j) {
    icm::LayeredWorkloadSpec spec;
    spec.seed = instance_seed(seed, count, j);
    spec.name = "long_" + std::to_string(data) + "x" +
                std::to_string(layers) + "_t" + std::to_string(t) + "_c" +
                std::to_string(c) + "_s" + std::to_string(spec.seed);
    spec.data_lines = data;
    spec.layers = layers;
    spec.t_per_layer = t;
    spec.cnots_per_layer = c;
    icm::write_icm_file(icm::make_layered_workload(spec),
                        (dir / ("long_" + std::to_string(j) + ".icm"))
                            .string());
  }
  return 0;
}

int cmd_gen_serve(std::uint64_t seed, const fs::path& dir, int count,
                  int qubits, int gates) {
  std::uint64_t state = seed;
  for (int i = 0; i < count; ++i) {
    qcir::RandomReversibleSpec spec;
    spec.num_qubits = qubits;
    spec.num_gates = gates;
    spec.seed = splitmix64(state);
    write_file(dir / ("r" + std::to_string(i) + ".real"),
               qcir::write_real(qcir::make_random_reversible(spec)));
  }
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_replay gen-paper <seed> <dir> <count> "
               "<row>...\n"
               "       perfbench_replay gen-long <seed> <dir> <count> <data> "
               "<layers> <t> <c>\n"
               "       perfbench_replay gen-serve <seed> <dir> <count> "
               "<qubits> <gates>\n"
               "       perfbench_replay replay <out.json> <input>...\n"
               "       perfbench_replay replay-long <out.json> <long.icm> "
               "<window> <checkpoint_dir>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage();
  try {
    const std::string& cmd = args[0];
    if (cmd == "gen-paper" && args.size() >= 5)
      return cmd_gen_paper(std::stoull(args[1]), args[2], std::stoi(args[3]),
                           {args.begin() + 4, args.end()});
    if (cmd == "gen-long" && args.size() == 8)
      return cmd_gen_long(std::stoull(args[1]), args[2], std::stoi(args[3]),
                          std::stoi(args[4]), std::stoi(args[5]),
                          std::stoi(args[6]), std::stoi(args[7]));
    if (cmd == "gen-serve" && args.size() == 6)
      return cmd_gen_serve(std::stoull(args[1]), args[2], std::stoi(args[3]),
                           std::stoi(args[4]), std::stoi(args[5]));
    if (cmd == "replay" && args.size() >= 3)
      return cmd_replay(args[1], {args.begin() + 2, args.end()});
    if (cmd == "replay-long" && args.size() == 5)
      return cmd_replay_long(args[1], args[2], std::stoi(args[3]), args[4]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_replay: %s\n", e.what());
    return 1;
  }
  return usage();
}
