// Integration tests for the full compression pipeline: the paper's worked
// example, end-to-end legality and geometry validity, braiding
// preservation through routing, determinism, and mode comparisons.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/json.h"
#include "common/trace.h"
#include "compress/dual_bridging.h"
#include "core/compiler.h"
#include "core/paper_tables.h"
#include "geom/canonical.h"
#include "geom/geometry.h"
#include "geom/validate.h"
#include "icm/workload.h"

namespace tqec::core {
namespace {

CompileResult compile_mode(const icm::IcmCircuit& circuit, PipelineMode mode,
                           std::uint64_t seed = 7) {
  CompileOptions opt;
  opt.mode = mode;
  opt.seed = seed;
  return compile(circuit, opt);
}

TEST(Fig1Test, CanonicalVolumeIs54) {
  const icm::IcmCircuit circuit = three_cnot_example();
  EXPECT_EQ(geom::canonical_volume(circuit.stats()), 54);
}

TEST(Fig1Test, FullPipelineReachesVolume6) {
  const CompileResult r =
      compile_mode(three_cnot_example(), PipelineMode::Full);
  EXPECT_EQ(r.volume, 6);  // paper Fig. 1(e): 2 x 1 x 3
  EXPECT_TRUE(r.routed_legal);
  EXPECT_TRUE(geom::validate(r.geometry).ok());
}

TEST(Fig1Test, ProgressionIsMonotone) {
  const icm::IcmCircuit circuit = three_cnot_example();
  const auto modular = compile_mode(circuit, PipelineMode::ModularOnly);
  const auto dual_only = compile_mode(circuit, PipelineMode::DualOnly);
  const auto full = compile_mode(circuit, PipelineMode::Full);
  EXPECT_LE(full.volume, dual_only.volume);
  EXPECT_LE(dual_only.volume, modular.volume);
  EXPECT_LT(modular.volume, 54);
}

TEST(CompileTest, ReportsStageStatistics) {
  const CompileResult r =
      compile_mode(three_cnot_example(), PipelineMode::Full);
  EXPECT_EQ(r.modules, 6);
  EXPECT_EQ(r.ishape_merges, 3);
  EXPECT_EQ(r.primal_bridges, 2);
  EXPECT_EQ(r.dual_bridges, 1);
  EXPECT_EQ(r.net_components, 2);
  EXPECT_EQ(r.nodes, 1);  // everything in one primal-bridging super-module
  EXPECT_EQ(r.canonical_volume, 54);
}

TEST(CompileTest, DeterministicForFixedSeed) {
  icm::WorkloadSpec spec;
  spec.qubits = 60;
  spec.cnots = 90;
  spec.y_states = 18;
  spec.a_states = 9;
  const icm::IcmCircuit circuit = icm::make_workload(spec);
  const auto a = compile_mode(circuit, PipelineMode::Full, 5);
  const auto b = compile_mode(circuit, PipelineMode::Full, 5);
  EXPECT_EQ(a.volume, b.volume);
  EXPECT_EQ(a.routing.total_wire, b.routing.total_wire);
  EXPECT_EQ(a.nodes, b.nodes);
}

TEST(CompileTest, EveryModeHonorsTheSeedDeterministically) {
  icm::WorkloadSpec spec;
  spec.qubits = 60;
  spec.cnots = 90;
  spec.y_states = 18;
  spec.a_states = 9;
  const icm::IcmCircuit circuit = icm::make_workload(spec);
  for (const PipelineMode mode :
       {PipelineMode::Full, PipelineMode::DualOnly, PipelineMode::ModularOnly}) {
    const auto a = compile_mode(circuit, mode, 11);
    const auto b = compile_mode(circuit, mode, 11);
    EXPECT_EQ(a.volume, b.volume) << static_cast<int>(mode);
    EXPECT_EQ(a.routing.total_wire, b.routing.total_wire)
        << static_cast<int>(mode);
    EXPECT_EQ(a.placement.module_cell, b.placement.module_cell)
        << static_cast<int>(mode);
  }
}

TEST(CompileTest, MultiSeedResultIndependentOfJobCount) {
  icm::WorkloadSpec spec;
  spec.qubits = 60;
  spec.cnots = 90;
  spec.y_states = 18;
  spec.a_states = 9;
  const icm::IcmCircuit circuit = icm::make_workload(spec);
  for (const PipelineMode mode :
       {PipelineMode::Full, PipelineMode::DualOnly}) {
    CompileOptions opt;
    opt.mode = mode;
    opt.seed = 5;
    opt.place_restarts = 3;
    opt.jobs = 1;
    const auto seq = compile(circuit, opt);
    opt.jobs = 8;
    const auto par = compile(circuit, opt);
    EXPECT_EQ(seq.volume, par.volume) << static_cast<int>(mode);
    EXPECT_EQ(seq.routing.total_wire, par.routing.total_wire)
        << static_cast<int>(mode);
    EXPECT_EQ(seq.placement.module_cell, par.placement.module_cell)
        << static_cast<int>(mode);
    // Attempt reports agree on seeds, volumes, and the selected attempt.
    ASSERT_EQ(seq.timings.attempts.size(), 3u);
    ASSERT_EQ(par.timings.attempts.size(), 3u);
    for (std::size_t k = 0; k < 3; ++k) {
      EXPECT_EQ(seq.timings.attempts[k].seed, par.timings.attempts[k].seed);
      EXPECT_EQ(seq.timings.attempts[k].volume,
                par.timings.attempts[k].volume);
      EXPECT_EQ(seq.timings.attempts[k].selected,
                par.timings.attempts[k].selected);
    }
  }
}

TEST(CompileTest, MultiSeedNeverWorseThanSingleAttempt) {
  icm::WorkloadSpec spec;
  spec.qubits = 60;
  spec.cnots = 90;
  spec.y_states = 18;
  spec.a_states = 9;
  const icm::IcmCircuit circuit = icm::make_workload(spec);
  CompileOptions opt;
  opt.seed = 5;
  const auto single = compile(circuit, opt);
  opt.place_restarts = 4;
  const auto multi = compile(circuit, opt);
  ASSERT_TRUE(single.routed_legal);
  ASSERT_TRUE(multi.routed_legal);
  // Attempt 0 reuses the base seed, so the best-of-K result can only match
  // or beat the single attempt.
  EXPECT_LE(multi.volume, single.volume);
  EXPECT_EQ(multi.timings.attempts[0].volume, single.volume);
}

TEST(CompileTest, StatsJsonReportsAttemptsAndRestarts) {
  CompileOptions opt;
  opt.place_restarts = 2;
  const CompileResult r = compile(three_cnot_example(), opt);
  const std::string json = stats_json(r);
  EXPECT_NE(json.find("\"volume\": 6"), std::string::npos) << json;
  EXPECT_NE(json.find("\"legal\": true"), std::string::npos);
  EXPECT_NE(json.find("\"attempts\": ["), std::string::npos);
  EXPECT_NE(json.find("\"sa_accepted\""), std::string::npos);
  EXPECT_NE(json.find("\"route_iterations\""), std::string::npos);
  EXPECT_NE(json.find("\"primal_restarts\""), std::string::npos);
  EXPECT_NE(json.find("\"selected\": true"), std::string::npos);
}

TEST(CompileTest, StatsJsonV2RoundTrips) {
  CompileOptions opt;
  opt.place_restarts = 2;
  const CompileResult r = compile(three_cnot_example(), opt);
  const json::Value doc = json::parse(stats_json(r));

  // Documented scalar fields with their types.
  EXPECT_EQ(doc.at("stats_version").as_int(), 2);
  EXPECT_TRUE(doc.at("name").is_string());
  EXPECT_EQ(doc.at("volume").as_int(), r.volume);
  EXPECT_EQ(doc.at("canonical_volume").as_int(), r.canonical_volume);
  EXPECT_EQ(doc.at("legal").as_bool(), r.routed_legal);
  EXPECT_EQ(doc.at("modules").as_int(), r.modules);
  EXPECT_EQ(doc.at("nodes").as_int(), r.nodes);
  EXPECT_EQ(doc.at("ishape_merges").as_int(), r.ishape_merges);
  EXPECT_EQ(doc.at("primal_bridges").as_int(), r.primal_bridges);
  EXPECT_EQ(doc.at("dual_bridges").as_int(), r.dual_bridges);
  EXPECT_EQ(doc.at("net_components").as_int(), r.net_components);

  const json::Value& timings = doc.at("timings");
  for (const char* key : {"pd_graph_s", "ishape_s", "primal_bridge_s",
                          "dual_bridge_s", "place_s", "route_s",
                          "place_route_wall_s", "total_s"})
    EXPECT_TRUE(timings.at(key).is_number()) << key;

  const json::Value& restarts = doc.at("primal_restarts");
  EXPECT_TRUE(restarts.at("selected").is_number());
  EXPECT_TRUE(restarts.at("restarts").is_array());

  // Per-attempt records round-trip with correct types and vector content.
  const json::Value& attempts = doc.at("attempts");
  ASSERT_EQ(attempts.array.size(), 2u);
  for (std::size_t k = 0; k < attempts.array.size(); ++k) {
    const json::Value& a = attempts.array[k];
    const PlaceAttemptStats& stats = r.timings.attempts[k];
    // Derived attempt seeds use the full 64-bit range; the reader stores
    // numbers as double, so compare at double precision.
    EXPECT_EQ(a.at("seed").as_double(), static_cast<double>(stats.seed));
    EXPECT_EQ(a.at("volume").as_int(), stats.volume);
    EXPECT_EQ(a.at("legal").as_bool(), stats.legal);
    EXPECT_EQ(a.at("selected").as_bool(), stats.selected);
    EXPECT_EQ(a.at("y_gap").as_int(), stats.y_gap);
    EXPECT_TRUE(a.at("place_s").is_number());
    EXPECT_TRUE(a.at("route_s").is_number());
    EXPECT_EQ(a.at("sa_iterations").as_int(), stats.sa_iterations);
    EXPECT_EQ(a.at("sa_accepted").as_int(), stats.sa_accepted);
    EXPECT_EQ(a.at("sa_rejected").as_int(), stats.sa_rejected);
    EXPECT_EQ(a.at("route_iterations").as_int(), stats.route_iterations);
    EXPECT_EQ(a.at("route_overused").as_int(), stats.route_overused);
    EXPECT_EQ(a.at("route_reroutes").as_int(), stats.route_reroutes);
    EXPECT_EQ(a.at("route_full_sweeps").as_int(), stats.route_full_sweeps);
    EXPECT_EQ(a.at("route_queue_pushes").as_int(), stats.route_queue_pushes);
    EXPECT_EQ(a.at("route_queue_pops").as_int(), stats.route_queue_pops);
    EXPECT_EQ(a.at("route_repair_awarded").as_int(),
              stats.route_repair_awarded);
    EXPECT_EQ(a.at("route_repair_failed").as_int(),
              stats.route_repair_failed);

    const json::Value& reroutes = a.at("route_reroutes_per_iter");
    ASSERT_EQ(reroutes.array.size(), stats.route_reroutes_per_iter.size());
    for (std::size_t i = 0; i < reroutes.array.size(); ++i)
      EXPECT_EQ(reroutes.array[i].as_int(),
                stats.route_reroutes_per_iter[i]);
    const json::Value& overused = a.at("route_overused_per_iter");
    ASSERT_EQ(overused.array.size(), stats.route_overused_per_iter.size());

    // One record per whitespace-escalation level.
    const json::Value& passes = a.at("passes");
    ASSERT_EQ(passes.array.size(), stats.passes.size());
    ASSERT_FALSE(passes.array.empty());
    for (std::size_t p = 0; p < passes.array.size(); ++p) {
      const json::Value& pass = passes.array[p];
      const PassStats& want = stats.passes[p];
      EXPECT_EQ(pass.at("y_gap").as_int(), want.y_gap);
      EXPECT_TRUE(pass.at("place_s").is_number());
      EXPECT_TRUE(pass.at("route_s").is_number());
      EXPECT_EQ(pass.at("iterations").as_int(), want.iterations);
      EXPECT_EQ(pass.at("overused_per_iter").array.size(),
                want.overused_per_iter.size());
      EXPECT_EQ(pass.at("queue_pops").as_int(), want.queue_pops);
      EXPECT_EQ(pass.at("outcome").as_string(),
                pass_outcome_name(want.outcome));
    }
    EXPECT_EQ(passes.array.back().at("y_gap").as_int(), stats.y_gap);

    // SA convergence curve: three equal-length numeric columns.
    const json::Value& curve = a.at("sa_curve");
    const json::Value& cost = curve.at("cost");
    const json::Value& temperature = curve.at("temperature");
    const json::Value& accept_rate = curve.at("accept_rate");
    ASSERT_EQ(cost.array.size(), stats.sa_curve.size());
    ASSERT_EQ(temperature.array.size(), stats.sa_curve.size());
    ASSERT_EQ(accept_rate.array.size(), stats.sa_curve.size());
    EXPECT_FALSE(stats.sa_curve.empty());
    for (std::size_t i = 0; i < stats.sa_curve.size(); ++i) {
      EXPECT_NEAR(cost.array[i].as_double(), stats.sa_curve[i].cost, 1e-5);
      EXPECT_NEAR(temperature.array[i].as_double(),
                  stats.sa_curve[i].temperature, 1e-5);
      EXPECT_NEAR(accept_rate.array[i].as_double(),
                  stats.sa_curve[i].accept_rate, 1e-5);
    }
  }

  // Selected attempt's congestion census.
  const json::Value& route = doc.at("route");
  EXPECT_EQ(route.at("iterations").as_int(), r.routing.iterations);
  EXPECT_EQ(route.at("total_wire").as_int(), r.routing.total_wire);
  EXPECT_EQ(route.at("overused_per_iter").array.size(),
            r.routing.overused_per_iter.size());
  const json::Value& hist = route.at("congestion_histogram");
  ASSERT_EQ(hist.array.size(), r.routing.congestion_histogram.size());
  for (std::size_t i = 0; i < hist.array.size(); ++i)
    EXPECT_EQ(hist.array[i].as_int(), r.routing.congestion_histogram[i]);
  const json::Value& hot = route.at("hottest_cells");
  ASSERT_EQ(hot.array.size(), r.routing.hottest_cells.size());
  for (std::size_t i = 0; i < hot.array.size(); ++i) {
    EXPECT_EQ(hot.array[i].at("x").as_int(), r.routing.hottest_cells[i].cell.x);
    EXPECT_EQ(hot.array[i].at("usage").as_int(),
              r.routing.hottest_cells[i].usage);
    EXPECT_TRUE(hot.array[i].at("capacity").is_number());
  }
  // The multi-line heatmap must survive the JSON round trip byte-for-byte.
  EXPECT_EQ(route.at("heatmap").as_string(), r.routing.congestion_heatmap);
  EXPECT_FALSE(r.routing.congestion_heatmap.empty());

  // Metrics section always present; empty without tracing.
  const json::Value& metrics = doc.at("metrics");
  EXPECT_TRUE(metrics.at("counters").is_object());
  EXPECT_TRUE(metrics.at("gauges").is_object());
  EXPECT_TRUE(metrics.at("series").is_object());
}

TEST(CompileTest, StatsJsonV2EmbedsMetricsWhenTracingEnabled) {
  trace::set_enabled(true);
  trace::reset_metrics();
  trace::reset_events();
  const CompileResult r =
      compile_mode(three_cnot_example(), PipelineMode::Full);
  trace::set_enabled(false);
  EXPECT_FALSE(r.metrics.empty());

  const json::Value doc = json::parse(stats_json(r));
  const json::Value& metrics = doc.at("metrics");
  EXPECT_FALSE(metrics.at("counters").object.empty());
  EXPECT_TRUE(metrics.at("gauges").find("compile.volume") != nullptr);
  const json::Value& series = metrics.at("series");
  for (const char* name : {"place.sa_cost", "place.sa_temperature",
                           "place.sa_accept_rate", "route.overused",
                           "route.congestion_hist"}) {
    const json::Value* channel = series.find(name);
    ASSERT_NE(channel, nullptr) << name;
    EXPECT_EQ(channel->at("x").array.size(), channel->at("y").array.size())
        << name;
  }
  trace::reset_metrics();
  trace::reset_events();
}

TEST(CompileTest, TracingDoesNotChangeResults) {
  const icm::IcmCircuit circuit = three_cnot_example();
  CompileOptions opt;
  opt.place_restarts = 2;
  const CompileResult off = compile(circuit, opt);

  trace::set_enabled(true);
  trace::reset_metrics();
  trace::reset_events();
  const CompileResult on = compile(circuit, opt);
  trace::set_enabled(false);
  trace::reset_metrics();
  trace::reset_events();

  // Tracing is observational only: bit-identical pipeline outcome.
  EXPECT_EQ(on.volume, off.volume);
  EXPECT_EQ(on.canonical_volume, off.canonical_volume);
  EXPECT_EQ(on.routed_legal, off.routed_legal);
  EXPECT_EQ(on.nodes, off.nodes);
  EXPECT_EQ(on.routing.total_wire, off.routing.total_wire);
  EXPECT_EQ(on.routing.bounding.lo, off.routing.bounding.lo);
  EXPECT_EQ(on.routing.bounding.hi, off.routing.bounding.hi);
  ASSERT_EQ(on.placement.module_cell.size(), off.placement.module_cell.size());
  for (std::size_t i = 0; i < on.placement.module_cell.size(); ++i)
    EXPECT_EQ(on.placement.module_cell[i], off.placement.module_cell[i]);
}

// Fail-fast escalation (CompileOptions::abandon_plateaued_levels) must
// not move any result: 4gt10 and 4gt4 route at y_gap=0, where the rule
// must never fire; rd84_142 at workload seed 1 fails y_gap=0 and the rule
// gives that level up at its first plateau; hwb5_53 at workload seed 7
// (the instance `tqec_compress benchmark` compiles) is still heavily
// overused after iteration 2 and is given up there.
struct AbandonCase {
  const char* benchmark;
  std::uint64_t workload_seed;
  bool abandons;
  route::AbandonTrigger trigger = route::AbandonTrigger::Plateau;

  // Keeps the discovered test names stable (the default printer dumps the
  // bytes of the name pointer).
  friend void PrintTo(const AbandonCase& c, std::ostream* os) {
    *os << c.benchmark << "@" << c.workload_seed;
  }
};

class AbandonOnOffTest : public ::testing::TestWithParam<AbandonCase> {};

TEST_P(AbandonOnOffTest, BitIdenticalGeometry) {
  const AbandonCase c = GetParam();
  const icm::IcmCircuit circuit = icm::make_workload(
      workload_spec(paper_benchmark(c.benchmark), c.workload_seed));
  CompileOptions opt;
  ASSERT_TRUE(opt.abandon_plateaued_levels);  // on by default
  const CompileResult on = compile(circuit, opt);
  opt.abandon_plateaued_levels = false;
  const CompileResult off = compile(circuit, opt);

  EXPECT_TRUE(on.routed_legal);
  EXPECT_EQ(on.volume, off.volume);
  EXPECT_EQ(geom::to_json(on.geometry), geom::to_json(off.geometry));

  const PlaceAttemptStats& a_on = on.timings.attempts.at(0);
  const PlaceAttemptStats& a_off = off.timings.attempts.at(0);
  ASSERT_EQ(a_on.passes.size(), a_off.passes.size());
  EXPECT_EQ(a_on.passes.back().outcome, PassOutcome::Legal);
  EXPECT_EQ(a_on.passes.back().y_gap, a_on.y_gap);
  double route_s = 0;
  for (const PassStats& p : a_on.passes) route_s += p.route_s;
  EXPECT_DOUBLE_EQ(a_on.route_s, route_s);
  if (!c.abandons) {
    ASSERT_EQ(a_on.passes.size(), 1u);
    EXPECT_EQ(a_on.passes[0].overused_per_iter,
              a_off.passes[0].overused_per_iter);
    return;
  }
  ASSERT_EQ(a_on.passes.size(), 2u);
  const PassStats& abandoned = a_on.passes[0];
  EXPECT_EQ(abandoned.y_gap, 0);
  EXPECT_EQ(abandoned.outcome, PassOutcome::Abandoned);
  EXPECT_EQ(a_off.passes[0].outcome, PassOutcome::Illegal);
  EXPECT_EQ(abandoned.abandoned_by, c.trigger);
  if (c.trigger == route::AbandonTrigger::Contraction) {
    EXPECT_EQ(abandoned.iterations, 2);
  }
  // Abandoning cuts the failing series short.
  ASSERT_LT(abandoned.overused_per_iter.size(),
            a_off.passes[0].overused_per_iter.size());
  EXPECT_TRUE(std::equal(abandoned.overused_per_iter.begin(),
                         abandoned.overused_per_iter.end(),
                         a_off.passes[0].overused_per_iter.begin()));
  EXPECT_LT(abandoned.queue_pops, a_off.passes[0].queue_pops);
}

INSTANTIATE_TEST_SUITE_P(
    EscalationRows, AbandonOnOffTest,
    ::testing::Values(AbandonCase{"4gt10-v1_81", 7, false},
                      AbandonCase{"4gt4-v0_73", 7, false},
                      AbandonCase{"rd84_142", 1, true},
                      AbandonCase{"hwb5_53", 7, true,
                                  route::AbandonTrigger::Contraction}),
    [](const ::testing::TestParamInfo<AbandonCase>& info) {
      std::string name = info.param.benchmark;
      for (char& ch : name)
        if (ch == '-') ch = '_';
      return name + "_seed" + std::to_string(info.param.workload_seed);
    });

// Last-resort whitespace level: add16_174 at workload seed 33 (the
// smallest instance found that needs it) is still illegal after a full
// y_gap = 1 negotiation and repair; y_gap = 2 routes it legally. Inputs
// legal at y_gap <= 1 never reach that level (see GoldenTest and
// AbandonOnOffTest).
TEST(EscalationTest, LastResortLevelLegalizesWhatYGapOneCannot) {
  const CompileResult r = compile(
      icm::make_workload(workload_spec(paper_benchmark("add16_174"), 33)),
      CompileOptions{});
  EXPECT_TRUE(r.routed_legal);
  EXPECT_EQ(r.volume, 319056);
  ASSERT_EQ(r.timings.attempts.size(), 1u);
  const PlaceAttemptStats& a = r.timings.attempts[0];
  EXPECT_EQ(a.y_gap, 2);
  ASSERT_EQ(a.passes.size(), 3u);
  EXPECT_EQ(a.passes[0].outcome, PassOutcome::Abandoned);
  EXPECT_EQ(a.passes[1].outcome, PassOutcome::Illegal);
  EXPECT_EQ(a.passes[2].outcome, PassOutcome::Legal);
  for (std::size_t p = 0; p < a.passes.size(); ++p)
    EXPECT_EQ(a.passes[p].y_gap, static_cast<int>(p));
}

// Golden determinism pin: the default compile of three paper rows must
// reproduce, bit for bit, the placement, routing work and geometry
// recorded before the SA node-term wirelength and the cached A* step
// costs landed. Both are exact rewrites of the arithmetic they replaced,
// so any drift here is a bug, not a tuning change.
struct GoldenPass {
  int y_gap;
  PassOutcome outcome;
  int iterations;
  std::int64_t queue_pops;
  std::int64_t queue_pushes;
};

struct GoldenCase {
  const char* benchmark;
  std::int64_t volume;
  int sa_accepted;
  int sa_rejected;
  std::int64_t sa_repacked_nodes;
  std::uint64_t digest_lo;
  std::uint64_t digest_hi;
  std::vector<GoldenPass> passes;

  friend void PrintTo(const GoldenCase& c, std::ostream* os) {
    *os << c.benchmark;
  }
};

class GoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenTest, DefaultCompileIsPinned) {
  const GoldenCase& c = GetParam();
  const CompileOptions opt;
  const CompileResult r = compile(
      icm::make_workload(workload_spec(paper_benchmark(c.benchmark), opt.seed)),
      opt);
  EXPECT_TRUE(r.routed_legal);
  EXPECT_EQ(r.volume, c.volume);
  Digest128 digest;
  digest.update(geom::to_json(r.geometry));
  EXPECT_EQ(digest.lo, c.digest_lo);
  EXPECT_EQ(digest.hi, c.digest_hi);

  ASSERT_EQ(r.timings.attempts.size(), 1u);
  const PlaceAttemptStats& a = r.timings.attempts[0];
  EXPECT_EQ(a.sa_accepted, c.sa_accepted);
  EXPECT_EQ(a.sa_rejected, c.sa_rejected);
  EXPECT_EQ(a.sa_repacked_nodes, c.sa_repacked_nodes);
  ASSERT_EQ(a.passes.size(), c.passes.size());
  for (std::size_t p = 0; p < c.passes.size(); ++p) {
    SCOPED_TRACE(::testing::Message() << "pass " << p);
    EXPECT_EQ(a.passes[p].y_gap, c.passes[p].y_gap);
    EXPECT_EQ(a.passes[p].outcome, c.passes[p].outcome);
    EXPECT_EQ(a.passes[p].iterations, c.passes[p].iterations);
    EXPECT_EQ(a.passes[p].queue_pops, c.passes[p].queue_pops);
    EXPECT_EQ(a.passes[p].queue_pushes, c.passes[p].queue_pushes);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperRows, GoldenTest,
    ::testing::Values(
        GoldenCase{"4gt10-v1_81", 14256, 7093, 9663, 95045,
                   0x7d8084a6336b19acull, 0xfeaed0adb54e07b5ull,
                   {{0, PassOutcome::Legal, 3, 5719, 17693}}},
        GoldenCase{"4gt4-v0_73", 28700, 8805, 18117, 181643,
                   0xc23bad9a0bb75857ull, 0xbc55b248d0c40cecull,
                   {{0, PassOutcome::Legal, 6, 42862, 95638}}},
        GoldenCase{"rd84_142", 145824, 24540, 25343, 620901,
                   0xb0919af10560c495ull, 0xb98805185c35b0a0ull,
                   {{0, PassOutcome::Abandoned, 7, 392501, 745371},
                    {1, PassOutcome::Legal, 3, 346423, 587532}}}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      std::string name = info.param.benchmark;
      for (char& ch : name)
        if (ch == '-') ch = '_';
      return name;
    });

class EndToEndTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EndToEndTest, LegalValidAndCompressed) {
  const PaperBenchmark& bench = paper_benchmarks()[GetParam()];
  const icm::IcmCircuit circuit =
      icm::make_workload(workload_spec(bench));
  const CompileResult r = compile_mode(circuit, PipelineMode::Full);
  EXPECT_TRUE(r.routed_legal) << bench.name;
  const auto report = geom::validate(r.geometry);
  EXPECT_TRUE(report.ok()) << bench.name << ": " << report.summary();
  // The compression must beat the canonical form massively (the paper
  // reports 6.5x+ on the smallest benchmark).
  EXPECT_LT(r.volume * 3, r.canonical_volume) << bench.name;
  // Geometry box census: one per |Y> and |A> ancilla.
  EXPECT_EQ(r.geometry.boxes().size(),
            static_cast<std::size_t>(bench.y_states + bench.a_states));
}

INSTANTIATE_TEST_SUITE_P(SmallBenchmarks, EndToEndTest,
                         ::testing::Range<std::size_t>(0, 2));

TEST(EndToEndTest, BraidingPreservedThroughRouting) {
  // Every original CNOT net must thread the cells of the exact modules its
  // PD-graph records say it passes through, after all compression stages.
  const PaperBenchmark& bench = paper_benchmark("4gt10-v1_81");
  const icm::IcmCircuit circuit =
      icm::make_workload(workload_spec(bench));
  const pdgraph::PdGraph graph = pdgraph::build_pd_graph(circuit);
  const compress::IshapeResult ishape = compress::simplify_ishape(graph);
  const compress::PrimalBridging bridging =
      compress::bridge_primal(graph, ishape, 7);
  compress::DualBridging dual = compress::bridge_dual(graph, ishape);
  place::NodeSet nodes = place::build_nodes(graph, ishape, bridging, dual);
  place::PlaceOptions popt;
  popt.seed = 7;
  const place::Placement placement = place::place_modules(nodes, popt);
  route::RouteOptions ropt;
  const route::RoutingResult routing =
      route::route_nets(nodes, placement, ropt);
  ASSERT_TRUE(routing.legal);

  std::unordered_map<pdgraph::NetId, std::size_t> component_index;
  for (const pdgraph::DualNet& net : graph.nets())
    component_index.emplace(dual.component_of(net.id),
                            component_index.size());
  for (const pdgraph::DualNet& net : graph.nets()) {
    const auto& routed = routing.nets[component_index.at(
        dual.component_of(net.id))];
    std::set<std::tuple<int, int, int>> cells;
    for (const Vec3& c : routed.cells) cells.insert({c.x, c.y, c.z});
    for (pdgraph::ModuleId m : net.path()) {
      const Vec3 pin = placement.module_cell[static_cast<std::size_t>(m)];
      EXPECT_TRUE(cells.count({pin.x, pin.y, pin.z}))
          << "net " << net.id << " no longer threads module " << m;
    }
  }
}

TEST(ModeComparisonTest, FullBeatsDualOnlyOnMidsizeBenchmark) {
  const PaperBenchmark& bench = paper_benchmark("4gt4-v0_73");
  const icm::IcmCircuit circuit =
      icm::make_workload(workload_spec(bench));
  const auto full = compile_mode(circuit, PipelineMode::Full);
  const auto dual_only = compile_mode(circuit, PipelineMode::DualOnly);
  EXPECT_TRUE(full.routed_legal);
  EXPECT_TRUE(dual_only.routed_legal);
  // Paper Table 3: dual-only needs strictly more volume (1.29x on this
  // benchmark); allow a little SA noise but demand a real gap.
  EXPECT_GT(static_cast<double>(dual_only.volume),
            1.05 * static_cast<double>(full.volume));
  // And far fewer B*-tree nodes for the full flow (paper Table 1).
  EXPECT_LT(full.nodes * 2, dual_only.nodes);
}

TEST(ModeComparisonTest, AblationFlagsChangeTheFlow) {
  const icm::IcmCircuit circuit = three_cnot_example();
  CompileOptions opt;
  opt.enable_ishape = false;
  const CompileResult no_ishape = compile(circuit, opt);
  EXPECT_EQ(no_ishape.ishape_merges, 0);
  opt = CompileOptions{};
  opt.enable_primal = false;
  const CompileResult no_primal = compile(circuit, opt);
  EXPECT_EQ(no_primal.primal_bridges, 0);
  EXPECT_GT(no_primal.nodes, 1);
  opt = CompileOptions{};
  opt.enable_dual = false;
  const CompileResult no_dual = compile(circuit, opt);
  EXPECT_EQ(no_dual.dual_bridges, 0);
  EXPECT_EQ(no_dual.net_components, 3);
}

TEST(EmitCellRunsTest, DeduplicatesAndEmitsMaximalRuns) {
  geom::Defect defect;
  // Unsorted input with duplicates: an x-run 0..2 on (y=0, z=0) plus a
  // detached singleton; duplicates of (1,0,0) must collapse into the run.
  emit_cell_runs(defect, {{4, 0, 0},
                          {1, 0, 0},
                          {0, 0, 0},
                          {1, 0, 0},
                          {2, 0, 0},
                          {1, 0, 0}});
  ASSERT_EQ(defect.segments.size(), 2u);
  EXPECT_EQ(defect.segments[0].a, (Vec3{0, 0, 0}));
  EXPECT_EQ(defect.segments[0].b, (Vec3{2, 0, 0}));
  EXPECT_EQ(defect.segments[1].a, (Vec3{4, 0, 0}));
  EXPECT_EQ(defect.segments[1].b, (Vec3{4, 0, 0}));
}

TEST(EmitCellRunsTest, GroupsRunsByYAndZ) {
  geom::Defect defect;
  emit_cell_runs(defect,
                 {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {1, 1, 0}, {0, 0, 1}});
  // Three (y, z) groups -> three segments; no run crosses a group.
  ASSERT_EQ(defect.segments.size(), 3u);
  for (const auto& seg : defect.segments) {
    EXPECT_EQ(seg.a.y, seg.b.y);
    EXPECT_EQ(seg.a.z, seg.b.z);
  }
  geom::Defect empty;
  emit_cell_runs(empty, {});
  EXPECT_TRUE(empty.segments.empty());
}

TEST(EmitGeometryTest, CensusMatchesPipelineState) {
  const CompileResult r =
      compile_mode(three_cnot_example(), PipelineMode::Full);
  // One primal chain defect + two dual component defects; no boxes.
  int primal = 0;
  int dual = 0;
  for (const geom::DefectView d : r.geometry.defects())
    (d.type == geom::DefectType::Primal ? primal : dual) += 1;
  EXPECT_EQ(primal, 1);
  EXPECT_EQ(dual, 2);
  EXPECT_TRUE(r.geometry.boxes().empty());
}

TEST(PaperTablesTest, LookupAndConsistency) {
  EXPECT_EQ(paper_benchmarks().size(), 8u);
  EXPECT_THROW(paper_benchmark("nope"), TqecError);
  for (const PaperBenchmark& b : paper_benchmarks()) {
    EXPECT_EQ(b.y_states, 2 * b.a_states) << b.name;
    EXPECT_GT(b.hsu_volume, b.ours_volume) << b.name;
    EXPECT_GT(b.lin2d_volume, b.hsu_volume) << b.name;
    EXPECT_GT(b.lin1d_volume, b.lin2d_volume) << b.name;
    EXPECT_GT(b.canonical_volume, b.lin1d_volume) << b.name;
  }
}

}  // namespace
}  // namespace tqec::core
