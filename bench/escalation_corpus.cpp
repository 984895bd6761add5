// Corpus check for fail-fast whitespace escalation
// (CompileOptions::abandon_plateaued_levels, RouteOptions::
// abandon_at_plateau): compiles every corpus input with abandoning on and
// off and fails (exit 1) on
//   - any difference in legality, volume, or geometry digest, or
//   - any abandoned pass whose abandoning-off counterpart converges.
// It prints every input's per-level outcomes, the passes abandoned by each
// trigger, the route seconds saved, and the margins of both triggers
// (route::abandon_trigger): the largest iteration-2 overuse of any
// converging y_gap=0 pass against the smallest the contraction trigger
// fired at, and the largest first plateau of any converging pass against
// the smallest plateau the plateau trigger fired at.
//
//   escalation_corpus [--set=full|ci] [--jobs=N]
//
// Sets (all generated in-process, deterministic):
//   full — the paper rows but ham15_107 at workload seeds 1-7 (49 inputs;
//          seed 7 is the instance `tqec_compress benchmark` compiles);
//          192 random reversible circuits (10 qubits, 24 gates, generator
//          seed 1) through the .real front end; 8 long_24x160_t1_c3
//          layered circuits (workload seeds 0-7), each compiled unsharded
//          and sharded at --shard-window=8 (every window compile's levels
//          count as passes).
//   ci   — a subset that runs in under 2 minutes on a 2-core Release
//          build: the paper rows at workload seed 1, the first 48 random
//          circuits, and 2 long circuits.
// --jobs runs that many inputs concurrently (each compile itself uses one
// thread). Everything but the timings is identical for any --jobs value;
// the closing "corpus digest" line folds all of it into one hash. CI
// compares the ci set's digest with bench/escalation_corpus_ci.digest;
// re-record that file when a change moves a volume, a geometry or a pass
// outcome on purpose.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/hash.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/compiler.h"
#include "core/paper_tables.h"
#include "core/service.h"
#include "core/shard.h"
#include "geom/geometry.h"
#include "icm/workload.h"
#include "qcir/generator.h"
#include "qcir/revlib.h"

namespace {

using namespace tqec;

struct CorpusInput {
  std::string name;
  icm::IcmCircuit circuit;   // .icm inputs
  std::string real_text;     // .real inputs (empty for .icm)
  bool sharded = false;
};

/// One compile of one input with abandoning on or off.
struct Arm {
  bool ok = false;
  std::string error;
  bool legal = false;
  std::int64_t volume = 0;
  std::string geometry_digest;
  double route_s = 0;
  std::vector<core::PassStats> passes;  // every attempt's levels, in order
};

struct Outcome {
  Arm on;
  Arm off;
};

std::string hex(const Digest128& d) {
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(d.lo),
                static_cast<unsigned long long>(d.hi));
  return buf;
}

/// The largest or smallest overused count seen so far and the input it
/// came from.
struct Extreme {
  std::optional<int> value;
  std::string at;

  void keep_max(int v, const std::string& name) {
    if (!value || v > *value) {
      value = v;
      at = name;
    }
  }
  void keep_min(int v, const std::string& name) {
    if (!value || v < *value) {
      value = v;
      at = name;
    }
  }
  void print(const char* what) const {
    if (value) std::printf("%s: %d (%s)\n", what, *value, at.c_str());
  }
};

/// The overused count at a series' first non-decrease (the plateau the
/// abandon rule looks at), or nullopt for a series that only falls.
std::optional<int> first_plateau(const std::vector<int>& series) {
  const auto it = std::adjacent_find(series.begin(), series.end(),
                                     std::less_equal<>());
  if (it == series.end()) return std::nullopt;
  return *(it + 1);
}

Arm compile_arm(const CorpusInput& in, bool abandon) {
  Arm arm;
  core::CompileOptions opt;
  opt.abandon_plateaued_levels = abandon;
  core::CompileResult result;
  try {
    if (in.sharded) {
      core::ShardOptions shard;
      shard.window = 8;
      result = core::compile_sharded(in.circuit, opt, shard);
    } else if (!in.real_text.empty()) {
      // The .real front end of tqec_serve: parse, peephole optimize,
      // decompose, Clifford+T -> ICM, then core::compile.
      CompilerConfig config;
      config.cache_enabled = false;
      Compiler compiler(config);
      CompileRequest request;
      request.id = in.name;
      request.real_text = in.real_text;
      request.options = opt;
      CompileResponse response = compiler.compile(request);
      if (!response.ok) throw TqecError(response.error.message);
      result = std::move(response.result);
    } else {
      result = core::compile(in.circuit, opt);
    }
  } catch (const std::exception& e) {
    arm.error = e.what();
    return arm;
  }
  arm.ok = true;
  arm.legal = result.routed_legal;
  arm.volume = result.volume;
  Digest128 d;
  d.update(geom::to_json(result.geometry));
  arm.geometry_digest = hex(d);
  for (const core::PlaceAttemptStats& a : result.timings.attempts) {
    arm.route_s += a.route_s;
    arm.passes.insert(arm.passes.end(), a.passes.begin(), a.passes.end());
  }
  return arm;
}

std::vector<CorpusInput> build_corpus(bool ci) {
  std::vector<CorpusInput> corpus;
  const int last_seed = ci ? 1 : 7;
  for (const core::PaperBenchmark& bench : core::paper_benchmarks()) {
    if (bench.name == "ham15_107") continue;
    for (int seed = 1; seed <= last_seed; ++seed) {
      CorpusInput in;
      in.name = bench.name + "@" + std::to_string(seed);
      in.circuit = icm::make_workload(core::workload_spec(
          bench, static_cast<std::uint64_t>(seed)));
      corpus.push_back(std::move(in));
    }
  }
  std::uint64_t state = 1;  // generator seed of the random pool
  const int pool = ci ? 48 : 192;
  for (int i = 0; i < pool; ++i) {
    qcir::RandomReversibleSpec spec;
    spec.num_qubits = 10;
    spec.num_gates = 24;
    spec.seed = splitmix64(state);
    CorpusInput in;
    in.name = "r" + std::to_string(i);
    in.real_text = qcir::write_real(qcir::make_random_reversible(spec));
    corpus.push_back(std::move(in));
  }
  const int longs = ci ? 2 : 8;
  for (int j = 0; j < longs; ++j) {
    icm::LayeredWorkloadSpec spec;
    spec.seed = static_cast<std::uint64_t>(j);
    spec.name = "long_24x160_t1_c3_s" + std::to_string(j);
    spec.data_lines = 24;
    spec.layers = 160;
    spec.t_per_layer = 1;
    spec.cnots_per_layer = 3;
    const icm::IcmCircuit circuit = icm::make_layered_workload(spec);
    for (const bool sharded : {false, true}) {
      CorpusInput in;
      in.name = spec.name + (sharded ? "/shard8" : "");
      in.circuit = circuit;
      in.sharded = sharded;
      corpus.push_back(std::move(in));
    }
  }
  return corpus;
}

/// "y0:abandoned@8(19) y1:legal@7": each level's y_gap, outcome and
/// iterations, plus the final overuse of a level that did not converge.
/// Sharded inputs report one level per window compile; those collapse to
/// outcome counts.
std::string describe_passes(const std::vector<core::PassStats>& passes) {
  std::string out;
  char buf[64];
  if (passes.size() > 3) {
    int counts[4] = {0, 0, 0, 0};
    for (const core::PassStats& p : passes)
      ++counts[static_cast<int>(p.outcome)];
    std::snprintf(buf, sizeof buf, "%zu levels: %d legal %d illegal %d "
                  "abandoned", passes.size(), counts[0], counts[1],
                  counts[2]);
    out = buf;
    if (counts[3] > 0) {
      std::snprintf(buf, sizeof buf, " %d unroutable", counts[3]);
      out += buf;
    }
    return out;
  }
  for (const core::PassStats& p : passes) {
    std::snprintf(buf, sizeof buf, "%sy%d:%s@%d", out.empty() ? "" : " ",
                  p.y_gap, core::pass_outcome_name(p.outcome), p.iterations);
    out += buf;
    if (p.outcome != core::PassOutcome::Legal &&
        !p.overused_per_iter.empty()) {
      std::snprintf(buf, sizeof buf, "(%d)", p.overused_per_iter.back());
      out += buf;
    }
  }
  return out;
}

int usage() {
  std::fprintf(stderr, "usage: escalation_corpus [--set=full|ci] [--jobs=N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool ci = false;
  int jobs = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--set=ci") ci = true;
    else if (arg == "--set=full") ci = false;
    else if (arg.rfind("--jobs=", 0) == 0) jobs = std::atoi(arg.c_str() + 7);
    else return usage();
  }
  if (jobs < 1) return usage();

  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<CorpusInput> corpus = build_corpus(ci);
  std::vector<Outcome> outcomes(corpus.size());
  parallel_for(corpus.size(), jobs, [&](std::size_t i) {
    outcomes[i].on = compile_arm(corpus[i], true);
    outcomes[i].off = compile_arm(corpus[i], false);
  });

  int failures = 0;
  int passes = 0, converging = 0, failing_y0 = 0;
  int by_contraction = 0, by_plateau = 0;
  double route_on = 0, route_off = 0;
  // Margins of the two triggers: the worst case a converging pass reaches
  // against the mildest case the trigger fired at.
  Extreme max_converging_iter2, min_contraction_iter2;
  Extreme max_converging_plateau, min_abandoned_plateau;
  Digest128 corpus_digest;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const CorpusInput& in = corpus[i];
    const Arm& on = outcomes[i].on;
    const Arm& off = outcomes[i].off;
    std::string verdict = "ok";
    if (!on.ok || !off.ok) {
      verdict = "ERROR: " + (on.ok ? off.error : on.error);
    } else if (on.legal != off.legal || on.volume != off.volume ||
               on.geometry_digest != off.geometry_digest) {
      verdict = "MISMATCH: volume " + std::to_string(on.volume) + " vs " +
                std::to_string(off.volume);
    }
    for (std::size_t p = 0; p < on.passes.size(); ++p) {
      const core::PassStats& pass = on.passes[p];
      if (pass.outcome != core::PassOutcome::Abandoned) continue;
      if (p >= off.passes.size() ||
          off.passes[p].outcome == core::PassOutcome::Legal)
        verdict = "ABANDONED A CONVERGING PASS (level " + std::to_string(p) +
                  ")";
      if (pass.abandoned_by == route::AbandonTrigger::Contraction) {
        ++by_contraction;
        min_contraction_iter2.keep_min(pass.overused_per_iter.back(),
                                       in.name);
      } else {
        ++by_plateau;
        if (const auto plateau = first_plateau(pass.overused_per_iter))
          min_abandoned_plateau.keep_min(*plateau, in.name);
      }
    }
    for (const core::PassStats& p : off.passes) {
      ++passes;
      if (p.outcome == core::PassOutcome::Legal) {
        ++converging;
        if (const auto plateau = first_plateau(p.overused_per_iter))
          max_converging_plateau.keep_max(*plateau, in.name);
        if (p.y_gap == 0 && p.overused_per_iter.size() >= 2)
          max_converging_iter2.keep_max(p.overused_per_iter[1], in.name);
      } else if (p.y_gap == 0) {
        ++failing_y0;
      }
    }
    route_on += on.route_s;
    route_off += off.route_s;
    if (verdict != "ok") ++failures;
    std::printf("%-30s volume %9lld  route %7.3f s -> %7.3f s  %-34s %s\n",
                in.name.c_str(), static_cast<long long>(off.volume),
                off.route_s, on.route_s, describe_passes(on.passes).c_str(),
                verdict.c_str());
    corpus_digest.update(in.name + "|" + std::to_string(on.volume) + "|" +
                         on.geometry_digest + "|" +
                         describe_passes(on.passes) + "|" +
                         describe_passes(off.passes) + "\n");
  }

  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
  std::printf("\ncorpus: %zu inputs (%s set), %d reported passes with "
              "abandoning off: %d converge, %d failing y_gap=0\n",
              corpus.size(), ci ? "ci" : "full", passes, converging,
              failing_y0);
  std::printf("abandoned passes: %d (of %d failing y_gap=0): %d at "
              "iteration 2 (contraction), %d at their first plateau\n",
              by_contraction + by_plateau, failing_y0, by_contraction,
              by_plateau);
  std::printf("route seconds: %.2f with abandoning off, %.2f on (saved "
              "%.2f)\n",
              route_off, route_on, route_off - route_on);
  max_converging_iter2.print(
      "largest iteration-2 overuse of a converging y_gap=0 pass");
  min_contraction_iter2.print(
      "smallest iteration-2 overuse the contraction trigger fired at");
  std::printf("contraction trigger: >= %d cells and >= %d%% of iteration 1\n",
              route::kContractionOverused, route::kContractionPercent);
  max_converging_plateau.print("largest first plateau of a converging pass");
  min_abandoned_plateau.print("smallest plateau abandoned at");
  std::printf("plateau trigger: >= %d cells\n", route::kAbandonOverused);
  std::printf("corpus digest: %s\n", hex(corpus_digest).c_str());
  std::printf("wall: %.1f s with --jobs=%d\n", wall_s, jobs);
  if (failures > 0) {
    std::printf("FAILED: %d input(s)\n", failures);
    return 1;
  }
  std::printf("OK\n");
  return 0;
}
