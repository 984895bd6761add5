#!/usr/bin/env python3
"""Release timing and work-counter gate for the kernels (CI job timing-gate).

Reads google-benchmark JSON files and checks them against a committed
baseline. A baseline file may hold two kinds of gate.

Ratios are *self-relative* timings — time(optimized variant) /
time(reference variant), both measured on the same machine in the same
process. Same-host ratios cancel out runner speed, so the gate is stable
across runner generations where absolute wall-clock thresholds would flake.
A ratio fails when it exceeds baseline * tolerance; the minimum over
iterations is used, the standard noise-robust statistic for timing.

Counters are deterministic work counters a benchmark publishes (queue
pops, SA moves, ...). They do not depend on the machine, so the check is
exact: every measured entry of the named benchmark must report exactly the
expected value. A counter that moves means the kernel did different work —
a result change, not noise.

    {
      "tolerance": 1.2,
      "ratios": {
        "<ratio name>": {
          "numerator":   "<benchmark entry name>",
          "denominator": "<benchmark entry name>",
          "baseline":    <expected ratio>
        }
      },
      "counters": {
        "<gate name>": {
          "benchmark": "<benchmark entry name>",
          "counter":   "<counter name>",
          "expected":  <exact value>
        }
      }
    }

Either section may be absent. Repetition aggregates (run_type other than
"iteration") are ignored.

Usage: check_timing.py <benchmark.json> <baseline.json> [<benchmark.json> <baseline.json> ...]

Known pairs in this repo:
    route-kernel.json  bench/route_timing_baseline.json   (micro_route_kernel)
    place-kernel.json  bench/place_timing_baseline.json   (micro_place_kernel)
    shard-bench.json   bench/shard_timing_baseline.json   (micro_shard)
    geom-bench.json    bench/geom_timing_baseline.json    (micro_geom)
"""
import json
import sys


def entries(benchmarks, name):
    found = [
        b
        for b in benchmarks
        if b["name"] == name and b.get("run_type", "iteration") == "iteration"
    ]
    if not found:
        raise SystemExit(f"timing gate: no benchmark entry named {name!r}")
    return found


def min_time(benchmarks, name):
    return min(b["real_time"] for b in entries(benchmarks, name))


def check_counters(benchmarks, counters):
    """Exact check of deterministic work counters; returns True on failure."""
    failed = False
    for name, spec in counters.items():
        measured = set()
        for b in entries(benchmarks, spec["benchmark"]):
            if spec["counter"] not in b:
                raise SystemExit(
                    f"timing gate: {spec['benchmark']!r} publishes no counter "
                    f"{spec['counter']!r}"
                )
            measured.add(b[spec["counter"]])
        ok = measured == {spec["expected"]}
        failed = failed or not ok
        shown = ", ".join(f"{v:g}" for v in sorted(measured))
        print(
            f"counter gate: {name} = {shown} "
            f"(expected {spec['expected']:g}) {'ok' if ok else 'FAIL'}"
        )
    return failed


def check_pair(benchmark_path, baseline_path):
    with open(benchmark_path) as f:
        benchmarks = json.load(f)["benchmarks"]
    with open(baseline_path) as f:
        baseline = json.load(f)

    failed = check_counters(benchmarks, baseline.get("counters", {}))
    tolerance = baseline.get("tolerance", 1.0)
    for name, spec in baseline.get("ratios", {}).items():
        ratio = min_time(benchmarks, spec["numerator"]) / min_time(
            benchmarks, spec["denominator"]
        )
        limit = spec["baseline"] * tolerance
        verdict = "FAIL" if ratio > limit else "ok"
        if ratio > limit:
            failed = True
        print(
            f"timing gate: {name} = {ratio:.3f} "
            f"(baseline {spec['baseline']:.3f}, limit {limit:.3f}) {verdict}"
        )
    if failed:
        print(f"timing gate: {benchmark_path} fails a gate of {baseline_path}")
    return failed


def main():
    args = sys.argv[1:]
    if not args or len(args) % 2 != 0:
        raise SystemExit(__doc__)
    # Check every pair before failing, so one failing gate does not hide
    # the verdicts of the others.
    failed = [check_pair(args[i], args[i + 1]) for i in range(0, len(args), 2)]
    if any(failed):
        raise SystemExit("timing gate: FAILED")


if __name__ == "__main__":
    main()
