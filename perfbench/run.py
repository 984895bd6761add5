#!/usr/bin/env python3
"""Repository benchmark: the paper suite, a long sharded circuit, and a
tqec_serve closed loop, with a traced layer-by-layer replay.

    python3 perfbench/run.py --workload paper|long_shard|serve \
        --seed N --seconds S --trace 0|1

Run from anywhere inside a source tree of the repository. The first run
builds the front ends (Release) and the replay tool under .bench_build/.
Each run generates the workload's fixed inputs, sends them to the shipped
front ends (tqec_compress, tqec_serve) in an order drawn from --seed,
checks every output, and prints
a report followed by one JSON line: the end-to-end metrics with
--trace 0, the per-layer metrics of the traced replay with --trace 1.
perfbench/README.md documents the workloads, metrics and checks.
"""
import argparse
import hashlib
import json
import math
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
REPO_BUILD = BUILD / "repo"
TOOL_BUILD = BUILD / "perfbench"
CLI = REPO_BUILD / "tools" / "tqec_compress"
SERVE = REPO_BUILD / "tools" / "tqec_serve"
REPLAY = TOOL_BUILD / "perfbench_replay"
LAUNCH = TOOL_BUILD / "perfbench_launch"
WORK = BUILD / "work"  # this run's scratch directory, set in main()

# Every workload compiles a fixed set of inputs; --seed sets the order in
# which they are sent (see README.md, "Workloads" and "Known program
# defects").
# paper: every paper row but ham15_107, at the workload seed
# `tqec_compress benchmark <row>` uses (its default seed, 7).
PAPER_ROWS = ["4gt10-v1_81", "4gt4-v0_73", "rd84_142", "hwb5_53",
              "add16_174", "sym6_145", "cycle17_3_112"]
PAPER_WORKLOAD_SEED = 7
# long_shard: LONG_CIRCUITS circuits long_<data>x<layers>_t<t>_c<c>,
# workload seeds 0 .. LONG_CIRCUITS - 1, sharded at SHARD_WINDOW.
LONG_CIRCUITS = 8
LONG_SHAPE = (24, 160, 1, 3)
SHARD_WINDOW = 8
# serve: pool of SERVE_POOL distinct random reversible circuits of one
# size from generator seed SERVE_POOL_SEED, each sent once and then
# SERVE_REPEATS seeded draws from it with repeats.
SERVE_POOL = 192
SERVE_POOL_SEED = 1
SERVE_REPEATS = 128
SERVE_QUBITS = 10
SERVE_GATES = 24
# Process launches per run that setup_s takes its median over (serve).
SETUP_LAUNCHES = 5
# Lines one tqec_serve response may span (see Daemon.recv).
MAX_RESPONSE_LINES = 100000

CLI_RESULT = re.compile(
    r"volume (\d+) \(\d+x\d+x\d+\), (legally routed|NOT LEGAL)")
CLI_COMPILE = re.compile(r"compile '[^']*': .* \(([0-9.e+-]+)s\)$", re.M)
CLI_SHARD = re.compile(
    r"shard: (\d+) windows \((\d+) resumed, (\d+) reseeded\), \d+ crossings, "
    r"\d+ stitches, (\d+) seam cells")
ESCALATED = "routing illegal at y-gap 0"


class BenchError(Exception):
    pass


# --------------------------------------------------------------- helpers

def log(msg):
    print(msg, flush=True)


def median(values):
    return statistics.median(values)


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def upper_percentile(values):
    """Highest of p99/p90/p75/p50 that has at least ten samples beyond it
    (the plain median below 20 samples)."""
    s = sorted(values)
    n = len(s)
    for q in (99, 90, 75, 50):
        if n * (100 - q) / 100 >= 10 or q == 50:
            k = min(n - 1, max(0, math.ceil(q / 100 * n) - 1))
            return q, s[k]
    return 50, s[n // 2]


def nearest_rank(values, q):
    s = sorted(values)
    return s[min(len(s) - 1, max(0, math.ceil(q / 100 * len(s)) - 1))]


def describe(name, values, unit, scale=1.0):
    q, v = upper_percentile(values)
    log(f"  {name:<24} median {median(values) * scale:.6g} {unit}, "
        f"p{q} {v * scale:.6g} {unit}, n={len(values)}")


def nproc():
    return len(os.sched_getaffinity(0))


def child_env(cli_log):
    """Environment for the front ends: program tracing off, and for the CLI
    the info log that states each compile's own time and escalation."""
    env = dict(os.environ)
    for key in ("TQEC_TRACE", "TQEC_FLIGHT", "TQEC_LOG", "TQEC_LOG_WALLCLOCK"):
        env.pop(key, None)
    if cli_log:
        env["TQEC_LOG"] = "info"
    return env


def launched(result_file, argv):
    """argv run under perfbench_launch, which records its wall time and
    its own peak RSS in result_file (see launch.cpp)."""
    return [str(LAUNCH), str(result_file), *[str(a) for a in argv]]


def launch_result(result_file):
    """(wall_s, peak_rss_mb, exit code) recorded by perfbench_launch."""
    wall, rss_kb, code = Path(result_file).read_text().split()
    return float(wall), int(rss_kb) / 1024.0, int(code)


def run_child(argv, env, result_file):
    """Run one process to completion: (wall_s, peak_rss_mb, exit, output)."""
    r = subprocess.run(launched(result_file, argv), stdout=subprocess.PIPE,
                       stderr=subprocess.STDOUT, env=env)
    wall, rss, code = launch_result(result_file)
    return wall, rss, code, r.stdout.decode("utf-8", "replace")


def sh(argv, logfile):
    with open(logfile, "ab") as f:
        r = subprocess.run([str(a) for a in argv], stdout=f,
                           stderr=subprocess.STDOUT)
    if r.returncode != 0:
        tail = Path(logfile).read_text(errors="replace")[-3000:]
        raise BenchError(f"command failed: {' '.join(map(str, argv))}\n{tail}")


def build():
    """Configure (once) and build the front ends and the replay tool."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"{ROOT} is not a source tree of the repository")
    BUILD.mkdir(exist_ok=True)
    logfile = BUILD / "build.log"
    jobs = str(max(1, min(nproc(), 8)))
    if not (REPO_BUILD / "CMakeCache.txt").is_file():
        sh(["cmake", "-S", ROOT, "-B", REPO_BUILD,
            "-DCMAKE_BUILD_TYPE=Release"], logfile)
    sh(["cmake", "--build", REPO_BUILD, "-j", jobs, "--target",
        "tqec_compress_cli", "tqec_serve"], logfile)
    sh(["cmake", "-S", HERE, "-B", TOOL_BUILD, "-DCMAKE_BUILD_TYPE=Release",
        f"-DTQEC_BUILD_DIR={REPO_BUILD}"], logfile)
    sh(["cmake", "--build", TOOL_BUILD, "-j", jobs], logfile)


def build_type():
    cache = REPO_BUILD / "CMakeCache.txt"
    m = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache.read_text(), re.M)
    return m.group(1) if m else "?"


class Checks:
    """Correctness oracle: every output attempted, every failure named."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def output(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def require(self, ok, what):
        """A check on outputs already counted (a failure still counts)."""
        if not ok:
            self.failures.append(what)


def digest_of(files):
    digest = hashlib.sha256()
    for f in files:
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    return digest.hexdigest()[:16]


def determinism_check(checks, workload, mode, inputs_dir, record):
    """Deterministic counts must repeat exactly across runs of the same
    inputs on the same code, whatever their --seed (it only orders the
    inputs): the first such run in this tree stores them, later runs
    compare. The key holds a digest of the built programs and of this
    script, so a changed program or record starts a new record."""
    inputs = digest_of(sorted(f for f in inputs_dir.iterdir() if f.is_file()))
    code = digest_of([CLI, SERVE, REPLAY, Path(__file__)])
    store = BUILD / "determinism"
    store.mkdir(exist_ok=True)
    path = store / f"{workload}-{mode}-{inputs}-{code}.json"
    text = json.dumps(record, sort_keys=True)
    if path.is_file():
        checks.require(path.read_text() == text,
                       f"deterministic counts differ from an earlier run "
                       f"with the same inputs ({path.name})")
    else:
        path.write_text(text)


# ------------------------------------------------------------- CLI runs

def cli_compile(checks, argv, label):
    """One tqec_compress child; returns its parsed report."""
    wall, rss, code, out = run_child([CLI, "compress", *argv],
                                     child_env(cli_log=True),
                                     WORK / "launch.txt")
    m = CLI_RESULT.search(out)
    ok = (code == 0 and m is not None and m.group(2) == "legally routed"
          and "shard issue:" not in out)
    totals = [float(t) for t in CLI_COMPILE.findall(out)]
    rec = {"label": label, "wall": wall, "rss": rss, "ok": ok,
           "volume": int(m.group(1)) if m else 0,
           "y_gap": 1 if ESCALATED in out else 0,
           # core::compile's own time; sharded arms run one per window.
           "total_s": totals[0] if len(totals) == 1 else None}
    s = CLI_SHARD.search(out)
    if s:
        rec["windows"], rec["resumed"], rec["reseeded"], rec["seam_cells"] = (
            int(g) for g in s.groups())
    checks.output(ok, f"{label}: exit {code}, "
                      f"{m.group(2) if m else 'no result line'}")
    return rec


def paper_inputs(inputs):
    return sorted(inputs.glob("*.icm"))


def long_arms(checks, icm, work):
    """The three arms on one circuit; the cold arm starts from an empty
    checkpoint directory that the resume arm then reads."""
    ck = work / f"{icm.stem}.ck"
    cold_json = work / f"{icm.stem}.cold.json"
    resume_json = work / f"{icm.stem}.resume.json"
    shutil.rmtree(ck, ignore_errors=True)
    shard = [f"--shard-window={SHARD_WINDOW}", f"--checkpoint-dir={ck}"]
    unsharded = cli_compile(checks, [icm], f"{icm.stem} unsharded")
    cold = cli_compile(checks, [icm, *shard, f"--json={cold_json}"],
                       f"{icm.stem} sharded")
    resume = cli_compile(checks, [icm, *shard, f"--json={resume_json}"],
                         f"{icm.stem} resume")
    checks.require(cold.get("resumed") == 0,
                   f"{icm.stem}: cold sharded arm resumed a window")
    checks.require(resume.get("windows") is not None
                   and resume.get("resumed") == resume.get("windows"),
                   f"{icm.stem}: resume arm did not resume every window")
    same = (cold_json.is_file() and resume_json.is_file()
            and cold_json.read_bytes() == resume_json.read_bytes())
    checks.require(same, f"{icm.stem}: resumed geometry differs from the "
                         f"cold geometry")
    resume_json.unlink(missing_ok=True)
    ck_bytes = sum(f.stat().st_size for f in ck.iterdir()) if ck.is_dir() else 0
    return {"input": icm, "unsharded": unsharded, "sharded": cold,
            "resume": resume, "checkpoint_bytes": ck_bytes, "ckdir": ck,
            "cold_json": cold_json}


def long_inputs(inputs):
    return sorted(inputs.glob("long_*.icm"),
                  key=lambda f: int(f.stem.split("_")[1]))


def timed_passes(files, seed, seconds, run_one):
    """Passes over `files`, each in an order drawn from `seed`, until the
    next input would overrun `seconds` (judged by its first time); the
    first pass always completes. Returns {stem: [run_one(f), ...]}."""
    rng = random.Random(seed)
    samples = {f.stem: [] for f in files}
    first_s = {}
    t0 = time.perf_counter()
    while True:
        order = list(files)
        rng.shuffle(order)
        for f in order:
            if (f.stem in first_s
                    and time.perf_counter() - t0 + first_s[f.stem] > seconds):
                return samples
            t = time.perf_counter()
            samples[f.stem].append(run_one(f))
            first_s.setdefault(f.stem, time.perf_counter() - t)


def same_across_passes(checks, samples, key):
    for stem, recs in samples.items():
        checks.require(all(key(r) == key(recs[0]) for r in recs),
                       f"{stem}: volumes or y_gap differ between passes")


# ------------------------------------------------------------ serve runs

class Daemon:
    """A tqec_serve child on stdin/stdout, under perfbench_launch in its own
    session (so a kill reaches both)."""

    def __init__(self, threads, result_file):
        self.result_file = result_file
        self.t0 = time.perf_counter()
        self.p = subprocess.Popen(
            launched(result_file, [SERVE, f"--threads={threads}"]),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, env=child_env(cli_log=False),
            start_new_session=True)
        self.result = None

    def send(self, obj):
        self.p.stdin.write((json.dumps(obj) + "\n").encode())
        self.p.stdin.flush()

    def recv(self):
        """One response. A response carrying "stats" spans several lines
        (the embedded report is pretty-printed), so lines are joined while
        the text parses as a truncated object: one whose error sits at its
        end."""
        text = ""
        for _ in range(MAX_RESPONSE_LINES):
            line = self.p.stdout.readline().decode("utf-8", "replace")
            if not line:
                raise BenchError("tqec_serve closed its output")
            text += line
            try:
                return json.loads(text)
            except json.JSONDecodeError as e:
                if e.pos < len(text):
                    raise BenchError(f"malformed response: {e}: {text[:200]}")
        raise BenchError(f"response longer than {MAX_RESPONSE_LINES} lines")

    def health_s(self):
        """Launch-to-first-health-reply time."""
        self.send({"admin": "health"})
        reply = self.recv()
        if not reply.get("ok"):
            raise BenchError(f"health check failed: {reply}")
        return time.perf_counter() - self.t0

    def close(self):
        """Close stdin (the daemon drains and exits); returns
        (wall_s, peak_rss_mb, exit code)."""
        if self.result is None:
            try:
                self.p.stdin.close()
            except OSError:
                pass
            self.p.wait()
            self.p.stdout.close()
            self.result = launch_result(self.result_file)
        return self.result

    def kill(self):
        if self.p.poll() is None:
            os.killpg(self.p.pid, signal.SIGKILL)
        self.p.wait()


def request_order(pool_size, seed):
    """The fixed request sequence: the pool once in a seeded order, then
    SERVE_REPEATS seeded draws from it with repeats."""
    rng = random.Random(seed)
    order = list(range(pool_size))
    rng.shuffle(order)
    return order + [rng.randrange(pool_size) for _ in range(SERVE_REPEATS)]


def serve_loop(checks, daemon, pool, seed, seconds, clients, want_stats):
    """Closed loop over request_order(): `clients` requests in flight; each
    response releases the next request. `seconds` only caps the repeats:
    every pooled input is answered once."""
    order = request_order(len(pool), seed)
    inflight = {}
    done = []
    sent = 0
    t0 = time.perf_counter()

    def send_next():
        nonlocal sent
        idx = order[sent]
        req = {"id": f"q{sent}", "real": pool[idx]}
        if want_stats:
            req["stats"] = True
        inflight[req["id"]] = (time.perf_counter(), idx, sent)
        daemon.send(req)
        sent += 1

    for _ in range(clients):
        send_next()
    while inflight:
        resp = daemon.recv()
        now = time.perf_counter()
        t_send, idx, seq = inflight.pop(resp.get("id"))
        rec = {"idx": idx, "seq": seq, "latency": now - t_send,
               "ok": bool(resp.get("ok")) and bool(resp.get("legal")),
               "volume": resp.get("volume", 0), "wall_s": resp.get("wall_s"),
               "cache": resp.get("cache", {}), "y_gap": None}
        if want_stats and rec["ok"]:
            attempts = resp["stats"].get("attempts", [])
            sel = [a for a in attempts if a.get("selected")]
            rec["y_gap"] = sel[0]["y_gap"] if sel else None
        checks.output(rec["ok"], f"request {resp.get('id')}: "
                                 f"{resp.get('error', 'not legal')}")
        done.append(rec)
        if sent < len(pool) or (sent < len(order) and now - t0 < seconds):
            send_next()
    loop_s = time.perf_counter() - t0
    volumes = {}
    for r in done:
        if r["ok"]:
            volumes.setdefault(r["idx"], set()).add(r["volume"])
    checks.require(all(len(v) == 1 for v in volumes.values()),
                   "one input answered with different volumes")
    return done, loop_s, {i: next(iter(v)) for i, v in volumes.items()}


def run_serve(checks, inputs, seed, seconds, want_stats):
    pool_files = sorted(inputs.glob("r*.real"), key=lambda f: int(f.stem[1:]))
    pool = [f.read_text() for f in pool_files]
    # One core stays free for this client and the daemon's reader, so
    # the loop does not measure the scheduler.
    clients = max(1, nproc() - 1)
    setups = []
    daemon = None
    try:
        for k in range(SETUP_LAUNCHES):
            daemon = Daemon(clients, WORK / "launch.txt")
            setups.append(daemon.health_s())
            if k + 1 < SETUP_LAUNCHES:
                daemon.close()
        done, loop_s, volumes = serve_loop(checks, daemon, pool, seed,
                                           seconds, clients, want_stats)
        _, rss, code = daemon.close()
        checks.require(code == 0, f"tqec_serve exited with {code}")
    finally:
        if daemon is not None:
            daemon.kill()
    return {"done": done, "loop_s": loop_s, "volumes": volumes,
            "setups": setups, "rss": rss, "clients": clients,
            "files": pool_files}


# ------------------------------------------------------------ workloads

def generate(workload, inputs):
    """The workload's fixed inputs (the generator's seed arguments are the
    constants above, not --seed)."""
    if workload == "paper":
        argv = ["gen-paper", PAPER_WORKLOAD_SEED, inputs, 1, *PAPER_ROWS]
    elif workload == "long_shard":
        argv = ["gen-long", 0, inputs, LONG_CIRCUITS, *LONG_SHAPE]
    else:
        argv = ["gen-serve", SERVE_POOL_SEED, inputs, SERVE_POOL,
                SERVE_QUBITS, SERVE_GATES]
    sh([REPLAY, *argv], BUILD / "gen.log")


def print_rows(children):
    for c in children:
        extra = "" if c["total_s"] is None else f" compile {c['total_s']:.4f} s"
        log(f"  {c['label']:<16} wall {c['wall']:.4f} s{extra}, "
            f"peak {c['rss']:.1f} MB, volume {c['volume']}, "
            f"y_gap {c['y_gap']}, {'ok' if c['ok'] else 'FAILED'}")


def cli_metrics(requests, outputs, children, volumes):
    """End-to-end metrics the CLI workloads define alike. `requests` holds
    each input's median request time (a paper compile; a long_shard
    circuit's three arms), `outputs` the compiles in one pass."""
    setups = [c["wall"] - c["total_s"] for c in children
              if c["total_s"] is not None]
    describe("request (input medians)", requests, "s")
    describe("setup (wall - compile)", setups, "s")
    return {
        "request_p50_ms": (median(requests) * 1000, "ms"),
        "request_p90_ms": (nearest_rank(requests, 90) * 1000, "ms"),
        "throughput_rps": (outputs / sum(requests), "1/s"),
        "volume_geomean": (geomean(volumes or [1]), "cells"),
        "setup_s": (median(setups), "s"),
    }


def last_pass(samples):
    return [recs[-1] for recs in samples.values()]


def e2e_paper(checks, inputs, seed, seconds):
    samples = timed_passes(paper_inputs(inputs), seed, seconds,
                           lambda f: cli_compile(checks, [f], f.stem))
    same_across_passes(checks, samples, lambda c: (c["volume"], c["y_gap"]))
    children = [c for recs in samples.values() for c in recs]
    log(f"paper: {len(children)} compiles of {len(samples)} inputs")
    print_rows(last_pass(samples))
    walls = [median([c["wall"] for c in recs]) for recs in samples.values()]
    rss = max(median([c["rss"] for c in recs]) for recs in samples.values())
    m = cli_metrics(walls, len(walls), children,
                    [c["volume"] for c in last_pass(samples) if c["ok"]])
    m.update({
        "compile_s": (sum(walls), "s"),
        "compile_s_geomean": (geomean(walls), "s"),
        "peak_rss_mb": (rss, "MB"),
        "unsharded_compile_s": (sum(walls), "s"),
        "unsharded_peak_rss_mb": (rss, "MB"),
        "resume_s": (sum(walls), "s"),
    })
    describe("child", [c["wall"] for c in children], "s")
    record = [[c["label"], c["volume"], c["y_gap"]]
              for c in last_pass(samples)]
    return m, record, last_pass(samples)


ARMS = ("unsharded", "sharded", "resume")


def e2e_long(checks, inputs, work, seed, seconds):
    samples = timed_passes(long_inputs(inputs), seed, seconds,
                           lambda f: long_arms(checks, f, work))
    same_across_passes(checks, samples, lambda c: [
        (c[k]["volume"], c[k]["y_gap"]) for k in ARMS])
    last = last_pass(samples)
    for c in last:
        checks.require(c["sharded"]["volume"] == c["resume"]["volume"],
                       f"{c['input'].stem}: resumed volume differs from the "
                       f"cold sharded volume")
    log(f"long_shard: {sum(map(len, samples.values()))} runs of "
        f"{len(last)} circuits x 3 arms")
    print_rows([c[k] for c in last for k in ARMS])
    for c in last:
        log(f"  {c['input'].stem}: {c['sharded'].get('windows')} windows, "
            f"{c['sharded'].get('reseeded')} reseeded, "
            f"{c['sharded'].get('seam_cells')} seam cells, checkpoint "
            f"{c['checkpoint_bytes']} bytes")

    def per_circuit(value):
        """Each circuit's median of value(run) over its runs."""
        return [median([value(c) for c in recs]) for recs in samples.values()]

    def arm_sum(arm):
        return sum(per_circuit(lambda c: c[arm]["wall"]))

    def arm_median(arm, key):
        return median(per_circuit(lambda c: c[arm][key]))

    m = cli_metrics(per_circuit(lambda c: sum(c[k]["wall"] for k in ARMS)),
                    len(ARMS) * len(last),
                    [c["unsharded"] for recs in samples.values()
                     for c in recs],
                    [c[k]["volume"] for c in last
                     for k in ("unsharded", "sharded") if c[k]["ok"]])
    m.update({
        "compile_s": (arm_sum("sharded"), "s"),
        "compile_s_geomean": (geomean([w for k in ARMS for w in per_circuit(
            lambda c: c[k]["wall"])]), "s"),
        "peak_rss_mb": (arm_median("sharded", "rss"), "MB"),
        "unsharded_compile_s": (arm_sum("unsharded"), "s"),
        "unsharded_peak_rss_mb": (arm_median("unsharded", "rss"), "MB"),
        "resume_s": (arm_sum("resume"), "s"),
    })
    for k in ARMS:
        describe(f"{k} arm", [c[k]["wall"] for recs in samples.values()
                              for c in recs], "s")
    record = [[c["input"].stem, k, c[k]["volume"], c[k]["y_gap"]]
              for c in last for k in ARMS]
    return m, record, last


def e2e_serve(checks, inputs, seed, seconds, want_stats):
    s = run_serve(checks, inputs, seed, seconds, want_stats)
    done = [r for r in s["done"] if r["ok"]]
    if not done:
        raise BenchError("no request succeeded")
    lat = [r["latency"] for r in done]
    walls = [r["wall_s"] for r in done]
    repeats = [r for r in done if r["seq"] >= SERVE_POOL]
    hits = [r["cache"].get("pd_graph") for r in done].count("hit")
    log(f"serve: {len(s['done'])} of {SERVE_POOL + SERVE_REPEATS} requests, "
        f"{s['clients']} clients, {s['loop_s']:.3f} s, {len(repeats)} "
        f"repeats of a pooled input, stage-cache hit share "
        f"{hits / len(done):.3f}")
    describe("request latency", lat, "ms", 1000)
    describe("server compile (wall_s)", walls, "s")
    describe("setup (launch to health)", s["setups"], "s")
    compile_s = median(walls)
    m = {
        "compile_s": (compile_s, "s"),
        "compile_s_geomean": (geomean(walls), "s"),
        "peak_rss_mb": (s["rss"], "MB"),
        "unsharded_compile_s": (compile_s, "s"),
        "unsharded_peak_rss_mb": (s["rss"], "MB"),
        "resume_s": (median([r["wall_s"] for r in repeats])
                     if repeats else compile_s, "s"),
        "volume_geomean": (geomean(list(s["volumes"].values())), "cells"),
        "setup_s": (median(s["setups"]), "s"),
        "request_p50_ms": (median(lat) * 1000, "ms"),
        "request_p90_ms": (nearest_rank(lat, 90) * 1000, "ms"),
        "throughput_rps": (len(s["done"]) / s["loop_s"], "1/s"),
    }
    record = sorted(s["volumes"].items())
    return m, record, s


# ---------------------------------------------------------------- trace

def replay(argv, out):
    sh([REPLAY, *argv], BUILD / "replay.log")
    return json.loads(Path(out).read_text())


def span_sum(spans, name, count=None, where=None):
    total = 0.0
    for s in spans:
        if s["name"] != name or (where and not where(s)):
            continue
        total += s["counts"].get(count, 0) if count else s["dur_ns"] / 1e9
    return total


def layer_metrics(rep):
    sp = rep["spans"]
    route_s = span_sum(sp, "route.route_nets")
    pops = span_sum(sp, "route.route_nets", "pops")
    passes = [s for s in sp if s["name"] == "core.pass"]
    failed = [s for s in passes if s["counts"].get("legal") == 0]
    sa_s = span_sum(sp, "place.place_modules")
    moves = span_sum(sp, "place.place_modules", "moves")
    repacked = span_sum(sp, "place.place_modules", "repacked_nodes")
    return {
        "route.s": (route_s, "s"),
        "route.queue_pops": (pops, "count"),
        "route.queue_pushes": (span_sum(sp, "route.route_nets", "pushes"),
                               "count"),
        "route.reroutes": (span_sum(sp, "route.route_nets", "reroutes"),
                           "count"),
        "route.iterations": (span_sum(sp, "route.route_nets", "iterations"),
                             "count"),
        "route.ns_per_pop": (route_s * 1e9 / pops if pops else 0.0, "ns"),
        "route.passes": (len(passes), "count"),
        "route.failed_passes": (len(failed), "count"),
        "route.failed_pass_s": (sum(s["dur_ns"] for s in failed) / 1e9, "s"),
        "route.pass_yield": ((len(passes) - len(failed)) / len(passes)
                             if passes else 0.0, "ratio"),
        "place.sa_s": (sa_s, "s"),
        "place.sa_moves": (moves, "count"),
        "place.repacked_nodes": (repacked, "count"),
        "place.repacked_per_move": (repacked / moves if moves else 0.0,
                                    "ratio"),
        "place.moves_per_s": (moves / sa_s if sa_s else 0.0, "1/s"),
        "pdgraph.build_s": (span_sum(sp, "pdgraph.build_pd_graph"), "s"),
        "pdgraph.modules": (span_sum(sp, "pdgraph.build_pd_graph", "modules"),
                            "count"),
        "compress.ishape_s": (span_sum(sp, "compress.simplify_ishape"), "s"),
        "compress.primal_s": (span_sum(sp, "compress.bridge_primal_best"),
                              "s"),
        "compress.dual_s": (span_sum(sp, "compress.bridge_dual"), "s"),
        "compress.nodes": (span_sum(sp, "place.build_nodes", "nodes"),
                           "count"),
        "core.emit_s": (span_sum(sp, "core.emit_geometry"), "s"),
        "core.segments": (span_sum(sp, "core.emit_geometry", "segments"),
                          "count"),
        "geom.grid_build_s": (span_sum(sp, "geom.build_occupancy"), "s"),
        "geom.validate_s": (span_sum(sp, "geom.validate"), "s"),
        "shard.validate_s": (span_sum(sp, "shard.validate"), "s"),
        "shard.plan_s": (span_sum(sp, "shard.plan_windows"), "s"),
        "shard.extract_s": (span_sum(sp, "shard.extract_window"), "s"),
        "shard.windows_s": (span_sum(sp, "shard.windows"), "s"),
        "shard.stitch_s": (span_sum(sp, "shard.stitch"), "s"),
        "shard.seam_cells": (span_sum(sp, "shard.stitch", "seam_cells"),
                             "count"),
        "shard.windows_reseeded": (span_sum(sp, "shard.stitch",
                                            "windows_reseeded"), "count"),
        "shard.resume_read_s": (span_sum(sp, "core.compile_sharded",
                                         "read_s"), "s"),
        "verify.s": (span_sum(sp, "verify.verify_design"), "s"),
        "decompose.s": (span_sum(sp, "decompose.decompose"), "s"),
        "icm.build_s": (span_sum(sp, "icm.from_clifford_t"), "s"),
        # Set by the workloads that have them (serve, long_shard).
        "stage_cache.hit_ratio": (0.0, "ratio"),
        "serve.queue_wait_ms": (0.0, "ms"),
        "shard.checkpoint_bytes": (0, "bytes"),
    }


def work_counts(rep):
    """The deterministic counts of a replay, for the determinism check."""
    keys = {"route.route_nets": ("pops", "pushes", "reroutes", "iterations",
                                 "legal"),
            "place.place_modules": ("moves", "repacked_nodes", "iterations"),
            "pdgraph.build_pd_graph": ("modules",),
            "place.build_nodes": ("nodes",),
            "core.emit_geometry": ("segments",),
            "shard.stitch": ("seam_cells", "windows_reseeded")}
    out = []
    for s in rep["spans"]:
        for k in keys.get(s["name"], ()):
            out.append([s["input"], s["name"], k, s["counts"].get(k)])
    out += [[o["input"], o["arm"], "volume", o["volume"]]
            for o in rep["outputs"]]
    return out


def print_passes(rep):
    """One row per place+route escalation level of every unsharded output;
    the sharded arm's window passes are summed into one row."""
    log("per-pass route accounting (replay):")
    for o in rep["outputs"]:
        if o["arm"] == "unsharded":
            for p in o["passes"]:
                log(f"  {o['input']:<16} y_gap {p['y_gap']} "
                    f"place {p['place_s']:.4f} s route {p['route_s']:.4f} s "
                    f"pops {p['pops']} iterations {p['iterations']} "
                    f"{'legal' if p['legal'] else 'ILLEGAL'}")
        elif o["passes"]:
            ps = o["passes"]
            log(f"  {o['input']:<16} {o['arm']} windows: {len(ps)} passes, "
                f"{sum(not p['legal'] for p in ps)} illegal, place "
                f"{sum(p['place_s'] for p in ps):.4f} s route "
                f"{sum(p['route_s'] for p in ps):.4f} s pops "
                f"{sum(p['pops'] for p in ps)}")


def print_self_times(rep):
    """Self time per span name: duration minus what child spans cover."""
    child = {}
    for s in rep["spans"]:
        child[s["parent"]] = child.get(s["parent"], 0) + s["dur_ns"]
    totals = {}
    for s in rep["spans"]:
        t = totals.setdefault(s["name"], [0, 0, 0])
        t[0] += s["dur_ns"]
        t[1] += s["dur_ns"] - child.get(s["id"], 0)
        t[2] += 1
    log("replay spans (name, calls, total s, self s):")
    for name, (tot, self_ns, calls) in sorted(totals.items(),
                                              key=lambda kv: -kv[1][0]):
        log(f"  {name:<28} {calls:>6} {tot / 1e9:10.4f} {self_ns / 1e9:10.4f}")


def fidelity(checks, rep, expected):
    """The replay must reproduce every front-end output: same volume and
    same final y_gap, and every replayed output passes the oracle."""
    for o in rep["outputs"]:
        key = (o["input"], o["arm"])
        checks.output(not o["problems"],
                      f"replay oracle {key}: {o['problems']}")
        if key in expected:
            vol, y_gap = expected[key]
            checks.require(o["volume"] == vol and
                           (y_gap is None or o["y_gap"] == y_gap),
                           f"replay {key} volume {o['volume']} y_gap "
                           f"{o['y_gap']} != front end {vol} y_gap {y_gap}")
        else:  # the front end failed on this input; so must the replay
            checks.require(o["problems"], f"replay {key} succeeded where "
                                          f"the front end failed")


def trace_paper(checks, inputs, work, seed):
    _, record, children = e2e_paper(checks, inputs, seed, 0)
    e2e_wall = sum(c["wall"] for c in children)
    out = work / "replay.json"
    rep = replay(["replay", out, *paper_inputs(inputs)], out)
    fidelity(checks, rep, {(c["label"], "unsharded"): (c["volume"], c["y_gap"])
                           for c in children if c["ok"]})
    return rep, layer_metrics(rep), e2e_wall


def merge_reports(reports):
    """One report from several replay runs (span ids made unique)."""
    merged = {"wall_s": 0.0, "outputs": [], "spans": []}
    for rep in reports:
        base = len(merged["spans"])
        merged["wall_s"] += rep["wall_s"]
        merged["outputs"] += rep["outputs"]
        for sp in rep["spans"]:
            sp["id"] += base
            if sp["parent"] >= 0:
                sp["parent"] += base
            merged["spans"].append(sp)
    return merged


def trace_long(checks, inputs, work, seed):
    _, record, last = e2e_long(checks, inputs, work, seed, 0)
    e2e_wall = sum(c[k]["wall"] for c in last for k in ARMS)
    reports = []
    expected = {}
    for c in last:
        name = c["input"].stem
        out = work / f"{name}.replay.json"
        rep = replay(["replay-long", out, c["input"], SHARD_WINDOW,
                      c["ckdir"]], out)
        cli_geometry = c["cold_json"].read_bytes()
        for o in rep["outputs"]:
            if o["geometry_json"]:
                checks.require(Path(o["geometry_json"]).read_bytes()
                               == cli_geometry,
                               f"replay {name} {o['arm']} geometry differs "
                               f"from the CLI's sharded geometry")
                Path(o["geometry_json"]).unlink()
        for arm in ARMS:
            if c[arm]["ok"]:
                expected[(name, arm)] = (c[arm]["volume"], c[arm]["y_gap"]
                                         if arm == "unsharded" else None)
        reports.append(rep)
    rep = merge_reports(reports)
    fidelity(checks, rep, expected)
    m = layer_metrics(rep)
    m["shard.checkpoint_bytes"] = (sum(c["checkpoint_bytes"] for c in last),
                                   "bytes")
    return rep, m, e2e_wall


def trace_serve(checks, inputs, work, seed, seconds):
    _, record, s = e2e_serve(checks, inputs, seed, seconds, want_stats=True)
    done = [r for r in s["done"] if r["ok"]]
    first = {r["idx"]: r for r in done if r["seq"] < SERVE_POOL}
    e2e_wall = sum(r["wall_s"] for r in first.values())
    out = work / "replay.json"
    files = s["files"]
    rep = replay(["replay", out, *files], out)
    fidelity(checks, rep, {(files[i].stem, "unsharded"):
                           (r["volume"], r["y_gap"])
                           for i, r in first.items()})
    m = layer_metrics(rep)
    lookups = [r["cache"].get("pd_graph") for r in done]
    m["stage_cache.hit_ratio"] = (
        lookups.count("hit") / len(lookups) if lookups else 0.0, "ratio")
    m["serve.queue_wait_ms"] = (median(
        [(r["latency"] - r["wall_s"]) * 1000 for r in done]), "ms")
    return rep, m, e2e_wall


# ----------------------------------------------------------------- main

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["paper", "long_shard", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    try:
        t_build = time.perf_counter()
        build()
        log(f"build: {time.perf_counter() - t_build:.1f} s "
            f"({build_type()}, nproc {nproc()})")
        global WORK
        work = WORK = (BUILD / "work" /
                       f"{args.workload}-{args.seed}-{os.getpid()}")
        shutil.rmtree(work, ignore_errors=True)
        inputs = work / "inputs"
        inputs.mkdir(parents=True)
        try:
            generate(args.workload, inputs)
            checks = Checks()
            if args.trace == 0:
                if args.workload == "paper":
                    m, record, _ = e2e_paper(checks, inputs, args.seed,
                                             args.seconds)
                elif args.workload == "long_shard":
                    m, record, _ = e2e_long(checks, inputs, work,
                                            args.seed, args.seconds)
                else:
                    m, record, _ = e2e_serve(checks, inputs, args.seed,
                                             args.seconds, want_stats=False)
            else:
                if args.workload == "paper":
                    rep, m, e2e_wall = trace_paper(checks, inputs, work,
                                                   args.seed)
                elif args.workload == "long_shard":
                    rep, m, e2e_wall = trace_long(checks, inputs, work,
                                                  args.seed)
                else:
                    rep, m, e2e_wall = trace_serve(checks, inputs, work,
                                                   args.seed, args.seconds)
                print_passes(rep)
                print_self_times(rep)
                m["replay.overhead_s"] = (rep["wall_s"] - e2e_wall, "s")
                record = work_counts(rep)
            determinism_check(checks, args.workload, args.trace,
                              inputs, record)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    for f in checks.failures:
        log(f"CHECK FAILED: {f}")
    failed = min(len(checks.failures), checks.attempted)
    log(f"failed_share: {failed}/{checks.attempted}")
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in m.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
