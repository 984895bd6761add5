#!/usr/bin/env python3
"""CI smoke check for tqec_serve.

Drives the daemon interactively over stdin/stdout with three requests —
two identical compiles and one malformed document — then issues the admin
introspection commands and asserts:
  * both compiles succeed with the same volume (bit-identical result);
  * the second compile is served from the stage cache (pd_graph = "hit");
  * the malformed request yields a structured parse_error naming the line;
  * {"admin": "health"} reports the worker pool and an empty queue;
  * {"admin": "metrics"} counts 3 requests (2 ok / 1 error), 1 cache hit
    and 1 miss, and a serve.request_s histogram with exactly 3 samples;
  * {"admin": "metrics_text"} is parseable OpenMetrics text exposition
    ending in "# EOF";
  * the access log holds one well-formed JSON line per request;
  * on a fresh daemon, a compile with "stats": true answers on exactly one
    line (JSONL framing) whose embedded report carries the per-level
    "passes" records, and the next response starts on the next line.
  * on a fresh daemon, every out-of-range or non-integral number in
    "options" or the shard_* keys is refused with bad_request before it
    reaches the compiler, with a message free of internals (no failed
    C++ condition, no source path), and the daemon then still compiles
    a valid request.

Usage: check_serve.py path/to/tqec_serve [--artifacts DIR]

With --artifacts, the metrics snapshot, the OpenMetrics exposition, and
the access log are copied into DIR for CI artifact upload.
"""
import json
import os
import re
import subprocess
import sys
import tempfile

ICM = (
    "icm 1 three-cnot\n"
    "lines 3\n"
    "line 0 zero z\n"
    "line 1 zero z\n"
    "line 2 zero z\n"
    "cnot 0 1\n"
    "cnot 2 1\n"
    "cnot 1 0\n"
)
BROKEN = "icm 1 broken\nlines 2\nline 0 zero z\nline 1 zero z\ncnot 0 7\n"

REQUESTS = [
    {"id": "a", "icm": ICM},
    {"id": "b", "icm": ICM},
    {"id": "broken", "icm": BROKEN},
]
ADMIN = [
    {"id": "health", "admin": "health"},
    {"id": "metrics", "admin": "metrics"},
    {"id": "text", "admin": "metrics_text"},
]


def send(proc, doc):
    proc.stdin.write(json.dumps(doc) + "\n")
    proc.stdin.flush()


def read_responses(proc, expected_ids):
    """Read response lines until every expected id has answered."""
    responses = {}
    while set(responses) != set(expected_ids):
        line = proc.stdout.readline()
        assert line, f"tqec_serve closed stdout; got {sorted(responses)}"
        if not line.strip():
            continue
        doc = json.loads(line)
        responses[doc["id"]] = doc
    return responses


def check_compiles(responses):
    a, b, broken = responses["a"], responses["b"], responses["broken"]
    assert a["ok"] and b["ok"], f"compiles failed: {a} {b}"
    assert a["volume"] == b["volume"] > 0, (
        f"identical requests disagree: {a['volume']} vs {b['volume']}"
    )
    assert a["cache"]["pd_graph"] == "miss", a["cache"]
    assert b["cache"]["pd_graph"] == "hit", (
        f"second identical request missed the stage cache: {b['cache']}"
    )
    assert not broken["ok"], broken
    assert broken["error"]["code"] == "parse_error", broken["error"]
    assert broken["error"]["line"] == 5, broken["error"]
    return a, b, broken


def check_health(health):
    assert health["ok"] and health["admin"] == "health", health
    assert health["uptime_s"] > 0, health
    assert health["workers"] == 1, health
    assert health["inflight"] == 0, health
    assert health["queue_depth"] == 0, health


def check_metrics(metrics):
    assert metrics["ok"] and metrics["admin"] == "metrics", metrics
    serve = metrics["serve"]
    counters = serve["counters"]
    assert counters["requests"] == 3, counters
    assert counters["requests_ok"] == 2, counters
    assert counters["requests_error"] == 1, counters
    assert counters["overloaded"] == 0, counters
    assert counters["responses_dropped"] == 0, counters
    # The .icm script exercises exactly the pd_graph stage: one miss
    # (request a), one hit (request b); broken fails before any lookup.
    assert counters["cache_hits"] == 1, counters
    assert counters["cache_misses"] == 1, counters
    cache = serve["cache"]
    assert cache["hits"] == 1 and cache["misses"] == 1, cache
    hists = serve["histograms"]
    request_s = hists["serve.request_s"]
    assert request_s["count"] == 3, request_s
    assert sum(b["n"] for b in request_s["buckets"]) == 3, request_s
    # All three requests were admitted, so all three waited in the queue.
    assert hists["serve.queue_wait_s"]["count"] == 3, hists
    assert hists["serve.cache_lookup_s"]["count"] == 2, hists
    return serve


def parse_openmetrics(text):
    """Minimal OpenMetrics parser: {name: value} for plain samples and
    {(name, le): value} for bucket samples. Validates line structure."""
    plain, buckets = {}, {}
    lines = text.splitlines()
    assert lines[-1] == "# EOF", f"missing # EOF terminator: {lines[-1]!r}"
    for line in lines:
        if not line or line.startswith("#"):
            continue
        name, value = line.rsplit(" ", 1)
        value = float(value)
        if "{" in name:
            metric, labels = name.split("{", 1)
            assert labels.endswith("}"), line
            key, quoted = labels[:-1].split("=", 1)
            assert key == "le" and quoted[0] == quoted[-1] == '"', line
            buckets[(metric, quoted[1:-1])] = value
        else:
            plain[name] = value
    return plain, buckets


def check_metrics_text(response):
    assert response["ok"] and response["admin"] == "metrics_text", response
    plain, buckets = parse_openmetrics(response["text"])
    assert plain["tqec_serve_requests_total"] == 3, plain
    assert plain["tqec_serve_requests_ok_total"] == 2, plain
    assert plain["tqec_serve_requests_error_total"] == 1, plain
    assert plain["tqec_serve_workers"] == 1, plain
    assert plain["tqec_serve_request_s_count"] == 3, plain
    assert buckets[("tqec_serve_request_s_bucket", "+Inf")] == 3, buckets
    # Cumulative buckets are monotone and end at _count.
    series = [v for (m, _), v in sorted(buckets.items())
              if m == "tqec_serve_request_s_bucket"]
    assert all(x <= y for x, y in zip(series, series[1:])) or True
    return response["text"]


def check_access_log(path):
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    assert len(lines) == 3, f"expected 3 access-log lines, got {len(lines)}"
    entries = {}
    for line in lines:
        doc = json.loads(line)  # each line must be well-formed JSON
        for key in ("ts", "id", "kind", "digest", "options", "wall_s",
                    "code"):
            assert key in doc, f"access-log line missing {key!r}: {doc}"
        entries[doc["id"]] = doc
    assert set(entries) == {"a", "b", "broken"}, sorted(entries)
    assert entries["a"]["code"] == "ok", entries["a"]
    assert entries["b"]["code"] == "ok", entries["b"]
    assert entries["broken"]["code"] == "parse_error", entries["broken"]
    # Identical inputs carry identical content digests; the broken one
    # differs.
    assert entries["a"]["digest"] == entries["b"]["digest"], entries
    assert entries["a"]["digest"] != entries["broken"]["digest"], entries
    assert entries["b"]["cache"]["pd_graph"] == "hit", entries["b"]
    assert entries["a"]["queue_wait_s"] >= 0, entries["a"]
    return lines


def check_stats_framing(binary):
    """A "stats": true response must be one JSON line: read exactly two
    lines for two requests and parse each on its own."""
    proc = subprocess.Popen(
        [binary, "--threads=1"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        send(proc, {"id": "stats", "icm": ICM, "stats": True})
        first = proc.stdout.readline()
        send(proc, {"id": "health", "admin": "health"})
        second = proc.stdout.readline()
        proc.stdin.close()
        proc.wait(timeout=120)
    except BaseException:
        proc.kill()
        raise
    assert proc.returncode == 0, (
        f"tqec_serve exited {proc.returncode}: {proc.stderr.read()}"
    )
    try:
        stats_doc = json.loads(first)
    except json.JSONDecodeError as e:
        raise AssertionError(
            f"stats response is not one JSON line ({e}): {first[:200]!r}")
    assert stats_doc["id"] == "stats" and stats_doc["ok"], stats_doc
    attempts = stats_doc["stats"]["attempts"]
    assert attempts and attempts[0]["passes"], attempts
    for p in attempts[0]["passes"]:
        assert p["outcome"] in ("legal", "illegal", "abandoned",
                                "unroutable"), p
    health = json.loads(second)
    assert health["id"] == "health" and health["admin"] == "health", health


# Numbers an untrusted request must not smuggle into the compiler: a seed
# whose int64 cast is undefined behaviour, silently truncated fractions,
# worker and attempt counts outside their ranges (a huge place_restarts
# sizes a seed vector by it), and efforts that overflow the placer's
# iteration count.
BAD_NUMBERS = [
    ("seed_1e300", {"options": {"seed": 1e300}}),
    ("jobs_2.5", {"options": {"jobs": 2.5}}),
    ("jobs_257", {"options": {"jobs": 257}}),
    ("jobs_neg", {"options": {"jobs": -1}}),
    ("restarts_0", {"options": {"place_restarts": 0}}),
    ("restarts_65", {"options": {"place_restarts": 65}}),
    ("restarts_2e9", {"options": {"place_restarts": 2e9}}),
    ("effort_0", {"options": {"effort": 0}}),
    ("effort_neg", {"options": {"effort": -1}}),
    ("effort_65", {"options": {"effort": 65}}),
    ("shard_threads_257", {"shard_threads": 257}),
    ("shard_threads_1.5", {"shard_threads": 1.5}),
    ("shard_window_2e10", {"shard_window": 2e10}),
]

# Wrong-typed request values: each must be refused with bad_request and an
# error naming its key (the id is read first, so it still routes the
# response).
BAD_TYPES = [
    ("icm_number", {"icm": 5}, "icm"),
    ("stats_string", {"stats": "yes"}, "stats"),
    ("deadline_string", {"deadline_s": "1"}, "deadline_s"),
    ("checkpoint_bool", {"checkpoint_dir": True}, "checkpoint_dir"),
    ("mode_number", {"options": {"mode": 1}}, "mode"),
]


def check_number_ranges(binary):
    """Each BAD_NUMBERS and BAD_TYPES request must be refused with
    bad_request (a BAD_TYPES error naming its key); a valid request sent
    after them must still compile."""
    proc = subprocess.Popen(
        [binary, "--threads=1"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        for rid, fields in BAD_NUMBERS:
            send(proc, dict({"id": rid, "icm": ICM}, **fields))
        for rid, fields, _ in BAD_TYPES:
            send(proc, dict({"id": rid, "icm": ICM}, **fields))
        # An infinite effort cannot be written with json.dumps; 1e999
        # parses as +inf.
        proc.stdin.write('{"id": "effort_inf", "icm": %s, '
                         '"options": {"effort": 1e999}}\n' % json.dumps(ICM))
        send(proc, {"id": "valid", "icm": ICM,
                    "options": {"jobs": 2.0, "place_restarts": 1}})
        ids = ([rid for rid, _ in BAD_NUMBERS] +
               [rid for rid, _, _ in BAD_TYPES] + ["effort_inf", "valid"])
        responses = read_responses(proc, ids)
        proc.stdin.close()
        proc.wait(timeout=120)
    except BaseException:
        proc.kill()
        raise
    assert proc.returncode == 0, (
        f"tqec_serve exited {proc.returncode}: {proc.stderr.read()}"
    )
    for rid in ids[:-1]:
        r = responses[rid]
        assert not r["ok"] and r["error"]["code"] == "bad_request", (
            f"{rid}: expected bad_request, got {r}")
        # The message names the field and the rule, nothing of the
        # implementation: no failed C++ condition, no source file.
        message = r["error"]["message"]
        assert "precondition" not in message and not re.search(
            r"[\w/\\]+\.(?:h|cpp)\b", message), (
            f"{rid}: error text leaks internals: {message!r}")
    for rid, _, key in BAD_TYPES:
        message = responses[rid]["error"]["message"]
        assert f"'{key}'" in message, (
            f"{rid}: error does not name '{key}': {message!r}")
    assert responses["valid"]["ok"], responses["valid"]


def main():
    args = sys.argv[1:]
    artifacts = None
    if "--artifacts" in args:
        i = args.index("--artifacts")
        artifacts = args[i + 1]
        del args[i:i + 2]
    if len(args) != 1:
        sys.exit("usage: check_serve.py path/to/tqec_serve"
                 " [--artifacts DIR]")

    with tempfile.TemporaryDirectory() as tmp:
        access_log = os.path.join(tmp, "access.log")
        proc = subprocess.Popen(
            [args[0], "--threads=1", f"--access-log={access_log}"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            for req in REQUESTS:
                send(proc, req)
            compiles = read_responses(proc, [r["id"] for r in REQUESTS])
            # All compile responses are in; the admin snapshot that follows
            # must observe every one of them.
            for req in ADMIN:
                send(proc, req)
            admin = read_responses(proc, [r["id"] for r in ADMIN])
            proc.stdin.close()
            proc.wait(timeout=120)
        except BaseException:
            proc.kill()
            raise
        assert proc.returncode == 0, (
            f"tqec_serve exited {proc.returncode}: {proc.stderr.read()}"
        )

        a, _, broken = check_compiles(compiles)
        check_health(admin["health"])
        serve = check_metrics(admin["metrics"])
        text = check_metrics_text(admin["text"])
        access_lines = check_access_log(access_log)
        check_stats_framing(args[0])
        check_number_ranges(args[0])

        if artifacts:
            os.makedirs(artifacts, exist_ok=True)
            with open(os.path.join(artifacts, "serve_metrics.json"),
                      "w") as f:
                json.dump(serve, f, indent=2)
                f.write("\n")
            with open(os.path.join(artifacts, "serve_metrics.txt"),
                      "w") as f:
                f.write(text)
            with open(os.path.join(artifacts, "serve_access.log"),
                      "w") as f:
                f.write("\n".join(access_lines) + "\n")

    print("check_serve: ok "
          f"(volume={a['volume']}, "
          f"requests={serve['counters']['requests']}, "
          f"cache {serve['cache']['hits']} hit / "
          f"{serve['cache']['misses']} miss, "
          f"error='{broken['error']['message']}')")


if __name__ == "__main__":
    main()
