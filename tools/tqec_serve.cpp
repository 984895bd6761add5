// tqec_serve — long-running compilation service over newline-delimited JSON.
//
//   tqec_serve [--threads=N] [--queue=N] [--cache-bytes=N] [--socket=PATH]
//              [--access-log=PATH] [--slow-s=F]
//
// Requests arrive one JSON object per line on stdin (default) or on a
// Unix-domain socket; responses leave one JSON object per line on stdout /
// the same connection, in completion order, correlated by "id".
//
// Request:
//   {"id": "r1",
//    "benchmark": "hwb-50-56" | "real": "<.real text>" | "icm": "<.icm text>",
//    "optimize": true,              // .real only: reversible peephole pass
//    "options": {"mode": "full|dual|modular", "seed": N, "effort": F,
//                "jobs": N, "place_restarts": K, "plan": true},
//                                   // integers must be integral JSON
//                                   // numbers; jobs in [0, 256],
//                                   // place_restarts in [1, 64], effort
//                                   // finite in (0, 64] — else bad_request
//    "shard_window": 0,             // time-axis sharding: ASAP layers per
//                                   // window (0 = off; see core/shard.h)
//    "shard_threads": 1,            // concurrent window compiles in
//                                   // [0, 256] (never changes results)
//    "checkpoint_dir": "",          // per-window resume checkpoints
//    "deadline_s": 30.0,            // wall-clock budget; 0 = none
//    "geometry": false,             // emit + validate the 3D geometry
//    "stats": false}                // embed the full stats_json v2 report
//   {"cancel": "r1"}                // cancel an in-flight request
//
// Admin introspection (answered inline by the read loop — fast even when
// every worker is busy):
//   {"admin": "health"}        -> {"ok": true, "admin": "health",
//                                  "uptime_s": U, "inflight": N,
//                                  "queue_depth": Q, "workers": W}
//   {"admin": "metrics"}       -> {"ok": true, "admin": "metrics",
//                                  "serve": {counters, cache, histograms}}
//   {"admin": "metrics_text"}  -> {"ok": true, "admin": "metrics_text",
//                                  "text": "<OpenMetrics exposition>"}
// An optional "id" is echoed back. The metrics_text body is the standard
// Prometheus/OpenMetrics text format shipped as a JSON string; a scraper
// sidecar extracts the "text" field and serves it over HTTP.
//
// Response (success):
//   {"id": "r1", "ok": true, "volume": V, "legal": true, "modules": M,
//    "nodes": N, "wall_s": S, "cache": {"decompose": "hit|miss|skip", ...},
//    "shard": {"windows_total": W, "windows_resumed": R,
//              "seam_cells": C, ...},   // only for sharded requests
//    "stats": {...},                // only when the request asked for it
//    "debug": {...}}                // only for slow requests (see --slow-s)
// Response (failure):
//   {"id": "r1", "ok": false,
//    "error": {"code": "bad_request|parse_error|cancelled|deadline_exceeded|
//              overloaded|internal", "message": "...",
//              "source": "...", "line": L}}   // parse_error only
//
// Observability: the server keeps always-on latency histograms
// (serve.request_s, serve.queue_wait_s, serve.stage.*_s, plus the
// Compiler's serve.cache_lookup_s) and counters; the trace flight recorder
// runs permanently so a request slower than --slow-s attaches its span
// tree to the response's "debug" field. --access-log=PATH appends one JSON
// line per request (timestamp, id, input digest, options, queue wait,
// stage times, cache outcomes, result code). All of it is observational:
// responses are bit-identical with every surface on or off.
//
// Scheduling: requests run on a fixed WorkerPool; the admission queue is
// bounded (--queue) and a full queue rejects immediately with "overloaded"
// rather than stalling the read loop — the client owns backoff/retry.
// Identical pure-prefix stages across requests are served from the shared
// content-hash stage cache (--cache-bytes, 0 disables; see
// core/stage_cache.h).
#include <atomic>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "common/hash.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/socket.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "core/service.h"

namespace {

using namespace tqec;

struct ServeOptions {
  int threads = 0;  // 0 = one per hardware thread
  std::size_t queue = 64;
  std::int64_t cache_bytes = std::int64_t{256} << 20;
  std::string socket_path;  // empty = stdin/stdout
  std::string access_log;   // empty = no access log
  double slow_s = 0;        // 0 = no slow-request capture
};

int usage() {
  std::fprintf(stderr,
               "usage: tqec_serve [--threads=N] [--queue=N]"
               " [--cache-bytes=N] [--socket=PATH]\n"
               "                  [--access-log=PATH] [--slow-s=F]\n"
               "reads one JSON request per line on stdin (or PATH), writes\n"
               "one JSON response per line on stdout (or the connection)\n");
  return 2;
}

/// Serialized sink for response lines: workers finish in any order, the
/// mutex keeps each line atomic. Jobs hold the connection fd alive through
/// the shared_ptr even after the read loop moved on.
struct Output {
  Output(int fd, std::atomic<std::uint64_t>* dropped)
      : fd(fd), dropped(dropped) {}
  Output(net::Fd conn, std::atomic<std::uint64_t>* dropped)
      : owned(std::move(conn)), fd(owned.get()), dropped(dropped) {}
  std::mutex mutex;
  net::Fd owned;
  int fd;
  std::atomic<std::uint64_t>* dropped;  // serve.responses_dropped

  /// Write one response line; false when the line was dropped. Drops are
  /// never silent: each one bumps the responses_dropped counter and logs
  /// the request id — at debug for a vanished client (EPIPE/ECONNRESET,
  /// not a server fault) and at warn for anything else.
  bool write_line(const std::string& line, const std::string& id = {}) {
    const std::lock_guard<std::mutex> lock(mutex);
    if (net::write_all(fd, line + "\n")) return true;
    const int err = errno;  // write_all preserves the failing errno
    if (dropped != nullptr)
      dropped->fetch_add(1, std::memory_order_relaxed);
    const char* shown = id.empty() ? "<none>" : id.c_str();
    if (err == EPIPE || err == ECONNRESET) {
      TQEC_LOG_DEBUG("response dropped, client gone ("
                     << std::strerror(err) << "); id=" << shown);
    } else {
      TQEC_LOG_WARN("response write failed (" << std::strerror(err)
                                              << "); id=" << shown);
    }
    return false;
  }
};

/// In-flight request registry backing {"cancel": id}.
class InflightMap {
 public:
  void add(const std::string& id, CancelToken token) {
    if (id.empty()) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    tokens_[id] = std::move(token);
  }
  void remove(const std::string& id) {
    if (id.empty()) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    tokens_.erase(id);
  }
  bool cancel(const std::string& id) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = tokens_.find(id);
    if (it == tokens_.end()) return false;
    it->second.cancel();
    return true;
  }

 private:
  std::mutex mutex_;
  std::map<std::string, CancelToken> tokens_;
};

/// Append-only JSONL access log; the mutex keeps concurrent workers' lines
/// whole, the per-line flush keeps the file complete after a crash.
class AccessLog {
 public:
  explicit AccessLog(const std::string& path)
      : file_(std::fopen(path.c_str(), "a")) {
    if (file_ == nullptr)
      throw TqecError("cannot open access log '" + path +
                      "': " + std::strerror(errno));
  }
  ~AccessLog() {
    if (file_ != nullptr) std::fclose(file_);
  }
  AccessLog(const AccessLog&) = delete;
  AccessLog& operator=(const AccessLog&) = delete;

  void write(const std::string& line) {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::fputs(line.c_str(), file_);
    std::fputc('\n', file_);
    std::fflush(file_);
  }

 private:
  std::mutex mutex_;
  std::FILE* file_;
};

std::string quoted(const std::string& s) {
  return "\"" + json::escape(s) + "\"";
}

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

std::string error_line(const std::string& id, const std::string& code,
                       const std::string& message,
                       const std::string& source = {}, int line = 0) {
  std::string out = "{\"id\": " + quoted(id) +
                    ", \"ok\": false, \"error\": {\"code\": " + quoted(code) +
                    ", \"message\": " + quoted(message);
  if (!source.empty())
    out += ", \"source\": " + quoted(source) +
           ", \"line\": " + std::to_string(line);
  return out + "}}";
}

std::string response_line(const std::string& id, const CompileResponse& r,
                          bool want_stats, const std::string& debug = {}) {
  if (!r.ok)
    return error_line(id, r.error.code_name(), r.error.message,
                      r.error.source, r.error.line);
  const core::CompileResult& res = r.result;
  const core::CacheUsage& c = res.cache;
  std::string out =
      "{\"id\": " + quoted(id) + ", \"ok\": true, \"volume\": " +
      std::to_string(res.volume) +
      ", \"legal\": " + (res.routed_legal ? "true" : "false") +
      ", \"modules\": " + std::to_string(res.modules) +
      ", \"nodes\": " + std::to_string(res.nodes) +
      ", \"wall_s\": " + fmt_double(r.wall_s) +
      ", \"cache\": {\"enabled\": " + (c.enabled ? "true" : "false") +
      ", \"decompose\": " + quoted(c.decompose) +
      ", \"icm\": " + quoted(c.icm) +
      ", \"pd_graph\": " + quoted(c.pd_graph) +
      ", \"hits\": " + std::to_string(c.hits) +
      ", \"misses\": " + std::to_string(c.misses) +
      ", \"entries\": " + std::to_string(c.entries) +
      ", \"bytes\": " + std::to_string(c.bytes) +
      ", \"evictions\": " + std::to_string(c.evictions) + "}";
  if (res.shard.enabled) {
    const core::ShardStats& sh = res.shard;
    out += ", \"shard\": {\"windows_total\": " +
           std::to_string(sh.windows_total) +
           ", \"windows_resumed\": " + std::to_string(sh.windows_resumed) +
           ", \"crossings\": " + std::to_string(sh.crossings) +
           ", \"stitches\": " + std::to_string(sh.stitches) +
           ", \"seam_cells\": " + std::to_string(sh.seam_cells) +
           ", \"stitch_s\": " + fmt_double(sh.stitch_s) + "}";
  }
  if (want_stats) {
    // stats_json emits a complete, pretty-printed JSON object. Its string
    // values escape every control character, so each raw newline is
    // layout between tokens: drop them to keep the response on one line.
    std::string stats = core::stats_json(res);
    std::erase(stats, '\n');
    out += ", \"stats\": " + stats;
  }
  if (!debug.empty()) out += ", \"debug\": " + debug;
  return out + "}";
}

const char* mode_name(core::PipelineMode mode) {
  switch (mode) {
    case core::PipelineMode::DualOnly: return "dual";
    case core::PipelineMode::ModularOnly: return "modular";
    default: return "full";
  }
}

/// A request value read with one of json::Value's typed accessors
/// (as_string, as_bool, as_double, as_int); a wrong-typed value throws
/// TqecError naming the key.
template <typename T>
T field(const json::Value& v, const char* key, T (json::Value::*as)() const) {
  try {
    return (v.*as)();
  } catch (const TqecError& e) {
    throw TqecError(std::string("'") + key + "': " + e.what());
  }
}

std::string string_field(const json::Value& v, const char* key) {
  return field(v, key, &json::Value::as_string);
}
bool bool_field(const json::Value& v, const char* key) {
  return field(v, key, &json::Value::as_bool);
}

/// An integer request field within [lo, hi]; throws TqecError naming the
/// key otherwise. Requests are untrusted: a worker count or attempt count
/// goes on to size thread pools and seed vectors.
int int_in_range(const json::Value& v, const char* key, int lo, int hi) {
  const std::int64_t n = field(v, key, &json::Value::as_int);
  if (n < lo || n > hi)
    throw TqecError(std::string("'") + key + "' must be in [" +
                    std::to_string(lo) + ", " + std::to_string(hi) + "]");
  return static_cast<int>(n);
}

/// Worker counts a request may ask for (0 = one per hardware thread).
constexpr int kMaxRequestThreads = 256;

/// Translate a request's "options" object onto core::CompileOptions;
/// throws TqecError on unknown modes, wrong types, and out-of-range
/// numbers (surfaced as bad_request by the caller).
void apply_options(const json::Value& v, core::CompileOptions& opt) {
  if (const json::Value* m = v.find("mode")) {
    const std::string mode = string_field(*m, "mode");
    if (mode == "full") opt.mode = core::PipelineMode::Full;
    else if (mode == "dual") opt.mode = core::PipelineMode::DualOnly;
    else if (mode == "modular") opt.mode = core::PipelineMode::ModularOnly;
    else throw TqecError("unknown mode '" + mode + "'");
  }
  if (const json::Value* m = v.find("seed"))
    opt.seed =
        static_cast<std::uint64_t>(field(*m, "seed", &json::Value::as_int));
  if (const json::Value* m = v.find("effort")) {
    // The placer scales its iteration count by effort and casts to int.
    opt.effort = field(*m, "effort", &json::Value::as_double);
    if (!std::isfinite(opt.effort) || opt.effort <= 0 || opt.effort > 64)
      throw TqecError("'effort' must be finite and in (0, 64]");
  }
  if (const json::Value* m = v.find("jobs"))
    opt.jobs = int_in_range(*m, "jobs", 0, kMaxRequestThreads);
  if (const json::Value* m = v.find("place_restarts"))
    opt.place_restarts = int_in_range(*m, "place_restarts", 1, 64);
  if (const json::Value* m = v.find("plan"))
    opt.plan_flips = bool_field(*m, "plan");
}

/// What the access log remembers about a request before it runs.
struct RequestMeta {
  std::string id;
  const char* kind = "unknown";  // benchmark | real | icm | unknown
  std::string digest;            // 32-hex-char content digest of the input
  std::string options_json;      // applied options, already serialized
  std::uint64_t t_recv = 0;      // trace::now_ns() at the read loop
};

std::string digest_hex(const std::string& text) {
  Digest128 d;
  d.update(text);
  char buf[36];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(d.hi),
                static_cast<unsigned long long>(d.lo));
  return buf;
}

std::string options_json(const CompileRequest& req) {
  const core::CompileOptions& o = req.options;
  std::string out =
      std::string("{\"mode\": ") + quoted(mode_name(o.mode)) +
      ", \"seed\": " + std::to_string(o.seed) +
      ", \"effort\": " + fmt_double(o.effort) +
      ", \"jobs\": " + std::to_string(o.jobs) +
      ", \"place_restarts\": " + std::to_string(o.place_restarts) +
      ", \"plan\": " + (o.plan_flips ? "true" : "false");
  if (req.shard.window > 0)
    out += ", \"shard_window\": " + std::to_string(req.shard.window) +
           ", \"shard_threads\": " + std::to_string(req.shard.threads);
  return out + "}";
}

/// Completed spans as a JSON array (names, process-relative start, dur).
std::string spans_json(const std::vector<trace::FlightRecord>& spans) {
  std::string out = "[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const trace::FlightRecord& s = spans[i];
    if (i > 0) out += ", ";
    out += "{\"name\": " + quoted(s.name ? s.name : "") +
           ", \"start_s\": " +
           fmt_double(static_cast<double>(s.start_ns) / 1e9) +
           ", \"dur_s\": " + fmt_double(static_cast<double>(s.dur_ns) / 1e9) +
           ", \"tid\": " + std::to_string(s.tid) + "}";
  }
  return out + "]";
}

/// Always-on service counters. Plain relaxed atomics: each is a
/// commutative sum, so totals are deterministic for any worker count.
struct ServerStats {
  std::atomic<std::uint64_t> requests_total{0};
  std::atomic<std::uint64_t> requests_ok{0};
  std::atomic<std::uint64_t> requests_error{0};
  std::atomic<std::uint64_t> overloaded{0};
  std::atomic<std::uint64_t> cancel_requests{0};
  std::atomic<std::uint64_t> admin_requests{0};
  std::atomic<std::uint64_t> responses_dropped{0};
  std::atomic<std::uint64_t> slow_requests{0};
  /// Time-axis sharding totals over all sharded requests (core/shard.h).
  std::atomic<std::uint64_t> sharded_requests{0};
  std::atomic<std::uint64_t> windows_total{0};
  std::atomic<std::uint64_t> windows_resumed{0};
  std::atomic<std::uint64_t> seam_cells{0};
  /// Requests admitted but not yet answered (queued + running).
  std::atomic<std::int64_t> inflight{0};
};

class Server {
 public:
  Server(const ServeOptions& serve_opt)
      : compiler_(CompilerConfig{serve_opt.cache_bytes,
                                 serve_opt.cache_bytes > 0}),
        pool_(serve_opt.threads > 0
                  ? serve_opt.threads
                  : static_cast<int>(std::thread::hardware_concurrency()),
              serve_opt.queue),
        slow_ns_(serve_opt.slow_s > 0
                     ? static_cast<std::uint64_t>(serve_opt.slow_s * 1e9)
                     : 0),
        slow_s_(serve_opt.slow_s),
        start_ns_(trace::now_ns()) {
    if (!serve_opt.access_log.empty())
      access_log_ = std::make_unique<AccessLog>(serve_opt.access_log);
    // The flight recorder stays on for the server's lifetime: bounded
    // memory, lock-free record path, and it is what lets --slow-s attach
    // a span tree to a slow response after the fact.
    trace::set_flight_recorder_enabled(true);
  }

  std::atomic<std::uint64_t>* dropped_counter() {
    return &stats_.responses_dropped;
  }

  /// Handle one request line; every outcome becomes exactly one response
  /// line on `out` (now, for rejections and admin; later, for admitted
  /// requests) and — for compile requests — exactly one access-log line.
  void handle_line(const std::string& line,
                   const std::shared_ptr<Output>& out) {
    if (trim(line).empty()) return;
    const std::uint64_t t_recv = trace::now_ns();
    json::Value doc;
    try {
      doc = json::parse(line);
      if (!doc.is_object()) throw TqecError("request must be a JSON object");
    } catch (const std::exception& e) {
      RequestMeta meta;
      meta.t_recv = t_recv;
      finish_rejected(meta, "bad_request", e.what(), out);
      return;
    }

    if (const json::Value* cancel = doc.find("cancel")) {
      // Cancellation acknowledgement: ok reports whether the id was still
      // in flight (the compile's own response still arrives, as
      // "cancelled", once the pipeline reaches a stage boundary).
      stats_.cancel_requests.fetch_add(1, std::memory_order_relaxed);
      std::string id;
      bool hit = false;
      try {
        id = string_field(*cancel, "cancel");
        hit = inflight_.cancel(id);
      } catch (const std::exception& e) {
        out->write_line(error_line("", "bad_request", e.what()));
        return;
      }
      out->write_line("{\"id\": " + quoted(id) +
                      ", \"ok\": " + (hit ? "true" : "false") +
                      ", \"cancelled\": " + (hit ? "true" : "false") + "}",
                      id);
      return;
    }

    if (const json::Value* admin = doc.find("admin")) {
      handle_admin(*admin, doc, out);
      return;
    }

    CompileRequest req;
    RequestMeta meta;
    meta.t_recv = t_recv;
    bool want_stats = false;
    try {
      if (const json::Value* v = doc.find("id"))
        req.id = string_field(*v, "id");
      if (const json::Value* v = doc.find("real"))
        req.real_text = string_field(*v, "real");
      if (const json::Value* v = doc.find("icm"))
        req.icm_text = string_field(*v, "icm");
      if (const json::Value* v = doc.find("benchmark"))
        req.benchmark = string_field(*v, "benchmark");
      if (const json::Value* v = doc.find("optimize"))
        req.optimize = bool_field(*v, "optimize");
      if (const json::Value* v = doc.find("deadline_s"))
        req.deadline_s = field(*v, "deadline_s", &json::Value::as_double);
      // Table statistics only by default; geometry emission is the one
      // expensive output a service client usually doesn't want.
      req.options.emit_geometry = false;
      if (const json::Value* v = doc.find("geometry"))
        req.options.emit_geometry = bool_field(*v, "geometry");
      if (const json::Value* v = doc.find("stats"))
        want_stats = bool_field(*v, "stats");
      if (const json::Value* v = doc.find("options"))
        apply_options(*v, req.options);
      if (const json::Value* v = doc.find("shard_window"))
        req.shard.window =
            int_in_range(*v, "shard_window", std::numeric_limits<int>::min(),
                         std::numeric_limits<int>::max());
      if (const json::Value* v = doc.find("shard_threads"))
        req.shard.threads =
            int_in_range(*v, "shard_threads", 0, kMaxRequestThreads);
      if (const json::Value* v = doc.find("checkpoint_dir"))
        req.shard.checkpoint_dir = string_field(*v, "checkpoint_dir");
    } catch (const std::exception& e) {
      meta.id = req.id;
      finish_rejected(meta, "bad_request", e.what(), out);
      return;
    }

    meta.id = req.id;
    if (!req.benchmark.empty()) {
      meta.kind = "benchmark";
      meta.digest = digest_hex(req.benchmark);
    } else if (!req.real_text.empty()) {
      meta.kind = "real";
      meta.digest = digest_hex(req.real_text);
    } else if (!req.icm_text.empty()) {
      meta.kind = "icm";
      meta.digest = digest_hex(req.icm_text);
    }
    meta.options_json = options_json(req);

    req.options.cancel = CancelToken();
    const std::string id = req.id;
    inflight_.add(id, req.options.cancel);
    stats_.inflight.fetch_add(1, std::memory_order_relaxed);
    auto job = [this, req = std::move(req), meta = std::move(meta),
                want_stats, out] {
      run_request(req, meta, want_stats, out);
    };
    if (!pool_.submit(std::move(job))) {
      // Admission control: a full queue answers immediately instead of
      // wedging the read loop behind the slowest compile.
      inflight_.remove(id);
      stats_.inflight.fetch_sub(1, std::memory_order_relaxed);
      stats_.overloaded.fetch_add(1, std::memory_order_relaxed);
      RequestMeta rejected;
      rejected.id = id;
      rejected.t_recv = t_recv;
      finish_rejected(rejected, "overloaded",
                      "admission queue full; retry later", out);
    }
  }

  void drain() { pool_.shutdown(); }

 private:
  /// Run one admitted request on a worker thread: compile, record the
  /// latency histograms, capture a slow request's spans, answer, log.
  void run_request(const CompileRequest& req, const RequestMeta& meta,
                   bool want_stats, const std::shared_ptr<Output>& out) {
    const std::uint64_t t_start = trace::now_ns();
    const double queue_wait_s =
        static_cast<double>(t_start - meta.t_recv) / 1e9;
    queue_wait_s_.record_s(queue_wait_s);

    const CompileResponse response = compiler_.compile(req);

    inflight_.remove(req.id);
    stats_.inflight.fetch_sub(1, std::memory_order_relaxed);
    const std::uint64_t t_end = trace::now_ns();
    const double wall_s = static_cast<double>(t_end - meta.t_recv) / 1e9;
    request_s_.record_s(wall_s);
    stats_.requests_total.fetch_add(1, std::memory_order_relaxed);
    std::string debug;
    if (response.ok) {
      stats_.requests_ok.fetch_add(1, std::memory_order_relaxed);
      record_stage_times(response.result.timings);
      if (response.result.shard.enabled) {
        const core::ShardStats& sh = response.result.shard;
        stats_.sharded_requests.fetch_add(1, std::memory_order_relaxed);
        stats_.windows_total.fetch_add(
            static_cast<std::uint64_t>(sh.windows_total),
            std::memory_order_relaxed);
        stats_.windows_resumed.fetch_add(
            static_cast<std::uint64_t>(sh.windows_resumed),
            std::memory_order_relaxed);
        stats_.seam_cells.fetch_add(
            static_cast<std::uint64_t>(sh.seam_cells),
            std::memory_order_relaxed);
      }
    } else {
      stats_.requests_error.fetch_add(1, std::memory_order_relaxed);
    }
    const bool slow = slow_ns_ > 0 && t_end - t_start >= slow_ns_;
    if (slow) {
      stats_.slow_requests.fetch_add(1, std::memory_order_relaxed);
      // This worker thread ran the whole compile, so its flight ring
      // filtered to spans that started after t_start is exactly this
      // request's (top-level) span tree.
      debug = "{\"slow\": true, \"threshold_s\": " + fmt_double(slow_s_) +
              ", \"spans\": " +
              spans_json(trace::flight_records_this_thread(t_start)) + "}";
    }
    out->write_line(response_line(req.id, response, want_stats, debug),
                    req.id);
    if (access_log_ != nullptr)
      access_log_->write(access_line(meta, queue_wait_s, wall_s, &response,
                                     debug));
  }

  /// Answer a request rejected before it reached a worker (bad JSON,
  /// bad_request, overloaded). Rejections are requests too: they count,
  /// they land in serve.request_s, and they get an access-log line — so
  /// requests_total always equals the request_s sample count.
  void finish_rejected(const RequestMeta& meta, const std::string& code,
                       const std::string& message,
                       const std::shared_ptr<Output>& out) {
    const double wall_s =
        static_cast<double>(trace::now_ns() - meta.t_recv) / 1e9;
    request_s_.record_s(wall_s);
    stats_.requests_total.fetch_add(1, std::memory_order_relaxed);
    stats_.requests_error.fetch_add(1, std::memory_order_relaxed);
    out->write_line(error_line(meta.id, code, message), meta.id);
    if (access_log_ != nullptr)
      access_log_->write(access_line_rejected(meta, wall_s, code));
  }

  void record_stage_times(const core::StageTimings& t) {
    // Only stages that actually ran; a zero time means the stage was
    // skipped by the pipeline mode, not that it took zero seconds.
    if (t.pd_graph_s > 0) stage_pd_graph_s_.record_s(t.pd_graph_s);
    if (t.ishape_s > 0) stage_ishape_s_.record_s(t.ishape_s);
    if (t.primal_bridge_s > 0)
      stage_primal_bridge_s_.record_s(t.primal_bridge_s);
    if (t.dual_bridge_s > 0) stage_dual_bridge_s_.record_s(t.dual_bridge_s);
    if (t.place_s > 0) stage_place_s_.record_s(t.place_s);
    if (t.route_s > 0) stage_route_s_.record_s(t.route_s);
  }

  // -- access log -----------------------------------------------------------

  std::string access_line_common(const RequestMeta& meta, double wall_s,
                                 const std::string& code) const {
    return "{\"ts\": " + quoted(iso8601_utc_now()) +
           ", \"id\": " + quoted(meta.id) + ", \"kind\": \"" + meta.kind +
           "\", \"digest\": " + quoted(meta.digest) + ", \"options\": " +
           (meta.options_json.empty() ? std::string("{}")
                                      : meta.options_json) +
           ", \"wall_s\": " + fmt_double(wall_s) +
           ", \"code\": " + quoted(code);
  }

  std::string access_line_rejected(const RequestMeta& meta, double wall_s,
                                   const std::string& code) const {
    return access_line_common(meta, wall_s, code) + "}";
  }

  std::string access_line(const RequestMeta& meta, double queue_wait_s,
                          double wall_s, const CompileResponse* r,
                          const std::string& debug) const {
    const std::string code = r->ok ? "ok" : r->error.code_name();
    std::string out = access_line_common(meta, wall_s, code) +
                      ", \"queue_wait_s\": " + fmt_double(queue_wait_s);
    if (r->ok) {
      const core::CompileResult& res = r->result;
      const core::StageTimings& t = res.timings;
      const core::CacheUsage& c = res.cache;
      out += ", \"volume\": " + std::to_string(res.volume) +
             ", \"peak_rss_bytes\": " + std::to_string(res.peak_rss_bytes) +
             ", \"stages\": {\"pd_graph_s\": " + fmt_double(t.pd_graph_s) +
             ", \"ishape_s\": " + fmt_double(t.ishape_s) +
             ", \"primal_bridge_s\": " + fmt_double(t.primal_bridge_s) +
             ", \"dual_bridge_s\": " + fmt_double(t.dual_bridge_s) +
             ", \"place_s\": " + fmt_double(t.place_s) +
             ", \"route_s\": " + fmt_double(t.route_s) +
             ", \"total_s\": " + fmt_double(t.total_s) + "}" +
             ", \"cache\": {\"decompose\": " + quoted(c.decompose) +
             ", \"icm\": " + quoted(c.icm) +
             ", \"pd_graph\": " + quoted(c.pd_graph) +
             ", \"hits\": " + std::to_string(c.hits) +
             ", \"misses\": " + std::to_string(c.misses) + "}";
      if (res.shard.enabled)
        out += ", \"shard\": {\"windows_total\": " +
               std::to_string(res.shard.windows_total) +
               ", \"windows_resumed\": " +
               std::to_string(res.shard.windows_resumed) +
               ", \"seam_cells\": " + std::to_string(res.shard.seam_cells) +
               "}";
    }
    if (!debug.empty()) out += ", \"slow\": true, \"debug\": " + debug;
    return out + "}";
  }

  // -- admin protocol -------------------------------------------------------

  void handle_admin(const json::Value& admin, const json::Value& doc,
                    const std::shared_ptr<Output>& out) {
    stats_.admin_requests.fetch_add(1, std::memory_order_relaxed);
    std::string what, id;
    try {
      what = string_field(admin, "admin");
      if (const json::Value* v = doc.find("id")) id = string_field(*v, "id");
    } catch (const std::exception& e) {
      out->write_line(error_line(id, "bad_request", e.what()), id);
      return;
    }
    if (what == "health") {
      out->write_line(health_line(id), id);
    } else if (what == "metrics") {
      out->write_line(metrics_line(id), id);
    } else if (what == "metrics_text") {
      out->write_line("{\"id\": " + quoted(id) +
                          ", \"ok\": true, \"admin\": \"metrics_text\", "
                          "\"text\": " +
                          quoted(openmetrics()) + "}",
                      id);
    } else {
      out->write_line(error_line(id, "bad_request",
                                 "unknown admin command '" + what +
                                     "' (health, metrics, metrics_text)"),
                      id);
    }
  }

  double uptime_s() const {
    return static_cast<double>(trace::now_ns() - start_ns_) / 1e9;
  }

  std::string health_line(const std::string& id) {
    return "{\"id\": " + quoted(id) +
           ", \"ok\": true, \"admin\": \"health\", \"uptime_s\": " +
           fmt_double(uptime_s()) + ", \"inflight\": " +
           std::to_string(stats_.inflight.load(std::memory_order_relaxed)) +
           ", \"queue_depth\": " + std::to_string(pool_.pending()) +
           ", \"workers\": " + std::to_string(pool_.worker_count()) + "}";
  }

  /// The serve histograms that currently hold samples, in a fixed order.
  std::vector<trace::HistogramSnapshot> histogram_snapshots() const {
    std::vector<trace::HistogramSnapshot> out;
    const trace::Histogram* all[] = {
        &request_s_,        &queue_wait_s_,         &stage_pd_graph_s_,
        &stage_ishape_s_,   &stage_primal_bridge_s_, &stage_dual_bridge_s_,
        &stage_place_s_,    &stage_route_s_};
    for (const trace::Histogram* h : all) {
      trace::HistogramSnapshot s = h->snapshot();
      if (s.count > 0) out.push_back(std::move(s));
    }
    trace::HistogramSnapshot lookup = compiler_.cache_lookup_latency();
    if (lookup.count > 0) out.push_back(std::move(lookup));
    return out;
  }

  std::vector<std::pair<std::string, long long>> counter_values() const {
    const core::StageCache::Stats cache = compiler_.cache_stats();
    const auto v = [](const std::atomic<std::uint64_t>& a) {
      return static_cast<long long>(a.load(std::memory_order_relaxed));
    };
    return {{"requests", v(stats_.requests_total)},
            {"requests_ok", v(stats_.requests_ok)},
            {"requests_error", v(stats_.requests_error)},
            {"overloaded", v(stats_.overloaded)},
            {"cancel_requests", v(stats_.cancel_requests)},
            {"admin_requests", v(stats_.admin_requests)},
            {"responses_dropped", v(stats_.responses_dropped)},
            {"slow_requests", v(stats_.slow_requests)},
            {"sharded_requests", v(stats_.sharded_requests)},
            {"windows_total", v(stats_.windows_total)},
            {"windows_resumed", v(stats_.windows_resumed)},
            {"seam_cells", v(stats_.seam_cells)},
            {"cache_hits", static_cast<long long>(cache.hits)},
            {"cache_misses", static_cast<long long>(cache.misses)},
            {"cache_insertions", static_cast<long long>(cache.insertions)},
            {"cache_evictions", static_cast<long long>(cache.evictions)}};
  }

  std::string metrics_line(const std::string& id) {
    const core::StageCache::Stats cache = compiler_.cache_stats();
    std::string out = "{\"id\": " + quoted(id) +
                      ", \"ok\": true, \"admin\": \"metrics\", \"serve\": "
                      "{\"uptime_s\": " +
                      fmt_double(uptime_s()) + ", \"counters\": {";
    bool first = true;
    for (const auto& [name, value] : counter_values()) {
      if (!first) out += ", ";
      first = false;
      out += quoted(name) + ": " + std::to_string(value);
    }
    out += "}, \"inflight\": " +
           std::to_string(stats_.inflight.load(std::memory_order_relaxed)) +
           ", \"queue_depth\": " + std::to_string(pool_.pending()) +
           ", \"workers\": " + std::to_string(pool_.worker_count()) +
           ", \"peak_rss_bytes\": " + std::to_string(trace::peak_rss_bytes()) +
           ", \"cache\": {\"hits\": " + std::to_string(cache.hits) +
           ", \"misses\": " + std::to_string(cache.misses) +
           ", \"insertions\": " + std::to_string(cache.insertions) +
           ", \"evictions\": " + std::to_string(cache.evictions) +
           ", \"entries\": " + std::to_string(cache.entries) +
           ", \"bytes\": " + std::to_string(cache.bytes) +
           ", \"budget\": " + std::to_string(cache.budget) +
           "}, \"histograms\": {";
    first = true;
    for (const trace::HistogramSnapshot& h : histogram_snapshots()) {
      if (!first) out += ", ";
      first = false;
      out += quoted(h.name) + ": " + trace::histogram_json(h);
    }
    return out + "}}}";
  }

  /// "serve.request_s" -> "tqec_serve_request_s" etc.
  static std::string prom_name(const std::string& name) {
    std::string out = "tqec_";
    for (const char c : name) out += c == '.' ? '_' : c;
    return out;
  }

  std::string openmetrics() const {
    const core::StageCache::Stats cache = compiler_.cache_stats();
    std::vector<std::pair<std::string, long long>> counters;
    for (const auto& [name, value] : counter_values())
      counters.emplace_back("tqec_serve_" + name, value);
    const std::vector<std::pair<std::string, double>> gauges = {
        {"tqec_serve_uptime_s", uptime_s()},
        {"tqec_serve_inflight",
         static_cast<double>(stats_.inflight.load(std::memory_order_relaxed))},
        {"tqec_serve_queue_depth", static_cast<double>(pool_.pending())},
        {"tqec_serve_workers", static_cast<double>(pool_.worker_count())},
        {"tqec_serve_cache_entries", static_cast<double>(cache.entries)},
        {"tqec_serve_cache_bytes", static_cast<double>(cache.bytes)},
        {"tqec_process_peak_rss_bytes",
         static_cast<double>(trace::peak_rss_bytes())}};
    std::vector<trace::HistogramSnapshot> histograms =
        histogram_snapshots();
    for (trace::HistogramSnapshot& h : histograms) h.name = prom_name(h.name);
    return trace::openmetrics_text(counters, gauges, histograms);
  }

  Compiler compiler_;
  WorkerPool pool_;
  InflightMap inflight_;
  ServerStats stats_;
  std::unique_ptr<AccessLog> access_log_;
  const std::uint64_t slow_ns_;
  const double slow_s_;
  const std::uint64_t start_ns_;

  // Always-on latency histograms (lock-free record path; see
  // common/trace.h — aggregates are deterministic for any worker count).
  trace::Histogram request_s_{"serve.request_s"};
  trace::Histogram queue_wait_s_{"serve.queue_wait_s"};
  trace::Histogram stage_pd_graph_s_{"serve.stage.pd_graph_s"};
  trace::Histogram stage_ishape_s_{"serve.stage.ishape_s"};
  trace::Histogram stage_primal_bridge_s_{"serve.stage.primal_bridge_s"};
  trace::Histogram stage_dual_bridge_s_{"serve.stage.dual_bridge_s"};
  trace::Histogram stage_place_s_{"serve.stage.place_s"};
  trace::Histogram stage_route_s_{"serve.stage.route_s"};
};

int run_stdin(Server& server) {
  auto out = std::make_shared<Output>(1 /* stdout */,
                                      server.dropped_counter());
  net::LineReader reader(0 /* stdin */);
  std::string line;
  while (reader.next_line(line)) server.handle_line(line, out);
  server.drain();
  return 0;
}

int run_socket(Server& server, const std::string& path) {
  net::UnixServerSocket listener(path);
  std::fprintf(stderr, "tqec_serve: listening on %s\n", path.c_str());
  for (;;) {
    net::Fd conn = listener.accept_client();
    if (!conn.valid()) break;
    auto out = std::make_shared<Output>(std::move(conn),
                                        server.dropped_counter());
    net::LineReader reader(out->fd);
    std::string line;
    while (reader.next_line(line)) server.handle_line(line, out);
    // The connection object stays alive inside any still-queued jobs;
    // their responses go to the (possibly closed) fd and are counted as
    // dropped by Output::write_line.
  }
  server.drain();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A client that disconnects mid-response must not kill the server.
  std::signal(SIGPIPE, SIG_IGN);

  ServeOptions opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value_of =
          [&](const char* prefix) -> std::optional<std::string> {
        const std::size_t n = std::strlen(prefix);
        if (arg.compare(0, n, prefix) == 0) return arg.substr(n);
        return std::nullopt;
      };
      if (auto v = value_of("--threads=")) {
        opt.threads = parse_int(*v, "--threads");
      } else if (auto v = value_of("--queue=")) {
        opt.queue = static_cast<std::size_t>(parse_u64(*v, "--queue"));
      } else if (auto v = value_of("--cache-bytes=")) {
        opt.cache_bytes = parse_i64(*v, "--cache-bytes");
      } else if (auto v = value_of("--socket=")) {
        opt.socket_path = *v;
      } else if (auto v = value_of("--access-log=")) {
        opt.access_log = *v;
      } else if (auto v = value_of("--slow-s=")) {
        opt.slow_s = parse_double(*v, "--slow-s");
      } else {
        std::fprintf(stderr, "unknown option %s\n", arg.c_str());
        return usage();
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  try {
    Server server(opt);
    return opt.socket_path.empty() ? run_stdin(server)
                                   : run_socket(server, opt.socket_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
