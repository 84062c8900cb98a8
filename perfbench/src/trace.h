/**
 * @file
 * In-memory span recorder for the traced benchmark run. The benchmark wraps
 * every call it makes into a layer of the system in a Span named
 * "<layer>.<call>" (layers are the src/ module names: ir, core, pass, spmd,
 * exec, interp, api, persist, serve, sim). Spans carry start, end, parent
 * (the enclosing span on the same thread) and the id of the timed op that
 * caused them; they stay in memory and are written out once, as Chrome
 * trace-event JSON, when the run ends.
 *
 * Recording is off by default; while off, a Span costs one relaxed atomic
 * load. End-to-end numbers always come from runs with recording off.
 */
#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

/** One closed span. Times are microseconds since the tracer's epoch. */
struct SpanRecord {
  const char* name = "";      // "<layer>.<call>", owned by the caller/tracer
  const char* category = "";  // phase label, e.g. "partition_cold/traced"
  int64_t id = 0;
  int64_t parent = -1;   // enclosing span id, -1 at top level
  int64_t op = -1;       // timed-op id, -1 outside the timed loop
  int64_t thread = 0;
  double start_us = 0;
  double end_us = 0;
};

class Tracer {
 public:
  static Tracer& Get();

  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /** Label stamped on every span recorded from now on (all threads). */
  void set_category(const std::string& category);

  /** Microseconds since the tracer's epoch. */
  double NowUs() const;

  /** Opens a span on the calling thread, started at `start_us`; returns
   *  its id. `name` must outlive the tracer (a string literal). */
  int64_t Begin(const char* name, double start_us);
  /** Closes the innermost open span of the calling thread (must be `id`). */
  void End(int64_t id);
  /** Records an already-measured span as a child of `parent`. */
  void Add(const std::string& name, int64_t parent, double start_us,
           double end_us);

  /** The timed op the calling thread is running (-1: none). */
  static void set_current_op(int64_t op);

  /** Mutes recording on the calling thread only, so that traced and
   *  untraced ops can alternate within one timed phase. */
  static void set_thread_muted(bool muted);

  std::vector<SpanRecord> spans() const;
  /** Writes every span as Chrome trace-event JSON ("X" events). */
  bool WriteChromeTrace(const std::string& path) const;

 private:
  Tracer();

  std::atomic<bool> enabled_{false};
  int64_t epoch_ns_ = 0;
  /** Interns a string for the lifetime of the tracer. Requires mu_. */
  const char* Intern(const std::string& text);

  std::atomic<const char*> category_{""};  // interned
  std::atomic<int64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> closed_;  // guarded by mu_
  std::set<std::string> interned_;  // guarded by mu_
};

/** RAII span: Begin on construction, End on destruction, no-op when
 *  recording is off or muted on the calling thread. */
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /** Id of this span, -1 when recording was off at construction. */
  int64_t id() const { return id_; }
  double start_us() const { return start_us_; }

 private:
  int64_t id_ = -1;
  double start_us_ = 0;
};

/** Self time per layer (span minus the time its child spans cover), in ms,
 *  over the spans whose category starts with `category_prefix`. */
std::map<std::string, double> SelfMsByLayer(
    const std::vector<SpanRecord>& spans, const std::string& category_prefix);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
