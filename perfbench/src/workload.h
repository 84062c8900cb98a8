/**
 * @file
 * The benchmark's workloads and the pieces they share: the metric set a
 * run reports, percentile helpers, and the Workload interface that main.cc
 * runs in a closed loop.
 *
 * Each workload drives the public facade (Program::Capture, Partition,
 * Executable::Run, Program::Serve, Evaluate and the stats getters) and,
 * for its per-layer metrics, calls single layers directly. Every call into
 * a layer sits inside a Span named after the layer (trace.h).
 */
#ifndef PERFBENCH_SRC_WORKLOAD_H_
#define PERFBENCH_SRC_WORKLOAD_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/api/partir.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/** Median (mean of the middle two for an even count); 0 when empty. */
double Median(std::vector<double> values);
/** Nearest-rank percentile, q in (0, 1]; 0 when empty. */
double Percentile(std::vector<double> values, double q);

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/** Named metrics in report order. The first value set under a name wins,
 *  so a traced sweep keeps the named workload's figures. */
class MetricSet {
 public:
  void Add(const std::string& name, const std::string& unit, double value);
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/** What one timed op reports: the time of the call under test and whether
 *  the call and its output check succeeded. */
struct OpResult {
  double ms = 0;
  bool ok = false;
};

/** Latencies of one timed phase (successful ops only). In a phase that
 *  alternates tracing, `ms` holds the untraced ops and `traced_ms` the
 *  traced ones. */
struct PhaseSummary {
  std::vector<double> ms;
  std::vector<double> traced_ms;
  int64_t attempted = 0;
  int64_t failed = 0;
  double wall_s = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /** Builds everything the timed loop needs: captures, warm-up compiles,
   *  reference outputs, filled caches. A failed check is an error. */
  virtual partir::Status Setup(uint64_t seed) = 0;

  /** Closed-loop callers the timed loop runs concurrently. */
  virtual int clients() const { return 1; }

  /** True when an op does all its work on the calling thread. The timed
   *  loop then moves that thread to the next CPU before each op, so that
   *  every run samples all CPUs of a host whose CPUs differ in speed
   *  instead of the one the scheduler happened to pick. */
  virtual bool single_threaded() const { return false; }

  /** One op of `client`: times only the call under test and checks its
   *  output outside the timer. Called concurrently for clients() > 1. */
  virtual OpResult Op(int client, int64_t index) = 0;

  /** Adds the per-layer metrics, from the ops run so far and from direct
   *  calls into single layers. `phase` is the workload's last timed phase. */
  virtual partir::Status AddLayerMetrics(const PhaseSummary& phase,
                                         MetricSet& out) = 0;
};

/** Workload names, in report order. */
const std::vector<std::string>& WorkloadNames();

/** A fresh workload; `scratch_dir` is a directory it may write under. */
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const std::string& scratch_dir);

// Factories, one per workload file.
std::unique_ptr<Workload> MakePartitionCold();
std::unique_ptr<Workload> MakePartitionSmall();
std::unique_ptr<Workload> MakePartitionWarm(const std::string& scratch_dir);
std::unique_ptr<Workload> MakeRunInfer();
std::unique_ptr<Workload> MakeServeMlp();

/** Max |got - want| over every output, scaled by max(1, max |want|);
 *  a shape or arity mismatch reads as infinite. */
double OutputError(const std::vector<partir::Tensor>& got,
                   const std::vector<partir::Tensor>& want);

/** Relative error above which a numeric output check fails. */
inline constexpr double kTolerance = 1e-3;

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOAD_H_
