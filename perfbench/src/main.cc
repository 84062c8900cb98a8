// The repository benchmark: runs one named workload in a closed loop for a
// fixed time and prints its metrics, the last stdout line being one JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR]
//
// --trace 0 reports the end-to-end metrics of NAME with recording off:
// setup_s (median of kSetupRepeats independent setups, the first timed
// from process start), throughput_ops_s, latency_ms_p50 and peak_rss_mb.
// The table above the JSON line also prints the first setup alone
// (setup_first_s), latency_ms_p99 when the run holds at least
// kMinOpsForP99 ops, and error_rate, which the JSON line carries as
// failed / attempted.
//
// --trace 1 is the layer breakdown. NAME runs for S with recording on for
// every other op of each client (the difference of the traced and
// untraced medians is the tracing overhead); then every other workload
// runs a short traced phase, so that every per-layer metric of the
// benchmark is reported. Spans are written as Chrome
// trace-event JSON under --out-dir, and per-layer self time is printed.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>

#include "perfbench/src/trace.h"
#include "perfbench/src/workload.h"

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 9;
// p99 is printed only with at least ten samples beyond it.
constexpr size_t kMinOpsForP99 = 1000;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string out_dir = ".bench_build/perfbench-out";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      args->workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      args->seconds = std::atof(value);
    } else if (std::strcmp(flag, "--trace") == 0) {
      args->trace = std::atoi(value);
    } else if (std::strcmp(flag, "--out-dir") == 0) {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  const std::vector<std::string>& names = WorkloadNames();
  return argc % 2 == 1 && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1) &&
         std::find(names.begin(), names.end(), args->workload) != names.end();
}

/** The CPUs the calling thread may run on, in ascending order. */
std::vector<int> AllowedCpus(cpu_set_t* mask) {
  std::vector<int> cpus;
  if (pthread_getaffinity_np(pthread_self(), sizeof(*mask), mask) != 0) {
    return cpus;
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, mask)) cpus.push_back(cpu);
  }
  return cpus;
}

void PinCallingThread(int cpu) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  CPU_SET(cpu, &mask);
  pthread_setaffinity_np(pthread_self(), sizeof(mask), &mask);
}

/** Runs `workload` in a closed loop until `seconds` have passed: each of
 *  its clients sends its next op only once the previous one returned.
 *  With `alternate_tracing`, each client records spans for its odd ops
 *  only, so traced and untraced ops share the same stretch of host time. */
PhaseSummary RunTimed(Workload& workload, double seconds,
                      bool alternate_tracing = false) {
  static std::atomic<int64_t> next_op{0};
  const int clients = workload.clients();
  std::vector<PhaseSummary> per_client(clients);
  Clock::time_point start = Clock::now();
  Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  cpu_set_t all_cpus;
  const std::vector<int> cpus =
      workload.single_threaded() ? AllowedCpus(&all_cpus) : std::vector<int>();
  auto loop = [&](int client) {
    PhaseSummary& mine = per_client[client];
    for (int64_t i = 0; Clock::now() < deadline; ++i) {
      if (!cpus.empty()) PinCallingThread(cpus[i % cpus.size()]);
      const bool traced = alternate_tracing && i % 2 == 1;
      Tracer::set_thread_muted(alternate_tracing && !traced);
      Tracer::set_current_op(next_op++);
      OpResult result = workload.Op(client, i);
      Tracer::set_current_op(-1);
      ++mine.attempted;
      if (!result.ok) {
        ++mine.failed;
      } else if (traced) {
        mine.traced_ms.push_back(result.ms);
      } else {
        mine.ms.push_back(result.ms);
      }
    }
    Tracer::set_thread_muted(false);
    if (!cpus.empty()) {
      pthread_setaffinity_np(pthread_self(), sizeof(all_cpus), &all_cpus);
    }
  };
  if (clients == 1) {
    loop(0);
  } else {
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) threads.emplace_back(loop, c);
    for (std::thread& thread : threads) thread.join();
  }
  PhaseSummary phase;
  phase.wall_s = MsSince(start) / 1e3;
  for (const PhaseSummary& part : per_client) {
    phase.ms.insert(phase.ms.end(), part.ms.begin(), part.ms.end());
    phase.traced_ms.insert(phase.traced_ms.end(), part.traced_ms.begin(),
                           part.traced_ms.end());
    phase.attempted += part.attempted;
    phase.failed += part.failed;
  }
  return phase;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void PrintTable(const std::vector<Metric>& metrics) {
  for (const Metric& metric : metrics) {
    std::printf("  %-34s %16.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const MetricSet& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  const std::vector<Metric>& all = metrics.all();
  for (size_t i = 0; i < all.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", all[i].name.c_str(), all[i].value,
                all[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Fail(const std::string& what, const partir::Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  return 1;
}

int RunEndToEnd(const Args& args, Clock::time_point process_start) {
  std::unique_ptr<Workload> workload;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    workload.reset();  // tear the previous setup down before timing anew
    Clock::time_point start = rep == 0 ? process_start : Clock::now();
    workload = MakeWorkload(args.workload, args.out_dir);
    partir::Status status = workload->Setup(args.seed);
    if (!status.ok()) return Fail(args.workload + " setup", status);
    setup_s.push_back(MsSince(start) / 1e3);
  }
  PhaseSummary phase = RunTimed(*workload, args.seconds);

  MetricSet metrics;
  metrics.Add("setup_s", "s", Median(setup_s));
  metrics.Add("throughput_ops_s", "1/s",
              static_cast<double>(phase.ms.size()) / phase.wall_s);
  metrics.Add("latency_ms_p50", "ms", Median(phase.ms));
  metrics.Add("peak_rss_mb", "MB", PeakRssMb());

  std::printf("perfbench %s seed=%llu seconds=%g: %lld ops (%zu ok) in "
              "%.3f s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              static_cast<long long>(phase.attempted), phase.ms.size(),
              phase.wall_s);
  PrintTable(metrics.all());
  std::printf("  setup repeats (s):");
  for (double seconds : setup_s) std::printf(" %.4f", seconds);
  std::printf("\n");
  // Printed, not bounded: the single setup that starts at process start,
  // p99, which swings with host scheduling (see README), and error_rate,
  // which is 0 and which the JSON line carries as failed / attempted.
  std::vector<Metric> printed = {{"setup_first_s", "s", setup_s.front()}};
  if (phase.ms.size() >= kMinOpsForP99) {
    printed.push_back({"latency_ms_p99", "ms", Percentile(phase.ms, 0.99)});
  }
  printed.push_back(
      {"error_rate", "ratio",
       static_cast<double>(phase.failed) /
           static_cast<double>(std::max<int64_t>(phase.attempted, 1))});
  PrintTable(printed);
  PrintResult(phase.failed == 0 && phase.attempted > 0, phase.attempted,
              phase.failed, metrics);
  return 0;
}

void PrintSelfTime(const std::string& title,
                   const std::vector<SpanRecord>& spans,
                   const std::string& category_prefix) {
  std::printf("self time by layer, %s:\n", title.c_str());
  for (const auto& [layer, ms] : SelfMsByLayer(spans, category_prefix)) {
    std::printf("  %-10s %12.3f ms\n", layer.c_str(), ms);
  }
}

int RunTraced(const Args& args) {
  Tracer& tracer = Tracer::Get();
  MetricSet metrics;
  int64_t attempted = 0, failed = 0;
  auto count = [&](const PhaseSummary& phase) {
    attempted += phase.attempted;
    failed += phase.failed;
  };

  // The named workload: ops alternate between untraced and traced, so the
  // difference of the two medians is the tracing overhead, not host drift.
  tracer.set_enabled(true);
  tracer.set_category(args.workload + "/setup");
  std::unique_ptr<Workload> workload =
      MakeWorkload(args.workload, args.out_dir);
  partir::Status status = workload->Setup(args.seed);
  if (!status.ok()) return Fail(args.workload + " setup", status);
  tracer.set_category(args.workload + "/traced");
  PhaseSummary phase = RunTimed(*workload, args.seconds,
                                /*alternate_tracing=*/true);
  count(phase);
  const double untraced_p50 = Median(phase.ms);
  const double traced_p50 = Median(phase.traced_ms);
  tracer.set_category(args.workload + "/layers");
  status = workload->AddLayerMetrics(phase, metrics);
  if (!status.ok()) return Fail(args.workload + " layers", status);
  workload.reset();

  // Every other workload: a short traced phase for its layer metrics.
  const double short_seconds = std::max(1.0, args.seconds / 8);
  for (const std::string& name : WorkloadNames()) {
    if (name == args.workload) continue;
    tracer.set_category(name + "/setup");
    std::unique_ptr<Workload> other = MakeWorkload(name, args.out_dir);
    status = other->Setup(args.seed);
    if (!status.ok()) return Fail(name + " setup", status);
    tracer.set_category(name + "/traced");
    PhaseSummary other_phase = RunTimed(*other, short_seconds);
    count(other_phase);
    tracer.set_category(name + "/layers");
    status = other->AddLayerMetrics(other_phase, metrics);
    if (!status.ok()) return Fail(name + " layers", status);
  }
  tracer.set_enabled(false);

  const double overhead_pct =
      untraced_p50 > 0 ? (traced_p50 / untraced_p50 - 1) * 100 : 0;
  metrics.Add("trace.overhead_pct", "%", overhead_pct);

  std::vector<SpanRecord> spans = tracer.spans();
  std::string path = args.out_dir + "/trace-" + args.workload + "-seed" +
                     std::to_string(args.seed) + ".json";
  if (!tracer.WriteChromeTrace(path)) {
    return Fail("trace", partir::InternalError("cannot write ", path));
  }
  std::printf("perfbench %s seed=%llu traced: %zu spans -> %s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), spans.size(),
              path.c_str());
  std::printf("tracing overhead: latency_ms_p50 %.6g ms untraced (%zu ops), "
              "%.6g ms traced (%zu ops), alternating: %+.2f%%\n",
              untraced_p50, phase.ms.size(), traced_p50,
              phase.traced_ms.size(), overhead_pct);
  PrintSelfTime(args.workload + " traced phase", spans,
                args.workload + "/traced");
  PrintSelfTime("whole traced run", spans, "");
  PrintTable(metrics.all());
  PrintResult(failed == 0 && attempted > 0, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Clock::time_point process_start = Clock::now();
#ifndef NDEBUG
  std::fprintf(stderr,
               "perfbench: refusing to report from a build without NDEBUG: "
               "assertion builds turn on PartitionOptions::verify_passes and "
               "analyze, which changes what is measured\n");
  return 3;
#endif
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload {partition_cold|partition_small|"
                 "partition_warm|run_infer|serve_mlp} --seed N --seconds S "
                 "--trace 0|1 "
                 "[--out-dir DIR]\n",
                 argv[0]);
    return 2;
  }
  std::error_code error;
  std::filesystem::create_directories(args.out_dir, error);
  if (error) {
    std::fprintf(stderr, "perfbench: cannot create %s\n",
                 args.out_dir.c_str());
    return 2;
  }
  return args.trace == 1 ? RunTraced(args) : RunEndToEnd(args, process_start);
}
