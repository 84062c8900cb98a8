// The partitioning workloads, all under the paper's T32 schedule
// BP+MP+Z3+EMB over {batch:8, model:2} (Fig. 8, Table 3):
//
//   partition_cold   one op = one Program::Partition of the T32 training
//                    step with the cache off: the whole pass pipeline, no
//                    kernel runs.
//   partition_small  the same on a two-layer, narrow training step: the
//                    same passes over 2 layers instead of 32, so that a
//                    40 s run holds hundreds of ops instead of twenty.
//   partition_warm   one op = Partition of a freshly captured T32 Program
//                    that must be a disk hit in a cache directory filled
//                    during setup: the api cache, persist decoding and the
//                    exec device-program rebuild, with no pipeline pass.
#include <cmath>
#include <filesystem>
#include <unistd.h>

#include "perfbench/src/trace.h"
#include "perfbench/src/workload.h"
#include "src/exec/device_program.h"
#include "src/models/schedules.h"
#include "src/models/transformer.h"
#include "src/persist/serializer.h"
#include "src/persist/store.h"

namespace perfbench {
namespace {

using namespace partir;

/** Collective counts (AG/AR/RS/A2A) a partitioned training step must have. */
struct CollectiveRow {
  int64_t all_gather, all_reduce, reduce_scatter, all_to_all;
};

/** The pinned Table 3 row of T32 under BP+MP+Z3+EMB. */
constexpr CollectiveRow kT32Row = {707, 292, 257, 0};
/** The same schedule on ReducedDepthConfig(). */
constexpr CollectiveRow kReducedDepthRow = {47, 22, 17, 0};

/** A two-layer transformer, narrow enough for the reference interpreter. */
TransformerConfig ReducedDepthConfig() {
  TransformerConfig config;
  config.num_layers = 2;
  config.d_model = 16;
  config.num_heads = 4;
  config.head_dim = 4;
  config.ffw_size = 32;
  config.vocab = 32;
  config.batch = 8;
  config.seq = 4;
  return config;
}

Mesh T32Mesh() { return Mesh({{"batch", 8}, {"model", 2}}); }

std::vector<Tactic> T32Schedule() { return schedules::TransformerBPMPZ3EMB(); }

/** Captures a transformer training step; `capture_ms` receives the time. */
Program CaptureTrainingStep(const TransformerConfig& config,
                            double* capture_ms) {
  Span span("ir.Capture");
  Clock::time_point start = Clock::now();
  Program program = Program::Capture([&](Module& module) {
    return BuildTransformerTrainingStep(module, config);
  });
  *capture_ms = MsSince(start);
  return program;
}

bool MatchesRow(const CollectiveStats& stats, const CollectiveRow& row) {
  return stats.all_gather == row.all_gather &&
         stats.all_reduce == row.all_reduce &&
         stats.reduce_scatter == row.reduce_scatter &&
         stats.all_to_all == row.all_to_all;
}

/** Timed Partition inside an "api.Partition" span. When the pipeline ran
 *  (no cache hit of either tier), its own per-pass wall-clock
 *  (pipeline_stats) becomes child spans laid back to back from the span's
 *  start: their durations are the pass manager's, their placement is
 *  approximate. */
StatusOr<Executable> TimedPartition(Program& program,
                                    const PartitionOptions& options,
                                    double* ms) {
  Span span("api.Partition");
  PartitionCacheStats before = program.cache_stats();
  Clock::time_point start = Clock::now();
  StatusOr<Executable> exe = program.Partition(T32Schedule(), T32Mesh(),
                                               options);
  *ms = MsSince(start);
  PartitionCacheStats after = program.cache_stats();
  bool pipeline_ran = !options.use_cache ||
                      (after.misses > before.misses &&
                       after.disk_hits == before.disk_hits);
  if (exe.ok() && pipeline_ran && span.id() >= 0) {
    double cursor = span.start_us();
    for (const PassStats& pass : exe->pipeline_stats().passes) {
      double end = cursor + pass.seconds * 1e6;
      Tracer::Get().Add(pass.name == "propagate" ? "core.propagate"
                                                 : "pass." + pass.name,
                        span.id(), cursor, end);
      cursor = end;
    }
  }
  return exe;
}

/** Totals of the passes named `name`, or whose name starts with `name`
 *  followed by '[' (the per-tactic passes "tactic[i]:..", "report[i]"). */
PassStats SumPasses(const PipelineStats& stats, const std::string& name) {
  PassStats total;
  for (const PassStats& pass : stats.passes) {
    bool indexed = pass.name.compare(0, name.size() + 1, name + "[") == 0;
    if (pass.name != name && !indexed) continue;
    total.seconds += pass.seconds;
    total.runs += pass.runs;
    total.changes += pass.changes;
  }
  return total;
}

/** Reduced-depth numeric check: the same schedule and mesh on
 *  ReducedDepthConfig(), run on the mesh and compared against
 *  Program::Evaluate. */
Status CheckReducedDepth(uint64_t seed) {
  const TransformerConfig config = ReducedDepthConfig();
  double capture_ms = 0;
  Program program = CaptureTrainingStep(config, &capture_ms);
  double partition_ms = 0;
  PARTIR_ASSIGN_OR_RETURN(Executable exe,
                          TimedPartition(program, {}, &partition_ms));
  std::vector<Tensor> inputs =
      program.RandomInputs(seed, static_cast<float>(config.vocab));
  // Adam's second moments are non-negative; random negative ones would
  // make the update's square root NaN on both sides of the comparison.
  for (int i = 0; i < program.num_inputs(); ++i) {
    if (program.input_name(i).rfind("opt_v.", 0) != 0) continue;
    for (float& value : inputs[i].data()) value = std::fabs(value);
  }
  StatusOr<std::vector<Tensor>> got = [&] {
    Span span("spmd.Run");
    return exe.Run(inputs);
  }();
  PARTIR_RETURN_IF_ERROR(got.status());
  StatusOr<std::vector<Tensor>> want = [&] {
    Span span("interp.Evaluate");
    return program.Evaluate(inputs);
  }();
  PARTIR_RETURN_IF_ERROR(want.status());
  double error = OutputError(*got, *want);
  if (!(error <= kTolerance)) {
    return InternalError("reduced-depth T32 schedule: partitioned output "
                         "differs from Evaluate by ", error);
  }
  return Status::Ok();
}

/** One cold Partition's observations. */
struct ColdSample {
  double wall_ms = 0;
  PipelineStats pipeline;
  CollectiveStats collectives;
  int64_t spmd_ops = 0;
};

/** One op is one cold Partition of `config`'s training step, which must
 *  give `row` and the first op's op count. With `layer_metrics` off, the
 *  workload adds no per-layer metric: the layer names belong to T32. */
class PartitionCold : public Workload {
 public:
  PartitionCold(TransformerConfig config, CollectiveRow row,
                bool layer_metrics)
      : config_(config), row_(row), layer_metrics_(layer_metrics) {}

  bool single_threaded() const override { return true; }

  Status Setup(uint64_t seed) override {
    program_ = std::make_unique<Program>(
        CaptureTrainingStep(config_, &capture_ms_));
    ir_ops_ = CountOps(*program_->func());
    return CheckReducedDepth(seed);
  }

  OpResult Op(int, int64_t) override {
    PartitionOptions options;
    options.use_cache = false;
    OpResult result;
    StatusOr<Executable> exe = TimedPartition(*program_, options, &result.ms);
    if (!exe.ok()) return result;
    ColdSample sample;
    sample.wall_ms = result.ms;
    sample.pipeline = exe->pipeline_stats();
    sample.collectives = exe->Collectives();
    sample.spmd_ops = CountOps(*exe->spmd().main());
    // Every op must reproduce the pinned row and the first op's op count.
    result.ok = MatchesRow(sample.collectives, row_) &&
                (samples_.empty() || sample.spmd_ops == samples_[0].spmd_ops);
    samples_.push_back(std::move(sample));
    return result;
  }

  Status AddLayerMetrics(const PhaseSummary&, MetricSet& out) override {
    if (samples_.empty()) return InternalError("partition_cold: no ops ran");
    if (!layer_metrics_) return Status::Ok();
    auto median_ms = [&](const std::string& pass) {
      std::vector<double> ms;
      for (const ColdSample& sample : samples_) {
        ms.push_back(SumPasses(sample.pipeline, pass).seconds * 1e3);
      }
      return Median(ms);
    };
    const ColdSample& last = samples_.back();
    auto runs = [&](const std::string& pass) {
      return static_cast<double>(SumPasses(last.pipeline, pass).runs);
    };
    std::vector<double> total_ms, overhead_ms;
    for (const ColdSample& sample : samples_) {
      total_ms.push_back(sample.pipeline.total_seconds * 1e3);
      overhead_ms.push_back(sample.wall_ms -
                            sample.pipeline.total_seconds * 1e3);
    }
    out.Add("core.propagate_ms", "ms", median_ms("propagate"));
    out.Add("core.propagate_changes", "count",
            static_cast<double>(SumPasses(last.pipeline, "propagate").changes));
    out.Add("pass.tactic_ms", "ms", median_ms("tactic"));
    out.Add("pass.report_ms", "ms", median_ms("report"));
    out.Add("pass.lower-to-spmd_ms", "ms", median_ms("lower-to-spmd"));
    for (const char* pass : {"fuse-gather-slice", "form-reduce-scatter",
                             "dce"}) {
      out.Add(StrCat("pass.", pass, "_ms"), "ms", median_ms(pass));
      out.Add(StrCat("pass.", pass, "_runs"), "count", runs(pass));
    }
    out.Add("pass.plan-collectives_ms", "ms", median_ms("plan-collectives"));
    out.Add("pass.compile-device-programs_ms", "ms",
            median_ms("compile-device-programs"));
    out.Add("pass.total_ms", "ms", Median(total_ms));
    out.Add("api.partition_overhead_ms", "ms", Median(overhead_ms));
    out.Add("spmd.ops", "count", static_cast<double>(last.spmd_ops));
    out.Add("spmd.all_gather", "count",
            static_cast<double>(last.collectives.all_gather));
    out.Add("spmd.all_reduce", "count",
            static_cast<double>(last.collectives.all_reduce));
    out.Add("spmd.reduce_scatter", "count",
            static_cast<double>(last.collectives.reduce_scatter));
    out.Add("spmd.all_to_all", "count",
            static_cast<double>(last.collectives.all_to_all));
    out.Add("ir.capture_ms", "ms", capture_ms_);
    out.Add("ir.ops", "count", static_cast<double>(ir_ops_));
    return Status::Ok();
  }

 private:
  const TransformerConfig config_;
  const CollectiveRow row_;
  const bool layer_metrics_;
  std::unique_ptr<Program> program_;
  double capture_ms_ = 0;
  int64_t ir_ops_ = 0;
  std::vector<ColdSample> samples_;
};

class PartitionWarm : public Workload {
 public:
  explicit PartitionWarm(std::string scratch_dir)
      : scratch_dir_(std::move(scratch_dir)) {}

  bool single_threaded() const override { return true; }

  ~PartitionWarm() override {
    std::error_code ignored;
    if (!cache_dir_.empty()) std::filesystem::remove_all(cache_dir_, ignored);
  }

  Status Setup(uint64_t) override {
    // At most one PartitionWarm is alive at a time, so the pid suffices.
    cache_dir_ = StrCat(scratch_dir_, "/warm-cache-", ::getpid());
    std::error_code ignored;
    std::filesystem::remove_all(cache_dir_, ignored);
    // Fill the disk tier from a cold Partition, as a previous process would.
    Program program = Capture();
    ir_ops_ = CountOps(*program.func());
    PartitionOptions options = DiskOptions();
    double ms = 0;
    StatusOr<Executable> exe = TimedPartition(program, options, &ms);
    PARTIR_RETURN_IF_ERROR(exe.status());
    program.partition_cache()->FlushDiskWrites();
    if (program.cache_stats().disk_writes != 1) {
      return InternalError("partition_warm: setup wrote ",
                           program.cache_stats().disk_writes,
                           " cache entries, want 1");
    }
    collectives_ = exe->Collectives();
    spmd_ops_ = CountOps(*exe->spmd().main());
    if (!MatchesRow(collectives_, kT32Row)) {
      return InternalError("partition_warm: cold result ",
                           collectives_.ToString(), " is off the Table 3 row");
    }
    cold_ = std::make_unique<Executable>(std::move(exe).value());
    return Status::Ok();
  }

  OpResult Op(int, int64_t) override {
    Program program = Capture();  // untimed: a restart re-traces first
    OpResult result;
    StatusOr<Executable> exe =
        TimedPartition(program, DiskOptions(), &result.ms);
    PartitionCacheStats stats = program.cache_stats();
    disk_hits_ += stats.disk_hits;
    disk_misses_ += stats.disk_misses;
    disk_corrupt_ += stats.disk_corrupt;
    if (!exe.ok()) return result;
    const CollectiveStats& got = exe->Collectives();
    result.ok = stats.disk_hits == 1 && stats.disk_misses == 0 &&
                got.all_gather == collectives_.all_gather &&
                got.all_reduce == collectives_.all_reduce &&
                got.reduce_scatter == collectives_.reduce_scatter &&
                got.all_to_all == collectives_.all_to_all &&
                CountOps(*exe->spmd().main()) == spmd_ops_;
    return result;
  }

  Status AddLayerMetrics(const PhaseSummary&, MetricSet& out) override {
    constexpr int kRepeats = 5;
    std::vector<double> fingerprint_ms, decode_ms, compile_ms, memory_ms;
    for (int i = 0; i < kRepeats; ++i) {
      Program program = Capture();
      Span span("ir.TraceFingerprint");
      Clock::time_point start = Clock::now();
      (void)program.TraceFingerprint();
      fingerprint_ms.push_back(MsSince(start));
    }

    // persist: decode the SaveResult file of the cold result.
    std::string path = cache_dir_ + "/saved-result.bin";
    {
      Span span("persist.SaveResult");
      PARTIR_RETURN_IF_ERROR(cold_->SaveResult(path));
    }
    PARTIR_ASSIGN_OR_RETURN(std::string bytes,
                            persist::ReadFileToString(path));
    for (int i = 0; i < kRepeats; ++i) {
      Span span("persist.Decode");
      Clock::time_point start = Clock::now();
      PARTIR_ASSIGN_OR_RETURN(
          std::string payload,
          persist::DecodeEntry(bytes, persist::PayloadKind::kPartitionResult,
                               "partir-partition-result"));
      PARTIR_ASSIGN_OR_RETURN(PartitionResult decoded,
                              persist::DeserializePartitionResult(payload));
      decode_ms.push_back(MsSince(start));
      if (decoded.collectives.all_gather != collectives_.all_gather) {
        return InternalError("partition_warm: decoded result differs");
      }
    }

    for (int i = 0; i < kRepeats; ++i) {
      Span span("exec.CompileDeviceProgram");
      Clock::time_point start = Clock::now();
      PARTIR_RETURN_IF_ERROR(
          exec::CompileDeviceProgram(cold_->spmd()).status());
      compile_ms.push_back(MsSince(start));
    }

    // Memory-warm: repeat Partitions on one Program are in-memory LRU hits.
    Program program = Capture();
    double ms = 0;
    PARTIR_RETURN_IF_ERROR(
        TimedPartition(program, DiskOptions(), &ms).status());
    for (int i = 0; i < kRepeats; ++i) {
      PARTIR_RETURN_IF_ERROR(
          TimedPartition(program, DiskOptions(), &ms).status());
      memory_ms.push_back(ms);
    }
    if (program.cache_stats().hits != kRepeats) {
      return InternalError("partition_warm: repeat Partitions missed the "
                           "in-memory cache");
    }

    out.Add("ir.capture_ms", "ms", Median(capture_ms_));
    out.Add("ir.ops", "count", static_cast<double>(ir_ops_));
    out.Add("ir.fingerprint_ms", "ms", Median(fingerprint_ms));
    out.Add("persist.entry_bytes", "bytes", static_cast<double>(bytes.size()));
    out.Add("persist.decode_ms", "ms", Median(decode_ms));
    out.Add("exec.compile_ms", "ms", Median(compile_ms));
    out.Add("api.memory_warm_ms_p50", "ms", Median(memory_ms));
    out.Add("api.disk_hits", "count", static_cast<double>(disk_hits_));
    out.Add("api.disk_misses", "count", static_cast<double>(disk_misses_));
    out.Add("api.disk_corrupt", "count", static_cast<double>(disk_corrupt_));
    return Status::Ok();
  }

 private:
  Program Capture() {
    double ms = 0;
    Program program =
        CaptureTrainingStep(TransformerConfig::T32Scaled(), &ms);
    capture_ms_.push_back(ms);
    return program;
  }

  PartitionOptions DiskOptions() const {
    PartitionOptions options;
    options.cache_dir = cache_dir_;
    return options;
  }

  std::string scratch_dir_;
  std::string cache_dir_;
  std::unique_ptr<Executable> cold_;
  CollectiveStats collectives_;
  int64_t spmd_ops_ = 0;
  int64_t ir_ops_ = 0;
  std::vector<double> capture_ms_;
  int64_t disk_hits_ = 0;
  int64_t disk_misses_ = 0;
  int64_t disk_corrupt_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakePartitionCold() {
  return std::make_unique<PartitionCold>(TransformerConfig::T32Scaled(),
                                         kT32Row, /*layer_metrics=*/true);
}

std::unique_ptr<Workload> MakePartitionSmall() {
  return std::make_unique<PartitionCold>(ReducedDepthConfig(),
                                         kReducedDepthRow,
                                         /*layer_metrics=*/false);
}

std::unique_ptr<Workload> MakePartitionWarm(const std::string& scratch_dir) {
  return std::make_unique<PartitionWarm>(scratch_dir);
}

}  // namespace perfbench
