// run_infer: Executable::Run of the serving zoo's transformer_infer,
// captured at batch 8 and partitioned once over {batch:2, model:2}. One
// closed-loop caller runs default RunOptions over a seeded pool of input
// sets; every output is checked against Program::Evaluate references
// computed during setup. No pipeline work runs in the timed loop: the time
// is device kernels and collective rendezvous.
#include "perfbench/src/trace.h"
#include "perfbench/src/workload.h"
#include "src/models/serving.h"
#include "src/spmd/spmd_interpreter.h"

namespace perfbench {
namespace {

using namespace partir;

constexpr int64_t kBatch = 8;
constexpr int kInputSets = 4;
constexpr int kProbeRepeats = 5;

StatusOr<std::vector<Tensor>> TracedRun(const Executable& exe,
                                        const std::vector<Tensor>& inputs,
                                        const RunOptions& options = {}) {
  Span span("spmd.Run");
  return exe.Run(inputs, options);
}

class RunInfer : public Workload {
 public:
  Status Setup(uint64_t seed) override {
    serving::ServeWorkload workload = serving::TransformerInferWorkload();
    {
      Span span("ir.Capture");
      program_ = std::make_unique<Program>(
          Program::Capture(workload.build, kBatch));
    }
    {
      Span span("api.Partition");
      PARTIR_ASSIGN_OR_RETURN(
          Executable exe, program_->Partition(workload.schedule,
                                              workload.mesh));
      exe_ = std::make_unique<Executable>(std::move(exe));
    }
    for (int k = 0; k < kInputSets; ++k) {
      inputs_.push_back(program_->RandomInputs(seed * kInputSets + k,
                                               workload.index_modulus));
      Span span("interp.Evaluate");
      Clock::time_point start = Clock::now();
      PARTIR_ASSIGN_OR_RETURN(std::vector<Tensor> want,
                              program_->Evaluate(inputs_.back()));
      reference_ms_.push_back(MsSince(start));
      references_.push_back(std::move(want));
    }
    // Warm-up: the first Run creates the executable's worker pool.
    for (int k = 0; k < kInputSets; ++k) {
      PARTIR_ASSIGN_OR_RETURN(std::vector<Tensor> got,
                              TracedRun(*exe_, inputs_[k]));
      if (!(OutputError(got, references_[k]) <= kTolerance)) {
        return InternalError("run_infer: warm-up output differs from "
                             "Evaluate");
      }
    }
    return Status::Ok();
  }

  OpResult Op(int, int64_t index) override {
    const int k = static_cast<int>(index % kInputSets);
    OpResult result;
    Clock::time_point start = Clock::now();
    StatusOr<std::vector<Tensor>> got = TracedRun(*exe_, inputs_[k]);
    result.ms = MsSince(start);
    result.ok = got.ok() && OutputError(*got, references_[k]) <= kTolerance;
    return result;
  }

  Status AddLayerMetrics(const PhaseSummary&, MetricSet& out) override {
    // The sequential reference walker: the kernel-bound share of a Run.
    std::vector<double> seq_ms;
    RunOptions sequential;
    sequential.num_threads = 1;
    for (int i = 0; i < kProbeRepeats; ++i) {
      Clock::time_point start = Clock::now();
      PARTIR_ASSIGN_OR_RETURN(std::vector<Tensor> got,
                              TracedRun(*exe_, inputs_[0], sequential));
      seq_ms.push_back(MsSince(start));
      if (!(OutputError(got, references_[0]) <= kTolerance)) {
        return InternalError("run_infer: sequential output differs");
      }
    }

    // Sharding and reassembly of the global tensors, per the executable's
    // input and output shardings.
    const Mesh& mesh = exe_->mesh();
    std::vector<double> shard_ms, unshard_ms;
    for (int i = 0; i < kProbeRepeats; ++i) {
      Span span("spmd.ShardTensor");
      Clock::time_point start = Clock::now();
      for (int in = 0; in < exe_->num_inputs(); ++in) {
        PerDevice shards =
            ShardTensor(inputs_[0][in], exe_->input_sharding(in), mesh);
        if (shards.empty()) return InternalError("run_infer: empty shards");
      }
      shard_ms.push_back(MsSince(start));
    }
    std::vector<PerDevice> output_shards;
    for (size_t o = 0; o < references_[0].size(); ++o) {
      output_shards.push_back(ShardTensor(
          references_[0][o], exe_->output_sharding(static_cast<int>(o)),
          mesh));
    }
    for (int i = 0; i < kProbeRepeats; ++i) {
      Span span("spmd.UnshardTensor");
      Clock::time_point start = Clock::now();
      for (size_t o = 0; o < output_shards.size(); ++o) {
        Tensor global = UnshardTensor(
            output_shards[o], exe_->output_sharding(static_cast<int>(o)),
            mesh);
        if (global.dims() != references_[0][o].dims()) {
          return InternalError("run_infer: unshard changed dims");
        }
      }
      unshard_ms.push_back(MsSince(start));
    }

    RunStats run_stats;
    RunOptions counted;
    counted.stats = &run_stats;
    PARTIR_RETURN_IF_ERROR(TracedRun(*exe_, inputs_[0], counted).status());
    exec::MemoryStats memory;
    {
      Span span("exec.MemoryStats");
      PARTIR_ASSIGN_OR_RETURN(memory, exe_->memory_stats());
    }
    SimEstimate estimate;
    {
      Span span("sim.Estimate");
      estimate = exe_->Estimate(Tpu_v3());
    }

    out.Add("spmd.run_seq_ms_p50", "ms", Median(seq_ms));
    out.Add("spmd.shard_ms", "ms", Median(shard_ms));
    out.Add("spmd.unshard_ms", "ms", Median(unshard_ms));
    out.Add("exec.allocations_per_run", "count",
            static_cast<double>(run_stats.allocations));
    out.Add("exec.peak_arena_bytes", "bytes",
            static_cast<double>(memory.peak_arena_bytes));
    out.Add("exec.fused_chains", "count",
            static_cast<double>(memory.fused_chains));
    out.Add("interp.reference_ms", "ms", Median(reference_ms_));
    out.Add("sim.step_ms", "ms", estimate.step_seconds * 1e3);
    out.Add("sim.comm_bytes", "bytes", estimate.comm_bytes);
    return Status::Ok();
  }

 private:
  std::unique_ptr<Program> program_;
  std::unique_ptr<Executable> exe_;
  std::vector<std::vector<Tensor>> inputs_;
  std::vector<std::vector<Tensor>> references_;
  std::vector<double> reference_ms_;
};

}  // namespace

std::unique_ptr<Workload> MakeRunInfer() {
  return std::make_unique<RunInfer>();
}

}  // namespace perfbench
