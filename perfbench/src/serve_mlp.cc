// serve_mlp: Program::Serve on the serving zoo's mlp over {B:2, M:2}, with
// two closed-loop client threads and default BatchOptions except max_batch
// equal to the client count. Each request is sub-millisecond of compute,
// so batcher queueing, coalescing, stacking, pool dispatch and rendezvous
// wake-ups dominate. Every response is checked against a Program::Evaluate
// reference of its request, computed during setup.
#include <mutex>

#include "perfbench/src/trace.h"
#include "perfbench/src/workload.h"
#include "src/models/serving.h"
#include "src/serve/batcher.h"
#include "src/spmd/batching.h"

namespace perfbench {
namespace {

using namespace partir;

constexpr int kClients = 2;
constexpr int kRequests = 64;
constexpr int kProbeRepeats = 50;

class ServeMlp : public Workload {
 public:
  ServeMlp()
      : workload_(serving::MlpWorkload()), harness_(workload_),
        submit_us_(kClients) {}

  ~ServeMlp() override {
    if (batcher_ != nullptr) batcher_->Shutdown();
  }

  int clients() const override { return kClients; }

  Status Setup(uint64_t seed) override {
    for (int i = 0; i < kRequests; ++i) {
      requests_.push_back(harness_.Request(seed * kRequests + i + 1));
      Span span("interp.Evaluate");
      PARTIR_ASSIGN_OR_RETURN(std::vector<Tensor> want,
                              harness_.unit().Evaluate(requests_.back()));
      references_.push_back(std::move(want));
    }
    {
      Span span("ir.Capture");
      program_ = std::make_unique<Program>(
          Program::Capture(workload_.build, /*batch=*/1));
    }
    BatchOptions options;
    options.max_batch = kClients;
    {
      Span span("serve.Serve");
      PARTIR_ASSIGN_OR_RETURN(
          batcher_, program_->Serve(workload_.schedule, workload_.mesh,
                                    options));
    }
    // Warm-up: compile the batch sizes the loop forms (1 and 2).
    for (int size = 1; size <= kClients; ++size) {
      std::vector<ServeFuture> futures;
      for (int r = 0; r < size; ++r) {
        futures.push_back(batcher_->Submit(requests_[r]));
      }
      for (int r = 0; r < size; ++r) {
        ServeResponse response = futures[r].get();
        PARTIR_RETURN_IF_ERROR(response.status());
        if (!(OutputError(*response, references_[r]) <= kTolerance)) {
          return InternalError("serve_mlp: warm-up response differs from "
                               "Evaluate");
        }
      }
    }
    return Status::Ok();
  }

  OpResult Op(int client, int64_t index) override {
    const int r = static_cast<int>((index * kClients + client) % kRequests);
    std::vector<Tensor> inputs = requests_[r];  // copied outside the timer
    OpResult result;
    Clock::time_point start = Clock::now();
    ServeFuture future;
    {
      Span span("serve.Submit");
      future = batcher_->Submit(std::move(inputs));
    }
    double submit_us = MsSince(start) * 1e3;
    ServeResponse response = [&] {
      Span span("serve.Wait");
      return future.get();
    }();
    result.ms = MsSince(start);
    submit_us_[client].push_back(submit_us);
    result.ok = response.ok() &&
                OutputError(*response, references_[r]) <= kTolerance;
    return result;
  }

  Status AddLayerMetrics(const PhaseSummary& phase, MetricSet& out) override {
    BatcherStats stats = batcher_->stats();
    std::vector<double> submit_us;
    for (const std::vector<double>& from_client : submit_us_) {
      submit_us.insert(submit_us.end(), from_client.begin(),
                       from_client.end());
    }

    // The compute floor: a direct Run of the batch-2 executable on the
    // stacked inputs of two requests.
    Program pair = [&] {
      Span span("ir.Capture");
      return Program::Capture(workload_.build, /*batch=*/kClients);
    }();
    StatusOr<Executable> exe = [&] {
      Span span("api.Partition");
      return pair.Partition(workload_.schedule, workload_.mesh);
    }();
    PARTIR_RETURN_IF_ERROR(exe.status());
    std::vector<const Tensor*> parts(kClients);
    std::vector<Tensor> stacked = requests_[0];
    std::vector<double> stack_us, unstack_us, run_ms;
    for (int i = 0; i < kProbeRepeats; ++i) {
      Span span("spmd.StackBatch");
      Clock::time_point start = Clock::now();
      for (int in : harness_.batched_inputs()) {
        for (int c = 0; c < kClients; ++c) parts[c] = &requests_[c][in];
        PARTIR_ASSIGN_OR_RETURN(stacked[in], StackBatch(parts));
      }
      stack_us.push_back(MsSince(start) * 1e3);
    }
    std::vector<Tensor> outputs;
    for (int i = 0; i < kProbeRepeats; ++i) {
      Span span("spmd.Run");
      Clock::time_point start = Clock::now();
      PARTIR_ASSIGN_OR_RETURN(outputs, exe->Run(stacked));
      run_ms.push_back(MsSince(start));
    }
    std::vector<Tensor> unstacked;
    for (int i = 0; i < kProbeRepeats; ++i) {
      Span span("spmd.UnstackBatch");
      Clock::time_point start = Clock::now();
      PARTIR_ASSIGN_OR_RETURN(unstacked, UnstackBatch(outputs[0], kClients));
      unstack_us.push_back(MsSince(start) * 1e3);
    }
    for (int c = 0; c < kClients; ++c) {
      if (!(OutputError({unstacked[c]}, {references_[c][0]}) <= kTolerance)) {
        return InternalError("serve_mlp: batch-2 Run differs from Evaluate");
      }
    }

    const double run_ms_p50 = Median(run_ms);
    out.Add("serve.batches", "count", static_cast<double>(stats.batches));
    out.Add("serve.mean_batch", "count", stats.MeanBatchSize());
    out.Add("serve.compiles", "count", static_cast<double>(stats.compiles));
    out.Add("serve.failed", "count", static_cast<double>(stats.failed));
    out.Add("serve.expired", "count", static_cast<double>(stats.expired));
    out.Add("serve.submit_us_p50", "us", Median(submit_us));
    out.Add("serve.run_ms_p50", "ms", run_ms_p50);
    out.Add("serve.overhead_ms_p50", "ms", Median(phase.ms) - run_ms_p50);
    out.Add("spmd.stack_us", "us", Median(stack_us));
    out.Add("spmd.unstack_us", "us", Median(unstack_us));
    out.Add("api.cache_hits", "count", static_cast<double>(stats.cache.hits));
    out.Add("api.cache_misses", "count",
            static_cast<double>(stats.cache.misses));
    return Status::Ok();
  }

 private:
  serving::ServeWorkload workload_;
  serving::WorkloadHarness harness_;
  std::unique_ptr<Program> program_;
  std::unique_ptr<Batcher> batcher_;
  std::vector<std::vector<Tensor>> requests_;
  std::vector<std::vector<Tensor>> references_;
  // One vector per client thread; each thread appends only to its own.
  std::vector<std::vector<double>> submit_us_;
};

}  // namespace

std::unique_ptr<Workload> MakeServeMlp() {
  return std::make_unique<ServeMlp>();
}

}  // namespace perfbench
