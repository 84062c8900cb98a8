// Differential tests for the compiled executor, the SPMD runtime behind
// every Run: every example and serving workload must be bit-identical
// (memcmp) to the sequential reference walker (RunSpmdReference) when run
// sequentially, threaded and with a capped thread count. Also covers
// memory_stats(), ad-hoc compilation after module mutation, cache-hit
// clones, the persistent worker pool, per-Run statistics and a batcher
// smoke. This suite runs under the ThreadSanitizer and debug-verify CI jobs.
#include <gtest/gtest.h>

#include <cstring>

#include "src/api/partir.h"
#include "src/exec/device_program.h"
#include "src/exec/executor.h"
#include "src/exec/worker_pool.h"
#include "src/ir/builder.h"
#include "src/models/gns.h"
#include "src/models/schedules.h"
#include "src/models/serving.h"
#include "src/models/transformer.h"
#include "src/serve/batcher.h"

namespace partir {
namespace {

using serving::AllServeWorkloads;
using serving::ServeWorkload;
using serving::WorkloadHarness;

void ExpectBitIdentical(const std::vector<Tensor>& a,
                        const std::vector<Tensor>& b,
                        const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].dims(), b[i].dims()) << label << " output " << i;
    EXPECT_EQ(std::memcmp(a[i].data().data(), b[i].data().data(),
                          a[i].data().size() * sizeof(float)),
              0)
        << label << " output " << i << " is not bit-identical";
  }
}

// Runs the executable sequentially, fully threaded and capped at three
// threads; asserts every mode is bit-identical to the sequential reference
// walker.
void ExpectMatchesReferenceWalker(const Executable& exe,
                                  const std::vector<Tensor>& inputs,
                                  const std::string& label) {
  std::vector<Tensor> want = RunSpmdReference(exe.spmd(), inputs).value();
  for (int num_threads : {1, 0, 3}) {
    RunOptions options;
    options.num_threads = num_threads;
    ExpectBitIdentical(want, exe.Run(inputs, options).value(),
                       label + " (threads=" + std::to_string(num_threads) +
                           ")");
  }
}

Program BuildChainProgram(int64_t rows, int64_t inner, int64_t hidden) {
  Program program("chain");
  Value* x = program.AddInput(TensorType({rows, inner}), "x");
  Value* w1 = program.AddInput(TensorType({inner, hidden}), "w1");
  Value* w2 = program.AddInput(TensorType({hidden, inner}), "w2");
  OpBuilder& builder = program.builder();
  program.Return({builder.MatMul(builder.MatMul(x, w1), w2)});
  return program;
}

// ---- The example workloads, bit-for-bit against the reference walker ----

TEST(ExecBackendTest, QuickstartChainBpMpZ3) {
  Program program("main");
  Value* x = program.AddInput(TensorType({256, 8}), "x");
  Value* w1 = program.AddInput(TensorType({8, 16}), "w1");
  Value* w2 = program.AddInput(TensorType({16, 8}), "w2");
  OpBuilder& builder = program.builder();
  program.Return({builder.MatMul(builder.MatMul(x, w1), w2)});
  Mesh mesh({{"B", 4}, {"M", 2}});
  Executable exe =
      program
          .Partition({ManualPartition{"BP", {{"x", 0}}, "B"},
                      ManualPartition{"MP", {{"w1", 1}}, "M"},
                      ManualPartition{"Z3", {{"w1", 0}, {"w2", 1}}, "B"}},
                     mesh)
          .value();
  ExpectMatchesReferenceWalker(exe, program.RandomInputs(1), "quickstart");
}

TransformerConfig SmallTransformer() {
  TransformerConfig config;
  config.num_layers = 1;
  config.d_model = 16;
  config.num_heads = 2;
  config.head_dim = 8;
  config.ffw_size = 32;
  config.vocab = 32;
  config.batch = 4;
  config.seq = 4;
  return config;
}

TEST(ExecBackendTest, TransformerTrainingBpMp) {
  TransformerConfig config = SmallTransformer();
  Program program = Program::Capture([&](Module& module) {
    return BuildTransformerTrainingStep(module, config);
  });
  Mesh mesh({{"batch", 2}, {"model", 2}});
  Executable exe =
      program
          .Partition({schedules::TransformerBP(), schedules::TransformerMP()},
                     mesh)
          .value();
  ExpectMatchesReferenceWalker(
      exe, program.RandomInputs(21, static_cast<float>(config.vocab)),
      "transformer training");
}

// Differential coverage for the boundary-aware realization of the
// standalone-EMB schedule (PartitionOptions::boundary_realization): the
// new lowering must be bit-identical to the reference walker in
// sequential, fully-threaded and capped-thread modes, and both the
// boundary-realized and the historical all-all_reduce lowerings must agree
// with the unpartitioned reference evaluation. Collective reductions
// re-associate float sums, so the unpartitioned comparison uses a
// tolerance; the walker/threading comparisons stay memcmp-strict.
TEST(ExecBackendTest, TransformerEmbBoundaryRealizationDifferential) {
  TransformerConfig config = SmallTransformer();
  Program program = Program::Capture([&](Module& module) {
    return BuildTransformerTrainingStep(module, config);
  });
  Mesh mesh({{"batch", 2}, {"model", 2}});
  std::vector<Tensor> inputs =
      program.RandomInputs(25, static_cast<float>(config.vocab));
  std::vector<Tensor> reference = program.Evaluate(inputs).value();

  PartitionOptions historical_options;
  historical_options.boundary_realization = false;
  struct Variant {
    const char* label;
    Executable exe;
  };
  Variant variants[] = {
      {"EMB boundary",
       program.Partition({schedules::TransformerEMB()}, mesh).value()},
      {"EMB historical",
       program
           .Partition({schedules::TransformerEMB()}, mesh,
                      historical_options)
           .value()},
      {"BP+MP+Z3+EMB boundary",
       program
           .Partition({schedules::TransformerBP(), schedules::TransformerMP(),
                       schedules::TransformerZ3(),
                       schedules::TransformerEMB()},
                      mesh)
           .value()},
  };
  constexpr float kTol = 5e-3f;
  for (Variant& variant : variants) {
    ExpectMatchesReferenceWalker(variant.exe, inputs, variant.label);
    for (int num_threads : {1, 0, 3}) {
      RunOptions options;
      options.num_threads = num_threads;
      std::vector<Tensor> got = variant.exe.Run(inputs, options).value();
      ASSERT_EQ(got.size(), reference.size()) << variant.label;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_LT(Tensor::MaxAbsDiff(reference[i], got[i]), kTol)
            << variant.label << " output " << i << " vs reference (threads="
            << num_threads << ")";
      }
    }
  }
}

TEST(ExecBackendTest, TransformerInferenceBp) {
  TransformerConfig config = SmallTransformer();
  Program program = Program::Capture([&](Module& module) {
    return BuildTransformerInference(module, config, /*decode_steps=*/2);
  });
  Mesh mesh({{"batch", 4}});
  Executable exe =
      program.Partition({schedules::InferenceBP()}, mesh).value();
  ExpectMatchesReferenceWalker(
      exe, program.RandomInputs(22, static_cast<float>(config.vocab)),
      "transformer inference");
}

TEST(ExecBackendTest, GnsEdgeSharding) {
  GnsConfig config;
  config.message_steps = 2;
  config.num_edges = 16;
  config.num_nodes = 8;
  Program program = Program::Capture(
      [&](Module& module) { return BuildGnsLoss(module, config); });
  Mesh mesh({{"batch", 4}});
  Executable exe = program.Partition({schedules::GnsES()}, mesh).value();
  ExpectMatchesReferenceWalker(
      exe, program.RandomInputs(23, static_cast<float>(config.num_nodes)),
      "gns edge sharding");
}

TEST(ExecBackendTest, AutomaticPartitioning) {
  Program program = BuildChainProgram(16, 8, 8);
  Mesh mesh({{"B", 4}});
  AutomaticPartition automatic;
  automatic.name = "auto";
  automatic.axes = {"B"};
  automatic.options.simulations = 16;
  Executable exe = program.Partition({automatic}, mesh).value();
  ExpectMatchesReferenceWalker(exe, program.RandomInputs(24), "automatic");
}

// ---- All five serving workloads ----

TEST(ExecBackendTest, ServingWorkloadsMatchReferenceWalker) {
  for (const ServeWorkload& workload : AllServeWorkloads()) {
    SCOPED_TRACE(workload.name);
    for (int64_t batch : {1, 4}) {
      Program program = Program::Capture(workload.build, batch);
      StatusOr<Executable> exe =
          program.Partition(workload.schedule, workload.mesh);
      if (!exe.ok()) {
        // Batch sizes the schedule cannot shard serve unpartitioned (the
        // batcher's fallback); the runtime must cover that too.
        exe = program.Partition({}, workload.mesh);
      }
      ASSERT_TRUE(exe.ok()) << exe.status().ToString();
      std::vector<Tensor> inputs =
          program.RandomInputs(31 + batch, workload.index_modulus);
      ExpectMatchesReferenceWalker(
          *exe, inputs, workload.name + "@" + std::to_string(batch));
    }
  }
}

// ---- Memory stats ----

TEST(ExecBackendTest, MemoryStatsReportPlannedArena) {
  Program program = BuildChainProgram(16, 8, 8);
  Mesh mesh({{"B", 4}});
  Executable exe =
      program.Partition({ManualPartition{"BP", {{"x", 0}}, "B"}}, mesh)
          .value();
  exec::MemoryStats stats = exe.memory_stats().value();
  EXPECT_EQ(stats.num_devices, 4);
  EXPECT_GT(stats.values, 0);
  EXPECT_GT(stats.slots, 0);
  EXPECT_LE(stats.slots, stats.values);
  EXPECT_GT(stats.peak_arena_bytes, 0);
  EXPECT_LE(stats.peak_live_bytes, stats.peak_arena_bytes);
  // The arena never exceeds what per-op allocation would have used.
  EXPECT_LE(stats.peak_arena_bytes, stats.unplanned_bytes);
  EXPECT_EQ(stats.total_arena_bytes, stats.peak_arena_bytes * 4);
}

// ---- Invalidation, ad-hoc compilation, cache clones ----

TEST(ExecBackendTest, MutableAccessDropsProgramAndAdHocCompileStillAgrees) {
  Program program = BuildChainProgram(8, 8, 8);
  Mesh mesh({{"B", 4}});
  Executable exe =
      program.Partition({ManualPartition{"BP", {{"x", 0}}, "B"}}, mesh)
          .value();
  ASSERT_NE(exe.spmd().exec_program, nullptr)
      << "pipeline did not compile a device program";
  // A backend stand-in touches the module: the compiled program must drop
  // with the collective plan...
  exe.mutable_spmd();
  EXPECT_EQ(exe.spmd().exec_program, nullptr);
  // ...and the next Run recompiles ad hoc, still bit-identical.
  ExpectMatchesReferenceWalker(exe, program.RandomInputs(3),
                               "after invalidation");
}

TEST(ExecBackendTest, CacheHitClonesShareTheCompiledProgram) {
  Program program = BuildChainProgram(8, 8, 8);
  Mesh mesh({{"B", 4}});
  std::vector<Tactic> schedule = {ManualPartition{"BP", {{"x", 0}}, "B"}};
  Executable first = program.Partition(schedule, mesh).value();
  // Same schedule again: a cache hit, deep-cloned. The compiled program is
  // immutable, so the clone shares it — present, identical to the
  // original's, and produced with ZERO additional compilations.
  int64_t compiles_before = exec::CompiledProgramCount();
  Executable second = first.Respecialize(schedule).value();
  EXPECT_EQ(exec::CompiledProgramCount(), compiles_before)
      << "a cache hit recompiled the device program";
  ASSERT_NE(second.spmd().exec_program, nullptr);
  EXPECT_EQ(second.spmd().exec_program.get(), first.spmd().exec_program.get())
      << "cache-hit clones should share one immutable program";
  std::vector<Tensor> inputs = program.RandomInputs(4);
  ExpectMatchesReferenceWalker(second, inputs, "cache-hit clone");
  ExpectBitIdentical(first.Run(inputs).value(), second.Run(inputs).value(),
                     "clone vs original");
  // Mutable access drops the shared program without touching the
  // original's, and the next Run still agrees bit-for-bit.
  second.mutable_spmd();
  EXPECT_EQ(second.spmd().exec_program, nullptr);
  ASSERT_NE(first.spmd().exec_program, nullptr);
  ExpectMatchesReferenceWalker(second, inputs, "mutated clone");
}

// ---- Kernel tier: fused elementwise chains ----

TEST(ExecBackendTest, ElementwiseChainsFuseAndStayBitIdentical) {
  Program program("elementwise");
  Value* x = program.AddInput(TensorType({32, 16}), "x");
  Value* y = program.AddInput(TensorType({32, 16}), "y");
  OpBuilder& builder = program.builder();
  // A long run of elementwise ops whose intermediates all die immediately:
  // unary, carried-lhs binary, carried-rhs binary, and both-carried forms.
  Value* a = builder.Add(x, y);
  Value* b = builder.Mul(a, a);
  Value* c = builder.Tanh(b);
  Value* d = builder.Sub(y, c);
  Value* e = builder.Max(d, x);
  program.Return({builder.Exp(e)});
  Mesh mesh({{"B", 4}});
  Executable exe =
      program.Partition({ManualPartition{"BP", {{"x", 0}, {"y", 0}}, "B"}},
                        mesh)
          .value();
  exec::MemoryStats stats = exe.memory_stats().value();
  EXPECT_GE(stats.fused_chains, 1) << "no elementwise chain was fused";
  EXPECT_GE(stats.fused_instructions, 2 * stats.fused_chains);
  ExpectMatchesReferenceWalker(exe, program.RandomInputs(41), "fused chain");
}

// ---- Compiled PartIR:Core loop regions ----

// A device-local module still carrying loop regions (tile with slices, a
// nested tile inside a sum, and an elementwise tail in a body) must compile
// and agree bit-for-bit with the reference walker in every threading mode.
TEST(ExecBackendTest, LoopRegionModulesCompileAndAgree) {
  Mesh mesh({{"B", 2}});
  SpmdModule spmd;
  spmd.module = std::make_unique<Module>();
  spmd.mesh = mesh;
  Func* func = spmd.module->AddFunc("main");
  Value* xa = func->body().AddArg(TensorType({8, 4}), "x");
  Value* wa = func->body().AddArg(TensorType({4, 6}), "w");
  OpBuilder builder(&func->body());

  // tile loop: slice x along dim 0, matmul, elementwise tail in the body.
  Operation* tile = builder.Loop("T", 4, "tile", 0, TensorType({8, 6}));
  {
    Block& body = tile->region(0).block();
    OpBuilder inner(&body);
    Value* xs = inner.PSlice(xa, body.arg(0), 0);
    Value* h = inner.MatMul(xs, wa);
    inner.Yield(&body, {inner.Tanh(inner.Mul(h, h))});
  }

  // sum loop with a nested tile loop: exercises recursive compilation and
  // per-iteration slot reuse two regions deep.
  Operation* sum = builder.Loop("S", 2, "sum", -1, TensorType({8, 6}));
  {
    Block& sbody = sum->region(0).block();
    OpBuilder sinner(&sbody);
    Operation* nested = sinner.Loop("N", 2, "tile", 1, TensorType({8, 6}));
    Block& nbody = nested->region(0).block();
    OpBuilder ninner(&nbody);
    Value* part = ninner.PSlice(tile->result(), nbody.arg(0), 1);
    ninner.Yield(&nbody, {ninner.Exp(part)});
    sinner.Yield(&sbody, {sinner.Mul(nested->result(), nested->result())});
  }

  // any loop: evaluates a single iteration.
  Operation* any = builder.Loop("A", 2, "any", -1, TensorType({8, 6}));
  {
    Block& abody = any->region(0).block();
    OpBuilder ainner(&abody);
    ainner.Yield(&abody, {sum->result()});
  }
  builder.Return({tile->result(), any->result()});
  ValueSharding replicated{AxesPerDim{{}, {}}};
  spmd.input_shardings = {replicated, replicated};
  spmd.output_shardings = {replicated, replicated};

  // The whole point: this module compiles instead of erroring out.
  ASSERT_TRUE(exec::CompileDeviceProgram(spmd).ok());

  std::vector<Tensor> inputs = {Tensor::Random({8, 4}, 51),
                                Tensor::Random({4, 6}, 52)};
  std::vector<Tensor> want = RunSpmdReference(spmd, inputs).value();
  for (int num_threads : {1, 0}) {
    RunOptions options;
    options.num_threads = num_threads;
    ExpectBitIdentical(RunSpmd(spmd, inputs, options).value(), want,
                       "loop region (threads=" +
                           std::to_string(num_threads) + ")");
  }
}

// ---- Persistent worker pool ----

TEST(ExecBackendTest, PersistentPoolStopsSpawningThreadsAcrossRuns) {
  Program program = BuildChainProgram(16, 8, 8);
  Mesh mesh({{"B", 4}});
  Executable exe =
      program.Partition({ManualPartition{"BP", {{"x", 0}}, "B"}}, mesh)
          .value();
  std::vector<Tensor> inputs = program.RandomInputs(61);
  std::vector<Tensor> want = RunSpmdReference(exe.spmd(), inputs).value();

  // The first threaded Run creates the executable's pool...
  ExpectBitIdentical(exe.Run(inputs).value(), want, "first run");
  int64_t created = exec::WorkerPool::threads_created();
  // ...and 1000 back-to-back Runs reuse its resident workers: the
  // process-wide thread-creation count must not move.
  for (int r = 0; r < 1000; ++r) {
    ASSERT_TRUE(exe.Run(inputs).ok());
  }
  EXPECT_EQ(exec::WorkerPool::threads_created(), created)
      << "pooled Runs spawned fresh pool threads";
  ExpectBitIdentical(exe.Run(inputs).value(), want, "last run");
}

TEST(ExecBackendTest, TwoExecutablesDriveIndependentPools) {
  Program program_a = BuildChainProgram(16, 8, 8);
  Program program_b = BuildChainProgram(8, 4, 4);
  Mesh mesh({{"B", 4}});
  Executable a =
      program_a.Partition({ManualPartition{"BP", {{"x", 0}}, "B"}}, mesh)
          .value();
  Executable b =
      program_b.Partition({ManualPartition{"BP", {{"x", 0}}, "B"}}, mesh)
          .value();
  std::vector<Tensor> inputs_a = program_a.RandomInputs(62);
  std::vector<Tensor> inputs_b = program_b.RandomInputs(63);
  std::vector<Tensor> want_a = RunSpmdReference(a.spmd(), inputs_a).value();
  std::vector<Tensor> want_b = RunSpmdReference(b.spmd(), inputs_b).value();
  // Warm both pools, then interleave: neither executable's Runs may spawn.
  ASSERT_TRUE(a.Run(inputs_a).ok());
  ASSERT_TRUE(b.Run(inputs_b).ok());
  int64_t created = exec::WorkerPool::threads_created();
  for (int r = 0; r < 50; ++r) {
    ExpectBitIdentical(a.Run(inputs_a).value(), want_a, "a");
    ExpectBitIdentical(b.Run(inputs_b).value(), want_b, "b");
  }
  EXPECT_EQ(exec::WorkerPool::threads_created(), created);
}

TEST(ExecBackendTest, RespecializeWhilePoolIsLive) {
  Program program = BuildChainProgram(16, 8, 8);
  Mesh mesh({{"B", 4}, {"M", 2}});
  Executable first =
      program.Partition({ManualPartition{"BP", {{"x", 0}}, "B"}}, mesh)
          .value();
  std::vector<Tensor> inputs = program.RandomInputs(64);
  RunOptions threaded;
  // Warm the first executable's pool, then respecialize while it is live:
  // the new executable gets its own pool and both keep running.
  ASSERT_TRUE(first.Run(inputs, threaded).ok());
  Executable second =
      first.Respecialize({ManualPartition{"MP", {{"w1", 1}}, "M"}}).value();
  // Both stay bit-identical to the reference walker, threaded and
  // sequential.
  RunOptions sequential;
  sequential.num_threads = 1;
  std::vector<Tensor> want_second =
      RunSpmdReference(second.spmd(), inputs).value();
  ExpectBitIdentical(second.Run(inputs, threaded).value(), want_second,
                     "respecialized while pool live");
  ExpectBitIdentical(second.Run(inputs, sequential).value(), want_second,
                     "respecialized, sequential");
  std::vector<Tensor> want_first =
      RunSpmdReference(first.spmd(), inputs).value();
  ExpectBitIdentical(first.Run(inputs, threaded).value(), want_first,
                     "original after respecialize");
  ExpectBitIdentical(first.Run(inputs, sequential).value(), want_first,
                     "original after respecialize, sequential");
}

TEST(ExecBackendTest, UsePoolFalseStillAgrees) {
  Program program = BuildChainProgram(16, 8, 8);
  Mesh mesh({{"B", 4}});
  Executable exe =
      program.Partition({ManualPartition{"BP", {{"x", 0}}, "B"}}, mesh)
          .value();
  std::vector<Tensor> inputs = program.RandomInputs(65);
  RunOptions pooled;
  RunOptions spawning = pooled;
  spawning.use_pool = false;
  ExpectBitIdentical(exe.Run(inputs, pooled).value(),
                     exe.Run(inputs, spawning).value(),
                     "pool vs spawn");
}

// ExecuteCompiled sits below RunSpmd's validation: a caller that hands it a
// negative thread count must abort on the check, not deadlock every device
// on a semaphore sized below zero.
TEST(ExecBackendDeathTest, ExecuteCompiledRejectsNegativeThreadCount) {
  Program program = BuildChainProgram(8, 8, 8);
  Mesh mesh({{"B", 4}});
  Executable exe =
      program.Partition({ManualPartition{"BP", {{"x", 0}}, "B"}}, mesh)
          .value();
  ASSERT_NE(exe.spmd().exec_program, nullptr);
  std::vector<Tensor> inputs = program.RandomInputs(67);
  RunOptions options;
  options.num_threads = -1;
  EXPECT_DEATH((void)exec::ExecuteCompiled(
                   exe.spmd(), *exe.spmd().exec_program, inputs, options),
               "num_threads");
}

// ---- Per-run allocation statistics ----

TEST(ExecBackendTest, RunStatsCountAllocationsPerRun) {
  Program program = BuildChainProgram(16, 8, 8);
  Mesh mesh({{"B", 4}});
  Executable exe =
      program.Partition({ManualPartition{"BP", {{"x", 0}}, "B"}}, mesh)
          .value();
  std::vector<Tensor> inputs = program.RandomInputs(66);

  RunOptions threaded;
  RunStats stats;
  threaded.stats = &stats;
  ASSERT_TRUE(exe.Run(inputs, threaded).ok());
  EXPECT_GT(stats.allocations, 0);
  int64_t first_run = stats.allocations;
  // Identical Runs allocate identically: per-run counting is deterministic,
  // unlike deltas of the process-wide counter under concurrency.
  ASSERT_TRUE(exe.Run(inputs, threaded).ok());
  EXPECT_EQ(stats.allocations, first_run);
  // The executable reports its latest Run's count through memory_stats().
  exec::MemoryStats mem = exe.memory_stats().value();
  EXPECT_EQ(mem.last_run_allocations, first_run);

  // The sequential walk fills the same stats.
  RunOptions sequential;
  sequential.num_threads = 1;
  sequential.stats = &stats;
  ASSERT_TRUE(exe.Run(inputs, sequential).ok());
  EXPECT_GT(stats.allocations, 0);

  // transformer_infer at batch 8 (bench_exec_backend's configuration): the
  // strided kernels write dot/reduce/broadcast/concat/transpose/slice
  // results into recycled arena slots, so a Run allocates fewer buffers
  // than the 674 it took when those ops ran the interpreter fallback.
  constexpr int64_t kFallbackTransformerAllocations = 674;
  ServeWorkload workload = serving::TransformerInferWorkload();
  Program transformer = Program::Capture(workload.build, 8);
  Executable transformer_exe =
      transformer.Partition(workload.schedule, workload.mesh).value();
  std::vector<Tensor> transformer_inputs =
      transformer.RandomInputs(2026, workload.index_modulus);
  for (int num_threads : {1, 0}) {
    RunOptions options;
    options.num_threads = num_threads;
    options.stats = &stats;
    ASSERT_TRUE(transformer_exe.Run(transformer_inputs, options).ok());
    EXPECT_GT(stats.allocations, 0);
    EXPECT_LT(stats.allocations, kFallbackTransformerAllocations)
        << "threads=" << num_threads;
  }
}

// ---- Batcher smoke ----

TEST(ExecBackendTest, BatcherServesBitIdenticallyToReferenceWalker) {
  ServeWorkload workload = serving::MatMulChainWorkload();
  WorkloadHarness harness(workload);
  Executable reference =
      harness.unit().Partition(workload.schedule, workload.mesh).value();

  Program program = Program::Capture(workload.build, 1);
  BatchOptions options;
  options.max_batch = 4;
  options.max_delay_us = 10000;
  std::unique_ptr<Batcher> batcher =
      program.Serve(workload.schedule, workload.mesh, options).value();

  std::vector<ServeFuture> futures;
  std::vector<std::vector<Tensor>> want;
  for (int r = 0; r < 12; ++r) {
    std::vector<Tensor> inputs = harness.Request(700 + r);
    want.push_back(RunSpmdReference(reference.spmd(), inputs).value());
    futures.push_back(batcher->Submit(std::move(inputs)));
  }
  for (int r = 0; r < 12; ++r) {
    ServeResponse response = futures[r].get();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ExpectBitIdentical(response.value(), want[r],
                       "batch request " + std::to_string(r));
  }
  batcher->Shutdown();
  BatcherStats stats = batcher->stats();
  EXPECT_EQ(stats.completed, 12);
  EXPECT_EQ(stats.failed, 0);
}

}  // namespace
}  // namespace partir
