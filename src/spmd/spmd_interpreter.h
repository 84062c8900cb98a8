/**
 * @file
 * Multi-device SPMD runtime: executes the device-local program on every
 * device of the mesh with real collective semantics (slice / gather /
 * reduce / reduce-scatter / all-to-all across mesh-axis replica groups).
 *
 * RunSpmd is the one runtime: it executes the module's compiled
 * DeviceProgram (src/exec/), either as a sequential walk or with one body
 * per simulated device meeting at rendezvous collectives — each device
 * deposits its contribution and blocks until the whole replica group has
 * arrived, the last arrival evaluates the group in deterministic position
 * order, and all members pick up their outputs.
 *
 * RunSpmdReference is the sequential reference walker: one global
 * op-walker evaluates each IR op on every device in turn — the executable
 * specification of the paper's Appendix C correctness theorem (partitioned
 * program + collectives == unpartitioned program). Tests and benches
 * compare the runtime against it; both evaluate collectives through the
 * same group-ordered functions (collectives.h), so their outputs are
 * bit-identical.
 */
#ifndef PARTIR_SPMD_SPMD_INTERPRETER_H_
#define PARTIR_SPMD_SPMD_INTERPRETER_H_

#include <vector>

#include "src/interp/tensor.h"
#include "src/spmd/lowering.h"
#include "src/support/status.h"

namespace partir {

namespace exec {
class WorkerPool;
}  // namespace exec

/** Per-device tensors, indexed by linear device id. */
using PerDevice = std::vector<Tensor>;

/** Per-Run statistics, filled when RunOptions::stats is set. */
struct RunStats {
  /**
   * Fresh tensor-buffer constructions performed by this Run, counted on the
   * calling thread and every device thread it drives. Unlike the process-
   * wide Tensor::allocations() counter, concurrent Runs do not bleed into
   * each other's counts.
   */
  int64_t allocations = 0;
};

/** Options controlling multi-device execution. */
struct RunOptions {
  /**
   * Worker threads executing device programs. 0 (default) runs one thread
   * per simulated device; 1 runs the devices sequentially on the calling
   * thread; any other positive value caps how many device threads run
   * concurrently (a thread waiting at a collective rendezvous releases its
   * slot, so any positive cap is deadlock-free). Values above the device
   * count are clamped; negative values are an InvalidArgumentError.
   */
  int num_threads = 0;
  /**
   * When true (default), collective reductions fold in group-position
   * order: outputs are bit-identical to the sequential reference walker
   * and across repeated runs. When false, all_reduce / reduce_scatter fold
   * in thread arrival order — correct within float tolerance, not
   * bit-stable.
   */
  bool deterministic = true;
  /**
   * Persistent device worker pool (exec/worker_pool.h). When non-null,
   * `use_pool` is true, and the pool has at least one worker per device,
   * threaded Runs dispatch device bodies onto the pool's resident
   * threads instead of spawning a fresh std::thread per device per Run.
   * If the pool is busy (another Run holds its submit lease), execution
   * falls back to spawning, so concurrent Runs stay correct.
   */
  exec::WorkerPool* pool = nullptr;
  bool use_pool = true;
  /** When non-null, filled with this Run's statistics. */
  RunStats* stats = nullptr;
};

/** Slices a global tensor into per-device shards per the sharding. */
PerDevice ShardTensor(const Tensor& global, const ValueSharding& sharding,
                      const Mesh& mesh);

/**
 * Reassembles a global tensor from per-device shards; checks that devices
 * holding the same shard agree (replica consistency).
 */
Tensor UnshardTensor(const PerDevice& shards, const ValueSharding& sharding,
                     const Mesh& mesh);

/**
 * Runs the SPMD program on all devices. `inputs[i]` are the *global* input
 * tensors; they are sharded per the module's input shardings. Returns the
 * *global* outputs, reassembled per the output shardings. Input arity and
 * shape mismatches (including unshardable global dims) and a negative
 * RunOptions::num_threads are typed errors, reported before any device
 * thread starts. Executes `spmd.exec_program`, compiling one ad hoc when
 * the module carries none (hand-built or mutated modules).
 */
StatusOr<std::vector<Tensor>> RunSpmd(const SpmdModule& spmd,
                                      const std::vector<Tensor>& global_inputs,
                                      const RunOptions& options = {});

/**
 * The sequential reference walker: validates like RunSpmd, then walks the
 * device-local IR op by op on every device in turn (collectives one replica
 * group at a time, in group-position order). Slow and allocation-heavy by
 * design; it is the correctness reference RunSpmd is tested against.
 */
StatusOr<std::vector<Tensor>> RunSpmdReference(
    const SpmdModule& spmd, const std::vector<Tensor>& global_inputs);

}  // namespace partir

#endif  // PARTIR_SPMD_SPMD_INTERPRETER_H_
