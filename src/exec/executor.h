/**
 * @file
 * Executes a compiled DeviceProgram over the mesh — the SPMD runtime behind
 * RunSpmd: slot-indexed arenas instead of Value->Tensor maps, planner-driven
 * buffer reuse and in-place elementwise updates, and two execution modes —
 * a sequential walk, and one thread per device meeting at rendezvous
 * collectives (src/spmd/rendezvous.h).
 *
 * Outputs are bit-identical to the sequential reference walker
 * (RunSpmdReference): elementwise kernels share the interpreter's scalar
 * functions; the strided dot and reduce kernels (kernels.h) accumulate in
 * the interpreter's order; broadcast_in_dim, transpose, static_slice and
 * concatenate are strided copies; convolution and its gradients, gather
 * and scatter_add fall back to the interpreter's own EvalOpRef; and
 * collectives fold in group position order.
 */
#ifndef PARTIR_EXEC_EXECUTOR_H_
#define PARTIR_EXEC_EXECUTOR_H_

#include <vector>

#include "src/exec/device_program.h"
#include "src/interp/tensor.h"
#include "src/spmd/spmd_interpreter.h"
#include "src/support/status.h"

namespace partir {
namespace exec {

/**
 * Runs `program` on every device of `spmd.mesh`. `global_inputs` are
 * global tensors (sharded per the module's input shardings); returns global
 * outputs reassembled per the output shardings. Inputs and options must
 * already be validated by RunSpmd; a negative num_threads aborts.
 */
StatusOr<std::vector<Tensor>> ExecuteCompiled(
    const SpmdModule& spmd, const DeviceProgram& program,
    const std::vector<Tensor>& global_inputs, const RunOptions& options);

}  // namespace exec
}  // namespace partir

#endif  // PARTIR_EXEC_EXECUTOR_H_
