/**
 * @file
 * The compiled executor's kernel library: hand-written loops over arena
 * buffers that reproduce the reference interpreter's arithmetic bit for
 * bit while skipping its per-index vectors, std::function calls and
 * bounds-checked accessors.
 *
 *  - Fused elementwise chains: a run of consecutive elementwise
 *    instructions whose intermediates die immediately executes as ONE loop
 *    over the data, carrying the intermediate in a register. The chain's
 *    per-element operation order is exactly the unfused order, so outputs
 *    are bit-identical; intermediates never touch the arena at all (the
 *    memory planner's slots for them simply stay unwritten).
 *
 *  - Strided loop nests: dot (any batch and contracting dims, in any
 *    positions), reduce (sum/max over any dims), and the data-movement ops
 *    broadcast_in_dim, transpose, static_slice and concatenate (one strided
 *    copy each). Their geometry — extents plus per-buffer element strides,
 *    with unit dims dropped and adjacent dims merged wherever the strides
 *    compose — is planned once at compile time (the Plan* functions), so
 *    `[B,S,D]·[D,N]` runs as a single `B·S x N` GEMM and the hot path does
 *    no attribute lookups. Dot visits contracting indices in row-major
 *    order with a double accumulator and one float cast; reduce folds each
 *    output over its inputs in row-major input order with the reference
 *    `std::max(slot, v)` / `slot + v`. Both match the interpreter's
 *    EvalDot / EvalReduce exactly.
 *
 *  - Compiled PartIR:Core loops reuse the strided copy to move chunks in
 *    and out of a tiled dim (one plan per chunk), and fold #sum/#max
 *    iterations with in-order elementwise accumulation, matching
 *    Tensor::Combine's fold order.
 *
 * The reference interpreter (src/interp/) deliberately keeps its own naive
 * loops: it is the independent oracle the differential tests compare these
 * kernels against.
 */
#ifndef PARTIR_EXEC_KERNELS_H_
#define PARTIR_EXEC_KERNELS_H_

#include <cstdint>
#include <vector>

#include "src/interp/tensor.h"
#include "src/ir/op_kind.h"

namespace partir {
namespace exec {

/** One step of a fused elementwise chain. */
struct ChainStep {
  OpKind kind;
  /**
   * Binary steps: arena slot of the non-carried operand. -1 for unary
   * steps and for binary steps whose operands are both the carried value
   * (e.g. mul(x, x)).
   */
  int external_slot = -1;
  /** Binary steps with an external operand: the carried value is the lhs. */
  bool carried_lhs = true;
};

/**
 * A run of >= 2 consecutive elementwise instructions fused into one loop.
 * steps[0] consumes the chain input; every intermediate dies at the next
 * step, so only the final result is written back.
 */
struct FusedChain {
  /** Arena slot of the chain's carried input. */
  int input_slot = -1;
  std::vector<ChainStep> steps;
};

/**
 * Executes `chain` over `numel` elements. externals[s] is the data pointer
 * for steps[s]'s external operand (null for carried-only steps). `out` may
 * alias `in` or any external: element k is fully read before out[k] is
 * written, and no element is revisited.
 */
void RunFusedChain(const FusedChain& chain, const float* in,
                   const float* const* externals, float* out, int64_t numel);

/**
 * One loop of a strided loop nest: its trip count and the element stride
 * by which each of (up to) three buffers advances per step. Which buffer
 * is which depends on the plan: stride[0] is always the output's.
 */
struct Axis {
  int64_t extent = 1;
  int64_t stride[3] = {0, 0, 0};
};

/**
 * A row-major loop nest, outermost axis first, as the Plan* functions
 * return it: no unit axes, and no adjacent pair whose strides compose for
 * every buffer (those are merged). Never empty — a nest without any
 * non-unit axis is a single axis of extent 1.
 */
using LoopNest = std::vector<Axis>;

/**
 * Geometry of one dot. `outer` walks every output element (strides: out,
 * lhs, rhs); `contract` walks the contracting indices in lhs_contract
 * order (strides: unused, lhs, rhs). When `blocked`, the last two axes of
 * `outer` are the i (no rhs stride) and unit-stride j axes of an i/j-tiled
 * GEMM whose rhs rows are read contiguously.
 */
struct DotPlan {
  LoopNest outer;
  LoopNest contract;
  bool blocked = false;
};

DotPlan PlanDot(const std::vector<int64_t>& lhs_dims,
                const std::vector<int64_t>& rhs_dims,
                const std::vector<int64_t>& lhs_contract,
                const std::vector<int64_t>& rhs_contract,
                const std::vector<int64_t>& lhs_batch,
                const std::vector<int64_t>& rhs_batch);

/**
 * out = dot(lhs, rhs) per `plan`. Every output element accumulates in
 * double over the contracting indices in row-major order and is cast to
 * float once: the interpreter's EvalDot summation, bit for bit. `out` must
 * not alias an operand.
 */
void DotInto(const DotPlan& plan, const float* lhs, const float* rhs,
             float* out);

/**
 * Geometry of one reduce: `nest` walks the input in row-major order
 * (strides: out, with 0 on reduced axes; in).
 */
struct ReducePlan {
  LoopNest nest;
  bool is_max = false;
  int64_t out_numel = 0;
};

ReducePlan PlanReduce(const std::vector<int64_t>& in_dims,
                      const std::vector<int64_t>& dims, bool is_max);

/**
 * out = reduce(in) per `plan`: out starts at 0 (sum) or -inf (max) and
 * folds its inputs in row-major input order with `slot + v` /
 * `std::max(slot, v)` — EvalReduce's expression and order, so NaN and -inf
 * inputs come out exactly as in the interpreter. `out` must not alias `in`.
 */
void ReduceInto(const ReducePlan& plan, const float* in, float* out);

/**
 * One strided copy out[out_offset + ...] = in[in_offset + ...] over
 * `nest` (strides: out, in).
 */
struct CopyPlan {
  LoopNest nest;
  int64_t out_offset = 0;
  int64_t in_offset = 0;
};

/** broadcast_in_dim: input dim i feeds output dim broadcast_dims[i]. */
CopyPlan PlanBroadcastInDim(const std::vector<int64_t>& in_dims,
                            const std::vector<int64_t>& out_dims,
                            const std::vector<int64_t>& broadcast_dims);
/** transpose: output dim i is input dim perm[i]. */
CopyPlan PlanTranspose(const std::vector<int64_t>& in_dims,
                       const std::vector<int64_t>& perm);
/** static_slice of `out_dims` elements starting at `starts`. */
CopyPlan PlanStaticSlice(const std::vector<int64_t>& in_dims,
                         const std::vector<int64_t>& out_dims,
                         const std::vector<int64_t>& starts);
/** concatenate along `dim`: one copy per operand, into its output range. */
std::vector<CopyPlan> PlanConcatenate(
    const std::vector<std::vector<int64_t>>& operand_dims, int64_t dim);

/** Runs one strided copy. `out` must not alias `in`. */
void CopyInto(const CopyPlan& plan, const float* in, float* out);

/**
 * out[k] = out[k] + part[k] (or max with `is_max`), in ascending element
 * order — the fold order of Tensor::Combine, which keeps compiled #sum
 * loops bit-identical to the interpreter's accumulation.
 */
void AccumulateInto(const Tensor& part, bool is_max, Tensor& out);

}  // namespace exec
}  // namespace partir

#endif  // PARTIR_EXEC_KERNELS_H_
