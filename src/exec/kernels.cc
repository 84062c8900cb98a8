#include "src/exec/kernels.h"

#include <algorithm>
#include <limits>

#include "src/interp/interpreter.h"
#include "src/support/check.h"

namespace partir {
namespace exec {

void RunFusedChain(const FusedChain& chain, const float* in,
                   const float* const* externals, float* out, int64_t numel) {
  const ChainStep* steps = chain.steps.data();
  const size_t num_steps = chain.steps.size();
  for (int64_t k = 0; k < numel; ++k) {
    float v = in[k];
    for (size_t s = 0; s < num_steps; ++s) {
      const ChainStep& step = steps[s];
      if (step.external_slot < 0) {
        v = IsUnaryElementwise(step.kind) ? ApplyUnaryOp(step.kind, v)
                                          : ApplyBinaryOp(step.kind, v, v);
      } else {
        float e = externals[s][k];
        v = step.carried_lhs ? ApplyBinaryOp(step.kind, v, e)
                             : ApplyBinaryOp(step.kind, e, v);
      }
    }
    out[k] = v;
  }
}

namespace {

/**
 * Calls fn(o, a, b) with the three buffers' element offsets (starting from
 * o, a, b) for every index of axes[0..n), in row-major order.
 */
template <typename Fn>
void VisitNest(const Axis* axes, size_t n, int64_t o, int64_t a, int64_t b,
               const Fn& fn) {
  if (n == 0) {
    fn(o, a, b);
    return;
  }
  const Axis& axis = axes[0];
  for (int64_t i = 0; i < axis.extent; ++i) {
    VisitNest(axes + 1, n - 1, o + i * axis.stride[0],
              a + i * axis.stride[1], b + i * axis.stride[2], fn);
  }
}

std::vector<int64_t> RowMajorStrides(const std::vector<int64_t>& dims) {
  std::vector<int64_t> strides(dims.size());
  int64_t stride = 1;
  for (size_t d = dims.size(); d-- > 0;) {
    strides[d] = stride;
    stride *= dims[d];
  }
  return strides;
}

/** Sets stride[0] of `nest` to the row-major strides of its extents. */
void SetRowMajorOut(LoopNest& nest) {
  int64_t stride = 1;
  for (size_t d = nest.size(); d-- > 0;) {
    nest[d].stride[0] = stride;
    stride *= nest[d].extent;
  }
}

bool Contains(const std::vector<int64_t>& v, int64_t x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

/** Drops unit axes and merges adjacent axes whose strides compose. */
LoopNest CollapseNest(const LoopNest& nest) {
  LoopNest out;
  for (const Axis& axis : nest) {
    if (axis.extent == 1) continue;
    if (!out.empty()) {
      Axis& prev = out.back();
      bool composes = true;
      for (int k = 0; k < 3; ++k) {
        composes = composes &&
                   prev.stride[k] == axis.stride[k] * axis.extent;
      }
      if (composes) {
        prev.extent *= axis.extent;
        for (int k = 0; k < 3; ++k) prev.stride[k] = axis.stride[k];
        continue;
      }
    }
    out.push_back(axis);
  }
  if (out.empty()) out.push_back(Axis{});
  return out;
}

/**
 * The blocked dot over one i/j tile grid: `iax` has no rhs stride and
 * `jax` is unit-stride in rhs and out, so rhs rows are read contiguously
 * while every output element still sums over the contracting nest in
 * row-major order.
 */
void BlockedDot(const Axis& iax, const Axis& jax, const LoopNest& contract,
                const float* lhs, const float* rhs, float* out) {
  constexpr int64_t kBlockI = 4;
  constexpr int64_t kBlockJ = 64;
  const Axis& kax = contract.back();
  double acc[kBlockI][kBlockJ];
  for (int64_t i0 = 0; i0 < iax.extent; i0 += kBlockI) {
    const int64_t ni = std::min(kBlockI, iax.extent - i0);
    const float* a = lhs + i0 * iax.stride[1];
    for (int64_t j0 = 0; j0 < jax.extent; j0 += kBlockJ) {
      const int64_t nj = std::min(kBlockJ, jax.extent - j0);
      for (int64_t ii = 0; ii < ni; ++ii) {
        for (int64_t jj = 0; jj < nj; ++jj) acc[ii][jj] = 0.0;
      }
      VisitNest(contract.data(), contract.size() - 1, 0, 0, 0,
                [&](int64_t, int64_t la, int64_t rb) {
                  for (int64_t k = 0; k < kax.extent; ++k) {
                    const float* bk = rhs + rb + k * kax.stride[2] + j0;
                    const float* ak = a + la + k * kax.stride[1];
                    for (int64_t ii = 0; ii < ni; ++ii) {
                      const double aik =
                          static_cast<double>(ak[ii * iax.stride[1]]);
                      for (int64_t jj = 0; jj < nj; ++jj) {
                        acc[ii][jj] += aik * static_cast<double>(bk[jj]);
                      }
                    }
                  }
                });
      for (int64_t ii = 0; ii < ni; ++ii) {
        float* orow = out + (i0 + ii) * iax.stride[0] + j0;
        for (int64_t jj = 0; jj < nj; ++jj) {
          orow[jj] = static_cast<float>(acc[ii][jj]);
        }
      }
    }
  }
}

/**
 * Outputs j .. j+kLanes-1 along `jax`, each a dot over the whole
 * contracting nest in row-major order with its own double accumulator:
 * independent lanes hide the add latency of one output's serial sum.
 */
template <int kLanes>
void DotLanes(const Axis& jax, const LoopNest& contract, int64_t j,
              const float* lhs, const float* rhs, float* out) {
  const Axis& kax = contract.back();
  const float* a[kLanes];
  const float* b[kLanes];
  double acc[kLanes];
  for (int q = 0; q < kLanes; ++q) {
    a[q] = lhs + (j + q) * jax.stride[1];
    b[q] = rhs + (j + q) * jax.stride[2];
    acc[q] = 0.0;
  }
  VisitNest(contract.data(), contract.size() - 1, 0, 0, 0,
            [&](int64_t, int64_t la, int64_t rb) {
              for (int64_t k = 0; k < kax.extent; ++k) {
                const int64_t ka = la + k * kax.stride[1];
                const int64_t kb = rb + k * kax.stride[2];
                for (int q = 0; q < kLanes; ++q) {
                  acc[q] += static_cast<double>(a[q][ka]) *
                            static_cast<double>(b[q][kb]);
                }
              }
            });
  for (int q = 0; q < kLanes; ++q) {
    out[(j + q) * jax.stride[0]] = static_cast<float>(acc[q]);
  }
}

}  // namespace

DotPlan PlanDot(const std::vector<int64_t>& lhs_dims,
                const std::vector<int64_t>& rhs_dims,
                const std::vector<int64_t>& lhs_contract,
                const std::vector<int64_t>& rhs_contract,
                const std::vector<int64_t>& lhs_batch,
                const std::vector<int64_t>& rhs_batch) {
  const std::vector<int64_t> ls = RowMajorStrides(lhs_dims);
  const std::vector<int64_t> rs = RowMajorStrides(rhs_dims);
  // Output dims: batch, then lhs free, then rhs free (EvalDot's layout).
  LoopNest outer;
  for (size_t i = 0; i < lhs_batch.size(); ++i) {
    outer.push_back(
        Axis{lhs_dims[lhs_batch[i]], {0, ls[lhs_batch[i]], rs[rhs_batch[i]]}});
  }
  for (int64_t d = 0; d < static_cast<int64_t>(lhs_dims.size()); ++d) {
    if (!Contains(lhs_contract, d) && !Contains(lhs_batch, d)) {
      outer.push_back(Axis{lhs_dims[d], {0, ls[d], 0}});
    }
  }
  for (int64_t d = 0; d < static_cast<int64_t>(rhs_dims.size()); ++d) {
    if (!Contains(rhs_contract, d) && !Contains(rhs_batch, d)) {
      outer.push_back(Axis{rhs_dims[d], {0, 0, rs[d]}});
    }
  }
  SetRowMajorOut(outer);
  LoopNest contract;
  for (size_t i = 0; i < lhs_contract.size(); ++i) {
    contract.push_back(Axis{lhs_dims[lhs_contract[i]],
                            {0, ls[lhs_contract[i]], rs[rhs_contract[i]]}});
  }

  DotPlan plan;
  plan.outer = CollapseNest(outer);
  plan.contract = CollapseNest(contract);
  const Axis& j = plan.outer.back();
  plan.blocked = j.extent > 1 && j.stride[0] == 1 && j.stride[1] == 0 &&
                 j.stride[2] == 1;
  if (plan.blocked) {
    // The i axis must not move the rhs; otherwise tile with one row.
    const size_t n = plan.outer.size();
    if (n < 2 || plan.outer[n - 2].stride[2] != 0) {
      plan.outer.insert(plan.outer.end() - 1, Axis{});
    }
  }
  return plan;
}

void DotInto(const DotPlan& plan, const float* lhs, const float* rhs,
             float* out) {
  const LoopNest& contract = plan.contract;
  const size_t n = plan.outer.size();
  if (plan.blocked) {
    const Axis& iax = plan.outer[n - 2];
    const Axis& jax = plan.outer[n - 1];
    VisitNest(plan.outer.data(), n - 2, 0, 0, 0,
              [&](int64_t o, int64_t l, int64_t r) {
                BlockedDot(iax, jax, contract, lhs + l, rhs + r, out + o);
              });
    return;
  }
  const Axis& jax = plan.outer.back();
  VisitNest(plan.outer.data(), n - 1, 0, 0, 0,
            [&](int64_t o, int64_t l, int64_t r) {
    int64_t j = 0;
    for (; j + 4 <= jax.extent; j += 4) {
      DotLanes<4>(jax, contract, j, lhs + l, rhs + r, out + o);
    }
    for (; j < jax.extent; ++j) {
      DotLanes<1>(jax, contract, j, lhs + l, rhs + r, out + o);
    }
  });
}

ReducePlan PlanReduce(const std::vector<int64_t>& in_dims,
                      const std::vector<int64_t>& dims, bool is_max) {
  const std::vector<int64_t> in_strides = RowMajorStrides(in_dims);
  LoopNest nest(in_dims.size());
  int64_t out_stride = 1;
  for (size_t d = in_dims.size(); d-- > 0;) {
    nest[d].extent = in_dims[d];
    nest[d].stride[1] = in_strides[d];
    if (!Contains(dims, static_cast<int64_t>(d))) {
      nest[d].stride[0] = out_stride;
      out_stride *= in_dims[d];
    }
  }
  ReducePlan plan;
  plan.nest = CollapseNest(nest);
  plan.is_max = is_max;
  plan.out_numel = out_stride;
  return plan;
}

void ReduceInto(const ReducePlan& plan, const float* in, float* out) {
  const bool is_max = plan.is_max;
  std::fill(out, out + plan.out_numel,
            is_max ? -std::numeric_limits<float>::infinity() : 0.0f);
  const Axis& last = plan.nest.back();
  const int64_t os = last.stride[0], is = last.stride[1];
  VisitNest(plan.nest.data(), plan.nest.size() - 1, 0, 0, 0,
            [&](int64_t o, int64_t i, int64_t) {
    const float* src = in + i;
    float* dst = out + o;
    if (os == 0) {
      // Reduced innermost axis: one output slot folds a run of inputs.
      float slot = *dst;
      if (is_max) {
        for (int64_t k = 0; k < last.extent; ++k) {
          slot = std::max(slot, src[k * is]);
        }
      } else {
        for (int64_t k = 0; k < last.extent; ++k) slot = slot + src[k * is];
      }
      *dst = slot;
    } else if (is_max) {
      for (int64_t k = 0; k < last.extent; ++k) {
        dst[k * os] = std::max(dst[k * os], src[k * is]);
      }
    } else {
      for (int64_t k = 0; k < last.extent; ++k) {
        dst[k * os] = dst[k * os] + src[k * is];
      }
    }
  });
}

CopyPlan PlanBroadcastInDim(const std::vector<int64_t>& in_dims,
                            const std::vector<int64_t>& out_dims,
                            const std::vector<int64_t>& broadcast_dims) {
  const std::vector<int64_t> in_strides = RowMajorStrides(in_dims);
  LoopNest nest(out_dims.size());
  for (size_t d = 0; d < out_dims.size(); ++d) nest[d].extent = out_dims[d];
  SetRowMajorOut(nest);
  for (size_t i = 0; i < in_dims.size(); ++i) {
    // A size-1 input dim repeats its one element (stride 0).
    if (in_dims[i] != 1) nest[broadcast_dims[i]].stride[1] = in_strides[i];
  }
  return CopyPlan{CollapseNest(nest), 0, 0};
}

CopyPlan PlanTranspose(const std::vector<int64_t>& in_dims,
                       const std::vector<int64_t>& perm) {
  const std::vector<int64_t> in_strides = RowMajorStrides(in_dims);
  LoopNest nest(perm.size());
  for (size_t d = 0; d < perm.size(); ++d) {
    nest[d].extent = in_dims[perm[d]];
    nest[d].stride[1] = in_strides[perm[d]];
  }
  SetRowMajorOut(nest);
  return CopyPlan{CollapseNest(nest), 0, 0};
}

CopyPlan PlanStaticSlice(const std::vector<int64_t>& in_dims,
                         const std::vector<int64_t>& out_dims,
                         const std::vector<int64_t>& starts) {
  const std::vector<int64_t> in_strides = RowMajorStrides(in_dims);
  LoopNest nest(out_dims.size());
  int64_t in_offset = 0;
  for (size_t d = 0; d < out_dims.size(); ++d) {
    nest[d].extent = out_dims[d];
    nest[d].stride[1] = in_strides[d];
    in_offset += starts[d] * in_strides[d];
  }
  SetRowMajorOut(nest);
  return CopyPlan{CollapseNest(nest), 0, in_offset};
}

std::vector<CopyPlan> PlanConcatenate(
    const std::vector<std::vector<int64_t>>& operand_dims, int64_t dim) {
  std::vector<int64_t> out_dims = operand_dims.front();
  out_dims[dim] = 0;
  for (const auto& dims : operand_dims) out_dims[dim] += dims[dim];
  const std::vector<int64_t> out_strides = RowMajorStrides(out_dims);
  std::vector<CopyPlan> plans;
  int64_t offset = 0;
  for (const auto& dims : operand_dims) {
    const std::vector<int64_t> in_strides = RowMajorStrides(dims);
    LoopNest nest(dims.size());
    for (size_t d = 0; d < dims.size(); ++d) {
      nest[d] = Axis{dims[d], {out_strides[d], in_strides[d], 0}};
    }
    plans.push_back(
        CopyPlan{CollapseNest(nest), offset * out_strides[dim], 0});
    offset += dims[dim];
  }
  return plans;
}

void CopyInto(const CopyPlan& plan, const float* in, float* out) {
  const Axis& last = plan.nest.back();
  const int64_t os = last.stride[0], is = last.stride[1];
  VisitNest(plan.nest.data(), plan.nest.size() - 1, plan.out_offset,
            plan.in_offset, 0, [&](int64_t o, int64_t i, int64_t) {
    const float* src = in + i;
    float* dst = out + o;
    if (os == 1 && is == 1) {
      std::copy(src, src + last.extent, dst);
    } else {
      for (int64_t k = 0; k < last.extent; ++k) dst[k * os] = src[k * is];
    }
  });
}

void AccumulateInto(const Tensor& part, bool is_max, Tensor& out) {
  PARTIR_CHECK(part.size() == out.size()) << "accumulate size mismatch";
  const float* p = part.data().data();
  float* o = out.data().data();
  const int64_t n = out.size();
  if (is_max) {
    for (int64_t k = 0; k < n; ++k) o[k] = std::max(o[k], p[k]);
  } else {
    for (int64_t k = 0; k < n; ++k) o[k] = o[k] + p[k];
  }
}

}  // namespace exec
}  // namespace partir
