// Differential tests for the compiled executor's strided kernels
// (src/exec/kernels.h): on randomized shapes, every kernel's output must be
// bit-identical (memcmp) to the reference interpreter's EvalOpRef for the
// same op. Covers dot with batch dims in any position and 0/1/2 contracting
// dims, size-1 dims and rank-0 results, reduce over non-adjacent and all
// dims with -inf/NaN inputs, broadcast_in_dim with new and size-1 dims,
// concatenate on every dim, every rank-3 transpose, offset slices, and a
// compiled loop-region program whose bodies run the kernels.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <random>

#include "src/exec/device_program.h"
#include "src/exec/kernels.h"
#include "src/interp/interpreter.h"
#include "src/ir/builder.h"
#include "src/spmd/spmd_interpreter.h"

namespace partir {
namespace {

using exec::CopyInto;
using exec::CopyPlan;

void ExpectBitIdentical(const Tensor& want, const Tensor& got,
                        const std::string& label) {
  ASSERT_EQ(want.dims(), got.dims()) << label;
  EXPECT_EQ(std::memcmp(want.data().data(), got.data().data(),
                        want.data().size() * sizeof(float)),
            0)
      << label << ": not bit-identical to EvalOpRef";
}

std::string DimsString(const std::vector<int64_t>& dims) {
  std::string s = "[";
  for (size_t i = 0; i < dims.size(); ++i) {
    s += (i > 0 ? "," : "") + std::to_string(dims[i]);
  }
  return s + "]";
}

/**
 * A one-op function: args of the given shapes, the op under test built by
 * `build`, and its EvalOpRef result on seeded random inputs.
 */
class OneOp {
 public:
  template <typename BuildFn>
  OneOp(const std::vector<std::vector<int64_t>>& arg_dims, uint64_t seed,
        BuildFn build) {
    func_ = module_.AddFunc("main");
    std::vector<Value*> args;
    for (size_t i = 0; i < arg_dims.size(); ++i) {
      args.push_back(func_->body().AddArg(TensorType(arg_dims[i]),
                                          "a" + std::to_string(i)));
      inputs_.push_back(Tensor::Random(arg_dims[i], seed + i));
    }
    OpBuilder builder(&func_->body());
    op_ = build(builder, args)->def();
  }

  std::vector<Tensor>& inputs() { return inputs_; }
  const std::vector<int64_t>& result_dims() const {
    return op_->result()->tensor_type().dims();
  }

  Tensor Want() const {
    std::vector<const Tensor*> refs;
    for (const Tensor& t : inputs_) refs.push_back(&t);
    return EvalOpRef(*op_, refs)[0];
  }

  /** Runs `copies` (one per operand) into a fresh output. */
  Tensor RunCopies(const std::vector<CopyPlan>& copies) const {
    Tensor out(result_dims());
    for (size_t j = 0; j < copies.size(); ++j) {
      CopyInto(copies[j], inputs_[j].data().data(), out.data().data());
    }
    return out;
  }

 private:
  Module module_;
  Func* func_ = nullptr;
  Operation* op_ = nullptr;
  std::vector<Tensor> inputs_;
};

/** Extents with size-1 dims and a few larger than one blocked-dot tile. */
int64_t RandomExtent(std::mt19937& rng) {
  static const int64_t kExtents[] = {1, 1, 2, 3, 5, 7, 67};
  return kExtents[rng() % (sizeof(kExtents) / sizeof(kExtents[0]))];
}

// ---- dot ----

struct DotCase {
  std::vector<int64_t> lhs_dims, rhs_dims;
  std::vector<int64_t> lc, rc, lb, rb;
};

void ExpectDotMatches(const DotCase& c, uint64_t seed,
                      const std::string& label) {
  OneOp one({c.lhs_dims, c.rhs_dims}, seed,
            [&](OpBuilder& b, const std::vector<Value*>& args) {
              return b.Dot(args[0], args[1], c.lc, c.rc, c.lb, c.rb);
            });
  // Inputs are +-2^-30, +-1 or +-2^30, so products are exact in double
  // and large ones cancel exactly: whether the small ones survive then
  // depends on the summation order. A kernel that visits the contracting
  // indices in any order other than the reference's shows up as different
  // bits.
  std::mt19937 rng(static_cast<uint32_t>(seed));
  for (Tensor& in : one.inputs()) {
    for (int64_t k = 0; k < in.size(); ++k) {
      const int exponent = 30 * static_cast<int>(rng() % 3) - 30;
      in.at(k) = std::ldexp(rng() % 2 == 0 ? 1.0f : -1.0f, exponent);
    }
  }
  exec::DotPlan plan =
      exec::PlanDot(c.lhs_dims, c.rhs_dims, c.lc, c.rc, c.lb, c.rb);
  Tensor got(one.result_dims());
  exec::DotInto(plan, one.inputs()[0].data().data(),
                one.inputs()[1].data().data(), got.data().data());
  ExpectBitIdentical(one.Want(), got,
                     label + " lhs" + DimsString(c.lhs_dims) + " rhs" +
                         DimsString(c.rhs_dims) + " blocked=" +
                         std::to_string(plan.blocked));
}

// Places each dim role (batch / contracting / free) at random positions of
// each operand, so batch dims are often not leading and contracting dims
// are often non-adjacent or swapped between the operands.
DotCase RandomDot(std::mt19937& rng, int nb, int nc, int fl, int fr) {
  std::vector<int64_t> batch(nb), contract(nc), lfree(fl), rfree(fr);
  for (auto* v : {&batch, &contract, &lfree, &rfree}) {
    for (int64_t& e : *v) e = RandomExtent(rng);
  }
  auto positions = [&rng](int n) {
    std::vector<int64_t> p(n);
    std::iota(p.begin(), p.end(), 0);
    std::shuffle(p.begin(), p.end(), rng);
    return p;
  };
  DotCase c;
  std::vector<int64_t> lp = positions(nb + nc + fl);
  std::vector<int64_t> rp = positions(nb + nc + fr);
  c.lhs_dims.resize(lp.size());
  c.rhs_dims.resize(rp.size());
  for (int i = 0; i < nb; ++i) {
    c.lb.push_back(lp[i]);
    c.rb.push_back(rp[i]);
    c.lhs_dims[lp[i]] = c.rhs_dims[rp[i]] = batch[i];
  }
  for (int i = 0; i < nc; ++i) {
    c.lc.push_back(lp[nb + i]);
    c.rc.push_back(rp[nb + i]);
    c.lhs_dims[lp[nb + i]] = c.rhs_dims[rp[nb + i]] = contract[i];
  }
  for (int i = 0; i < fl; ++i) c.lhs_dims[lp[nb + nc + i]] = lfree[i];
  for (int i = 0; i < fr; ++i) c.rhs_dims[rp[nb + nc + i]] = rfree[i];
  return c;
}

TEST(ExecKernelsTest, DotMatchesReferenceOnRandomShapes) {
  std::mt19937 rng(13);
  int cases = 0;
  for (int nb = 0; nb <= 2; ++nb) {
    for (int nc = 0; nc <= 2; ++nc) {
      for (int fl = 0; fl <= 2; ++fl) {
        for (int fr = 0; fr <= 2; ++fr) {
          for (int trial = 0; trial < 3; ++trial) {
            DotCase c = RandomDot(rng, nb, nc, fl, fr);
            int64_t work = 1;
            for (int64_t e : c.lhs_dims) work *= e;
            for (size_t d = 0; d < c.rhs_dims.size(); ++d) {
              if (std::find(c.rc.begin(), c.rc.end(), d) == c.rc.end() &&
                  std::find(c.rb.begin(), c.rb.end(), d) == c.rb.end()) {
                work *= c.rhs_dims[d];
              }
            }
            if (work > 400000) continue;  // keep the reference loop quick
            ExpectDotMatches(c, 100 + cases,
                             "dot nb=" + std::to_string(nb) +
                                 " nc=" + std::to_string(nc));
            ++cases;
          }
        }
      }
    }
  }
  EXPECT_GT(cases, 200);
}

TEST(ExecKernelsTest, DotNamedShapes) {
  // [B,S,D].[D,N]: one B*S x N GEMM with partial i/j tiles.
  ExpectDotMatches({{3, 5, 9}, {9, 70}, {2}, {0}, {}, {}}, 1, "projection");
  // Attention output projection: attn[B,H,S,dh] . wo[H,dh,D] over the
  // swapped, non-adjacent lhs dims {1,3}.
  ExpectDotMatches({{2, 3, 5, 4}, {3, 4, 6}, {1, 3}, {0, 1}, {}, {}}, 2,
                   "output projection");
  // Batched attention scores: rhs free dim is not unit-stride.
  ExpectDotMatches({{2, 3, 5, 4}, {2, 3, 6, 4}, {3}, {3}, {0, 1}, {0, 1}},
                   3, "scores");
  // Batched attention values: rhs free dim is unit-stride (blocked).
  ExpectDotMatches({{2, 3, 5, 6}, {2, 3, 6, 4}, {3}, {2}, {0, 1}, {0, 1}},
                   4, "values");
  // Batch dim last on the lhs, first on the rhs.
  ExpectDotMatches({{4, 5, 3}, {3, 4, 66}, {0}, {1}, {2}, {0}}, 5,
                   "trailing batch");
  // Vector . vector: rank-0 result.
  ExpectDotMatches({{7}, {7}, {0}, {0}, {}, {}}, 6, "inner product");
  // Outer product: no contracting dims.
  ExpectDotMatches({{3}, {65}, {}, {}, {}, {}}, 7, "outer product");
  // Empty contraction: every output is exactly 0.
  ExpectDotMatches({{3, 0}, {0, 4}, {1}, {0}, {}, {}}, 8, "empty contract");
}

// ---- reduce ----

void ExpectReduceMatches(const std::vector<int64_t>& in_dims,
                         const std::vector<int64_t>& dims,
                         const std::string& reduction, uint64_t seed,
                         bool specials) {
  OneOp one({in_dims}, seed,
            [&](OpBuilder& b, const std::vector<Value*>& args) {
              return b.Reduce(args[0], dims, reduction);
            });
  if (specials) {
    // -inf, +inf, -0 and (for max) NaN at scattered positions: the fold
    // keeps or drops each exactly as `slot + v` / std::max(slot, v) do in
    // the reference. Sums get no NaN inputs: when both addends are NaNs the
    // result's sign bit depends on which operand the compiler puts first,
    // which C++ leaves unspecified.
    Tensor& in = one.inputs()[0];
    const float kSpecials[] = {-std::numeric_limits<float>::infinity(),
                               std::numeric_limits<float>::infinity(),
                               -0.0f,
                               std::numeric_limits<float>::quiet_NaN()};
    const uint64_t num_specials = reduction == "max" ? 4 : 3;
    for (int64_t k = 0; k < in.size(); k += 3) {
      in.at(k) = kSpecials[(k / 3 + seed) % num_specials];
    }
  }
  exec::ReducePlan plan =
      exec::PlanReduce(in_dims, dims, reduction == "max");
  Tensor got(one.result_dims());
  exec::ReduceInto(plan, one.inputs()[0].data().data(), got.data().data());
  ExpectBitIdentical(one.Want(), got,
                     reduction + " over " + DimsString(dims) + " of " +
                         DimsString(in_dims));
}

TEST(ExecKernelsTest, ReduceMatchesReferenceOnRandomShapes) {
  std::mt19937 rng(17);
  int cases = 0;
  for (int rank = 0; rank <= 4; ++rank) {
    for (int mask = 0; mask < (1 << rank); ++mask) {
      for (int trial = 0; trial < 2; ++trial) {
        std::vector<int64_t> in_dims(rank), dims;
        for (int64_t& e : in_dims) e = 1 + rng() % 6;
        for (int d = 0; d < rank; ++d) {
          if (mask & (1 << d)) dims.push_back(d);
        }
        for (const char* reduction : {"sum", "max"}) {
          ExpectReduceMatches(in_dims, dims, reduction, 200 + cases,
                              /*specials=*/trial == 1);
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, 2 * 2 * (1 + 2 + 4 + 8 + 16));
}

TEST(ExecKernelsTest, ReduceNamedShapes) {
  // Non-adjacent dims, all dims, and a softmax-style last-dim max over a
  // long row.
  ExpectReduceMatches({3, 4, 5, 6}, {0, 2}, "sum", 1, false);
  ExpectReduceMatches({3, 4, 5, 6}, {1, 3}, "max", 2, true);
  ExpectReduceMatches({3, 4, 5}, {0, 1, 2}, "max", 3, true);
  ExpectReduceMatches({3, 4, 5}, {0, 1, 2}, "sum", 4, true);
  ExpectReduceMatches({8, 130}, {1}, "max", 5, true);
  ExpectReduceMatches({}, {}, "sum", 6, false);
}

// ---- broadcast_in_dim / transpose / static_slice / concatenate ----

TEST(ExecKernelsTest, BroadcastInDimMatchesReference) {
  std::mt19937 rng(19);
  for (int trial = 0; trial < 60; ++trial) {
    const int out_rank = 1 + rng() % 4;
    const int in_rank = rng() % (out_rank + 1);
    std::vector<int64_t> out_dims(out_rank);
    for (int64_t& e : out_dims) e = 1 + rng() % 5;
    // Any injective dim map, monotone or not.
    std::vector<int64_t> order(out_rank);
    std::iota(order.begin(), order.end(), 0);
    std::shuffle(order.begin(), order.end(), rng);
    std::vector<int64_t> bcast(order.begin(), order.begin() + in_rank);
    if (trial % 2 == 0) std::sort(bcast.begin(), bcast.end());
    std::vector<int64_t> in_dims(in_rank);
    for (int i = 0; i < in_rank; ++i) in_dims[i] = out_dims[bcast[i]];
    OneOp one({in_dims}, 300 + trial,
              [&](OpBuilder& b, const std::vector<Value*>& args) {
                return b.BroadcastInDim(args[0], out_dims, bcast);
              });
    ExpectBitIdentical(
        one.Want(),
        one.RunCopies({exec::PlanBroadcastInDim(in_dims, out_dims, bcast)}),
        "broadcast " + DimsString(in_dims) + " -> " + DimsString(out_dims) +
            " via " + DimsString(bcast));
  }
}

TEST(ExecKernelsTest, BroadcastInDimExpandsSizeOneAndScalarInputs) {
  // A [1,4] row into [1,3,4]: new middle dim, size-1 leading dim kept.
  std::vector<std::vector<int64_t>> cases[] = {
      {{1, 4}, {1, 3, 4}, {0, 2}},
      {{}, {2, 3}, {}},
      {{5, 1}, {5, 1, 6}, {0, 1}},
  };
  for (const auto& c : cases) {
    OneOp one({c[0]}, 7, [&](OpBuilder& b, const std::vector<Value*>& args) {
      return b.BroadcastInDim(args[0], c[1], c[2]);
    });
    ExpectBitIdentical(
        one.Want(), one.RunCopies({exec::PlanBroadcastInDim(c[0], c[1], c[2])}),
        "broadcast " + DimsString(c[0]) + " -> " + DimsString(c[1]));
  }
}

TEST(ExecKernelsTest, EveryRank3TransposeMatchesReference) {
  std::vector<int64_t> perm = {0, 1, 2};
  int count = 0;
  do {
    for (const std::vector<int64_t>& dims :
         {std::vector<int64_t>{2, 3, 4}, std::vector<int64_t>{1, 5, 1},
          std::vector<int64_t>{3, 1, 7}}) {
      OneOp one({dims}, 400 + count,
                [&](OpBuilder& b, const std::vector<Value*>& args) {
                  return b.Transpose(args[0], perm);
                });
      ExpectBitIdentical(one.Want(),
                         one.RunCopies({exec::PlanTranspose(dims, perm)}),
                         "transpose " + DimsString(dims) + " by " +
                             DimsString(perm));
    }
    ++count;
  } while (std::next_permutation(perm.begin(), perm.end()));
  EXPECT_EQ(count, 6);

  // Rank 4, the attention head split [B,S,H,dh] -> [B,H,S,dh].
  std::vector<int64_t> dims = {2, 5, 3, 4}, perm4 = {0, 2, 1, 3};
  OneOp one({dims}, 9, [&](OpBuilder& b, const std::vector<Value*>& args) {
    return b.Transpose(args[0], perm4);
  });
  ExpectBitIdentical(one.Want(),
                     one.RunCopies({exec::PlanTranspose(dims, perm4)}),
                     "transpose rank 4");
}

TEST(ExecKernelsTest, StaticSliceWithOffsetsMatchesReference) {
  std::mt19937 rng(23);
  for (int trial = 0; trial < 40; ++trial) {
    const int rank = 1 + rng() % 4;
    std::vector<int64_t> in_dims(rank), starts(rank), limits(rank);
    for (int d = 0; d < rank; ++d) {
      in_dims[d] = 1 + rng() % 6;
      starts[d] = rng() % in_dims[d];
      limits[d] = starts[d] + 1 + rng() % (in_dims[d] - starts[d]);
    }
    OneOp one({in_dims}, 500 + trial,
              [&](OpBuilder& b, const std::vector<Value*>& args) {
                return b.StaticSlice(args[0], starts, limits);
              });
    ExpectBitIdentical(
        one.Want(),
        one.RunCopies(
            {exec::PlanStaticSlice(in_dims, one.result_dims(), starts)}),
        "slice " + DimsString(in_dims) + " from " + DimsString(starts) +
            " to " + DimsString(limits));
  }
}

TEST(ExecKernelsTest, ConcatenateOnEveryDimMatchesReference) {
  std::mt19937 rng(29);
  for (int rank = 1; rank <= 3; ++rank) {
    for (int64_t dim = 0; dim < rank; ++dim) {
      for (int num = 1; num <= 3; ++num) {
        std::vector<int64_t> base(rank);
        for (int64_t& e : base) e = 1 + rng() % 4;
        std::vector<std::vector<int64_t>> operand_dims(num, base);
        for (auto& dims : operand_dims) dims[dim] = 1 + rng() % 4;
        OneOp one(operand_dims, 600 + rank * 10 + dim,
                  [&](OpBuilder& b, const std::vector<Value*>& args) {
                    return b.Concatenate(args, dim);
                  });
        ExpectBitIdentical(
            one.Want(),
            one.RunCopies(exec::PlanConcatenate(operand_dims, dim)),
            "concat of " + std::to_string(num) + " rank-" +
                std::to_string(rank) + " on dim " + std::to_string(dim));
      }
    }
  }
}

// ---- The kernels inside compiled loop regions ----

// A device-local module whose tile and sum loop bodies run every strided
// kernel (batched dot, reduce, broadcast, transpose, slice, concatenate):
// RunLoop must dispatch them like top-level instructions, bit-identically
// to the reference walker.
TEST(ExecKernelsTest, LoopRegionBodiesRunTheStridedKernels) {
  Mesh mesh({{"B", 2}});
  SpmdModule spmd;
  spmd.module = std::make_unique<Module>();
  spmd.mesh = mesh;
  Func* func = spmd.module->AddFunc("main");
  Value* x = func->body().AddArg(TensorType({4, 6, 8}), "x");
  Value* w = func->body().AddArg(TensorType({8, 5}), "w");
  OpBuilder builder(&func->body());

  // tile over dim 0: [1,6,8] . [8,5] -> [1,6,5], then a transpose, a row
  // max broadcast back, a slice and a concatenate.
  Operation* tile = builder.Loop("T", 4, "tile", 0, TensorType({4, 5, 6}));
  {
    Block& body = tile->region(0).block();
    OpBuilder inner(&body);
    Value* xs = inner.PSlice(x, body.arg(0), 0);
    Value* h = inner.Dot(xs, w, {2}, {0});                 // [1,6,5]
    Value* t = inner.Transpose(h, {0, 2, 1});              // [1,5,6]
    Value* m = inner.Reduce(t, {2}, "max");                // [1,5]
    Value* mb = inner.BroadcastInDim(m, {1, 5, 6}, {0, 1});
    Value* d = inner.Sub(t, mb);
    Value* lo = inner.StaticSlice(d, {0, 0, 0}, {1, 5, 2});
    Value* hi = inner.StaticSlice(d, {0, 0, 2}, {1, 5, 6});
    inner.Yield(&body, {inner.Concatenate({hi, lo}, 2)});
  }
  // sum over two iterations of a batched dot and a multi-dim reduce.
  Operation* sum = builder.Loop("S", 2, "sum", -1, TensorType({5}));
  {
    Block& body = sum->region(0).block();
    OpBuilder inner(&body);
    Value* p = inner.Dot(tile->result(), tile->result(), {2}, {2}, {0},
                         {0});                              // [4,5,5]
    inner.Yield(&body, {inner.Reduce(p, {0, 2}, "sum")});
  }
  builder.Return({tile->result(), sum->result()});
  ValueSharding r2{AxesPerDim{{}, {}}};
  ValueSharding r3{AxesPerDim{{}, {}, {}}};
  ValueSharding r1{AxesPerDim{{}}};
  spmd.input_shardings = {r3, r2};
  spmd.output_shardings = {r3, r1};

  ASSERT_TRUE(exec::CompileDeviceProgram(spmd).ok());
  std::vector<Tensor> inputs = {Tensor::Random({4, 6, 8}, 71),
                                Tensor::Random({8, 5}, 72)};
  std::vector<Tensor> want = RunSpmdReference(spmd, inputs).value();
  for (int num_threads : {1, 0}) {
    RunOptions options;
    options.num_threads = num_threads;
    std::vector<Tensor> got = RunSpmd(spmd, inputs, options).value();
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ExpectBitIdentical(want[i], got[i],
                         "loop output " + std::to_string(i) +
                             " (threads=" + std::to_string(num_threads) +
                             ")");
    }
  }
}

}  // namespace
}  // namespace partir
