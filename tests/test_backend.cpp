// Cross-device equivalence and determinism.
//
// The naive device (the seed's reference kernels) is the oracle: blocked and
// sparse must match it on every GEMM variant over odd/rectangular shapes,
// zero-dimension edges, and pruning-masked (mostly-zero) operands. Devices
// may differ from the oracle by floating-point contraction only, so
// comparisons use a tight relative tolerance; a FIXED device across
// different math_threads values must be bit-identical — threading never
// reorders any output element's accumulation. Operands carry no weight-side
// hint here, so the sparse device runs its stateless per-call inspection.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/model_zoo.h"
#include "nn/sgd.h"
#include "nn/trainer.h"
#include "tensor/backend.h"
#include "tensor/device.h"
#include "tensor/kernels.h"
#include "util/check.h"
#include "util/rng.h"

namespace subfed {
namespace {

// The pool must have several workers even on single-core CI runners or the
// math_threads determinism tests would never actually fan out. Runs before
// main(), i.e. before anything touches ThreadPool::global().
const bool kPoolEnvReady = [] {
  setenv("SUBFEDAVG_THREADS", "4", /*overwrite=*/0);
  return true;
}();

/// |got - want| within contraction-level error for a length-k reduction.
void expect_close(const std::vector<float>& want, const std::vector<float>& got,
                  const std::string& label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const double tol = 1e-4 * (1.0 + std::abs(static_cast<double>(want[i])));
    ASSERT_NEAR(want[i], got[i], tol) << label << " at " << i;
  }
}

std::vector<float> random_matrix(Rng& rng, std::size_t size, double density = 1.0) {
  std::vector<float> out(size);
  for (auto& x : out) {
    x = rng.bernoulli(density) ? static_cast<float>(rng.normal()) : 0.0f;
  }
  return out;
}

struct GemmCase {
  std::size_t m, k, n;
};

const GemmCase kShapes[] = {{1, 1, 1},     {3, 5, 7},      {4, 16, 16},
                            {5, 17, 33},   {13, 31, 63},   {64, 64, 64},
                            {10, 400, 120}, {3, 7840, 75}};

/// Runs one variant on one device. A/B are sized/laid out per variant:
/// nn: A[m×k], B[k×n] · tn: A[k×m], B[k×n] · nt: A[m×k], B[n×k].
std::vector<float> run_variant(const Device& device, int variant,
                               const std::vector<float>& a, const std::vector<float>& b,
                               const GemmCase& shape, bool accumulate) {
  // Accumulate targets start from a fixed nonzero pattern so C += is exercised.
  std::vector<float> c(shape.m * shape.n);
  for (std::size_t i = 0; i < c.size(); ++i) {
    c[i] = accumulate ? 0.25f * static_cast<float>(i % 7) : -99.0f;
  }
  const GemmOp op = variant == 0 ? GemmOp::kNN : variant == 1 ? GemmOp::kTN : GemmOp::kNT;
  device.gemm(op, a.data(), b.data(), c.data(), shape.m, shape.k, shape.n, accumulate);
  return c;
}

void compare_backends_over(double density) {
  const Device& naive = get_device("naive");
  Rng rng(density < 1.0 ? 7 : 3);
  for (const GemmCase& shape : kShapes) {
    for (int variant = 0; variant < 3; ++variant) {
      const std::size_t a_size = shape.m * shape.k;  // same numel for tn ([k×m])
      const std::size_t b_size = variant == 2 ? shape.n * shape.k : shape.k * shape.n;
      // The weight-side operand carries the mask: A for nn/tn, B for nt.
      std::vector<float> a = random_matrix(rng, a_size, variant == 2 ? 1.0 : density);
      std::vector<float> b = random_matrix(rng, b_size, variant == 2 ? density : 1.0);
      for (const bool accumulate : {false, true}) {
        const std::vector<float> want = run_variant(naive, variant, a, b, shape, accumulate);
        for (const char* name : {"blocked", "sparse"}) {
          const std::vector<float> got =
              run_variant(get_device(name), variant, a, b, shape, accumulate);
          expect_close(want, got,
                       std::string(name) + " variant " + std::to_string(variant) + " " +
                           std::to_string(shape.m) + "x" + std::to_string(shape.k) + "x" +
                           std::to_string(shape.n) + (accumulate ? " acc" : "") +
                           " density " + std::to_string(density));
        }
      }
    }
  }
}

TEST(BackendEquivalence, DenseOddAndRectangularShapes) { compare_backends_over(1.0); }

// 10% density forces the sparse device through its CSR kernels (threshold
// 0.25); 30% exercises its dense fallback path.
TEST(BackendEquivalence, MaskedWeightsSparseAndFallback) {
  compare_backends_over(0.10);
  compare_backends_over(0.30);
}

TEST(BackendEquivalence, SparseWeightOnBSideOfNN) {
  // Linear::backward's dX = dY·W puts the pruned matrix on the B side of an
  // nn GEMM; the sparse device must catch that case too.
  const Device& naive = get_device("naive");
  Rng rng(13);
  const GemmCase shape{10, 120, 400};
  const std::vector<float> a = random_matrix(rng, shape.m * shape.k, 1.0);
  const std::vector<float> b = random_matrix(rng, shape.k * shape.n, 0.1);
  for (const bool accumulate : {false, true}) {
    const std::vector<float> want = run_variant(naive, 0, a, b, shape, accumulate);
    for (const char* name : {"blocked", "sparse"}) {
      expect_close(want, run_variant(get_device(name), 0, a, b, shape, accumulate),
                   std::string(name) + " nn sparse-B" + (accumulate ? " acc" : ""));
    }
  }
}

TEST(BackendEquivalence, ZeroDimensionEdges) {
  for (const char* name : {"naive", "blocked", "sparse"}) {
    const Device& device = get_device(name);
    std::vector<float> a(8, 1.0f), b(8, 1.0f);
    // k == 0: C is zeroed without accumulate, untouched with.
    std::vector<float> c(6, 5.0f);
    device.gemm(GemmOp::kNN, a.data(), b.data(), c.data(), 2, 0, 3, /*accumulate=*/false);
    for (const float x : c) EXPECT_EQ(x, 0.0f) << name;
    std::fill(c.begin(), c.end(), 5.0f);
    device.gemm(GemmOp::kTN, a.data(), b.data(), c.data(), 2, 0, 3, /*accumulate=*/true);
    for (const float x : c) EXPECT_EQ(x, 5.0f) << name;
    // m == 0 / n == 0: nothing written, nothing crashes.
    device.gemm(GemmOp::kNN, a.data(), b.data(), c.data(), 0, 4, 2, false);
    device.gemm(GemmOp::kNT, a.data(), b.data(), c.data(), 2, 4, 0, false);
  }
}

// --- bit-exact oracles on the blocked device ---------------------------------

bool same_bits(const std::vector<float>& x, const std::vector<float>& y) {
  return x.size() == y.size() && std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

/// Row-major [rows×cols] → [cols×rows].
std::vector<float> transposed(const std::vector<float>& x, std::size_t rows, std::size_t cols) {
  std::vector<float> out(rows * cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) out[c * rows + r] = x[r * cols + c];
  }
  return out;
}

TEST(BackendExact, NtEqualsNnOnTransposedB) {
  // The conv dW shapes (lenet5 conv1 at 3 live filters, cnn5 conv1, cnn5
  // conv2) reduce over N·outH·outW, several k-blocks of the nt packing, plus
  // an odd shape with a partial last k-block and a column tail. Carrying each
  // chain through C between k-blocks must reproduce one unsplit chain.
  const GemmCase shapes[] = {{3, 7840, 75}, {10, 5760, 25}, {20, 640, 250}, {7, 1037, 19}};
  const Device& blocked = get_device("blocked");
  Rng rng(17);
  for (const GemmCase& shape : shapes) {
    const std::vector<float> a = random_matrix(rng, shape.m * shape.k);
    const std::vector<float> b_nk = random_matrix(rng, shape.n * shape.k);
    const std::vector<float> b_kn = transposed(b_nk, shape.n, shape.k);
    for (const bool accumulate : {false, true}) {
      EXPECT_TRUE(same_bits(run_variant(blocked, 2, a, b_nk, shape, accumulate),
                            run_variant(blocked, 0, a, b_kn, shape, accumulate)))
          << shape.m << "x" << shape.k << "x" << shape.n << (accumulate ? " acc" : "");
    }
  }
}

TEST(BackendExact, RowsDoNotDependOnProblemHeight) {
  // Rows 0..m-1 of an m-row problem run in tail tiles of every height 1..3;
  // in a 12-row problem the same rows run in full tiles. Their bits agree.
  const std::size_t full = 12, k = 600, n = 45;  // k spans two nt k-blocks
  const Device& blocked = get_device("blocked");
  Rng rng(19);
  const std::vector<float> a = random_matrix(rng, full * k);  // [12×k]
  const std::vector<float> b = random_matrix(rng, k * n);     // [k×n], or [n×k] for nt
  for (int variant = 0; variant < 3; ++variant) {
    // tn stores A as [k×m].
    const auto a_rows = [&](std::size_t m) {
      std::vector<float> rows(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(m * k));
      return variant == 1 ? transposed(rows, m, k) : rows;
    };
    for (const bool accumulate : {false, true}) {
      const std::vector<float> tall =
          run_variant(blocked, variant, a_rows(full), b, {full, k, n}, accumulate);
      for (std::size_t m = 1; m < 10; ++m) {
        const std::vector<float> got =
            run_variant(blocked, variant, a_rows(m), b, {m, k, n}, accumulate);
        const std::vector<float> want(tall.begin(),
                                      tall.begin() + static_cast<std::ptrdiff_t>(m * n));
        EXPECT_TRUE(same_bits(got, want))
            << "variant " << variant << " m " << m << (accumulate ? " acc" : "");
      }
    }
  }
}

// --- threading determinism --------------------------------------------------

TEST(BackendDeterminism, MathThreadsNeverChangeGemmBits) {
  // Big enough to clear the parallel-dispatch threshold (2·m·k·n ≥ 2^21).
  const GemmCase shape{256, 96, 64};
  Rng rng(11);
  for (const char* name : {"blocked", "sparse"}) {
    const Device& device = get_device(name);
    for (int variant = 0; variant < 3; ++variant) {
      const std::vector<float> a = random_matrix(rng, shape.m * shape.k, 0.5);
      const std::vector<float> b =
          random_matrix(rng, variant == 2 ? shape.n * shape.k : shape.k * shape.n, 0.5);
      set_math_threads(1);
      const std::vector<float> single = run_variant(device, variant, a, b, shape, false);
      set_math_threads(4);
      const std::vector<float> pooled = run_variant(device, variant, a, b, shape, false);
      set_math_threads(0);
      for (std::size_t i = 0; i < single.size(); ++i) {
        ASSERT_EQ(single[i], pooled[i])
            << name << " variant " << variant << " diverges at " << i;
      }
    }
  }
}

TEST(BackendDeterminism, MathThreadsNeverChangeTrainingBits) {
  const auto train_states = [](std::size_t threads) {
    set_math_threads(threads);
    ModelSpec spec = ModelSpec::cnn5(10);
    spec.backend = "blocked";
    Rng init(21);
    Model model = spec.build_init(init);
    Rng data_rng(22);
    Tensor images({20, 1, 28, 28});
    images.fill_normal(data_rng, 0.0f, 1.0f);
    std::vector<std::int32_t> labels(20);
    for (std::size_t i = 0; i < labels.size(); ++i) {
      labels[i] = static_cast<std::int32_t>(data_rng.uniform_index(10));
    }
    Sgd optimizer(model.parameters(), {});
    Rng train_rng(23);
    train_local(model, optimizer, images, labels, {2, 10}, train_rng);
    set_math_threads(0);
    return model.state();
  };
  const StateDict one = train_states(1);
  const StateDict four = train_states(4);
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t e = 0; e < one.size(); ++e) {
    EXPECT_EQ(one[e].first, four[e].first);
    EXPECT_TRUE(one[e].second == four[e].second)
        << "tensor '" << one[e].first << "' differs between math_threads=1 and 4";
  }
}

// --- layer-level equivalence ------------------------------------------------

/// Forward + backward of one conv configuration on every device; outputs,
/// parameter gradients and input gradients must agree with naive.
void conv_all_backends(std::size_t in_c, std::size_t out_c, std::size_t hw,
                       std::size_t kernel, std::size_t stride, std::size_t pad,
                       double weight_density) {
  struct Pass {
    Tensor out, grad_in, dw, db;
  };
  const auto run = [&](const std::string& backend) {
    Rng rng(31);
    Conv2d conv("c", in_c, out_c, kernel, stride, pad);
    conv.init(rng);
    if (weight_density < 1.0) {
      Rng mask_rng(32);
      for (std::size_t i = 0; i < conv.weight().value.numel(); ++i) {
        if (!mask_rng.bernoulli(weight_density)) conv.weight().value[i] = 0.0f;
      }
    }
    conv.set_device(&get_device(backend));
    Tensor input({3, in_c, hw, hw});
    input.fill_normal(rng, 0.0f, 1.0f);
    Pass pass;
    pass.out = conv.forward(input, /*train=*/true);
    Tensor grad(pass.out.shape());
    grad.fill_normal(rng, 0.0f, 1.0f);
    pass.grad_in = conv.backward(grad);
    pass.dw = conv.weight().grad;
    pass.db = conv.bias().grad;
    return pass;
  };
  const Pass want = run("naive");
  for (const char* name : {"blocked", "sparse"}) {
    const Pass got = run(name);
    const std::string label = std::string("conv ") + name;
    expect_close({want.out.data(), want.out.data() + want.out.numel()},
                 {got.out.data(), got.out.data() + got.out.numel()}, label + " out");
    expect_close({want.grad_in.data(), want.grad_in.data() + want.grad_in.numel()},
                 {got.grad_in.data(), got.grad_in.data() + got.grad_in.numel()},
                 label + " grad_in");
    expect_close({want.dw.data(), want.dw.data() + want.dw.numel()},
                 {got.dw.data(), got.dw.data() + got.dw.numel()}, label + " dw");
    expect_close({want.db.data(), want.db.data() + want.db.numel()},
                 {got.db.data(), got.db.data() + got.db.numel()}, label + " db");
  }
}

TEST(BackendLayers, ConvAgreesAcrossBackends) {
  conv_all_backends(3, 6, 11, 5, 1, 0, 1.0);   // odd spatial, valid conv
  conv_all_backends(2, 4, 9, 3, 2, 1, 1.0);    // strided + padded
  conv_all_backends(3, 8, 12, 5, 1, 2, 0.15);  // masked weights → sparse path
}

TEST(BackendLayers, LinearAgreesAcrossBackends) {
  struct Pass {
    Tensor out, grad_in, dw, db;
  };
  const auto run = [&](const std::string& backend, double density) {
    Rng rng(41);
    Linear fc("f", 37, 23);
    fc.init(rng);
    if (density < 1.0) {
      Rng mask_rng(42);
      for (std::size_t i = 0; i < fc.weight().value.numel(); ++i) {
        if (!mask_rng.bernoulli(density)) fc.weight().value[i] = 0.0f;
      }
    }
    fc.set_device(&get_device(backend));
    Tensor input({5, 37});
    input.fill_normal(rng, 0.0f, 1.0f);
    Pass pass;
    pass.out = fc.forward(input, true);
    Tensor grad(pass.out.shape());
    grad.fill_normal(rng, 0.0f, 1.0f);
    pass.grad_in = fc.backward(grad);
    pass.dw = fc.weight().grad;
    pass.db = fc.bias().grad;
    return pass;
  };
  for (const double density : {1.0, 0.1}) {
    const Pass want = run("naive", density);
    for (const char* name : {"blocked", "sparse"}) {
      const Pass got = run(name, density);
      const std::string label = std::string("linear ") + name;
      expect_close({want.out.data(), want.out.data() + want.out.numel()},
                   {got.out.data(), got.out.data() + got.out.numel()}, label + " out");
      expect_close({want.grad_in.data(), want.grad_in.data() + want.grad_in.numel()},
                   {got.grad_in.data(), got.grad_in.data() + got.grad_in.numel()},
                   label + " grad_in");
      expect_close({want.dw.data(), want.dw.data() + want.dw.numel()},
                   {got.dw.data(), got.dw.data() + got.dw.numel()}, label + " dw");
      expect_close({want.db.data(), want.db.data() + want.db.numel()},
                   {got.db.data(), got.db.data() + got.db.numel()}, label + " db");
    }
  }
}

TEST(BackendLayers, BatchedIm2colMatchesPerSample) {
  const ConvGeometry g{2, 7, 7, 3, 1, 1};
  const std::size_t spatial = g.out_h() * g.out_w();
  const std::size_t batch = 3;
  Rng rng(51);
  std::vector<float> images(batch * g.in_channels * g.in_h * g.in_w);
  for (auto& x : images) x = static_cast<float>(rng.normal());

  std::vector<float> batched(g.patch_size() * batch * spatial);
  for (std::size_t n = 0; n < batch; ++n) {
    im2col_strided(images.data() + n * g.in_channels * g.in_h * g.in_w, g, batched.data(),
                   batch * spatial, n * spatial);
  }
  std::vector<float> single(g.patch_size() * spatial);
  for (std::size_t n = 0; n < batch; ++n) {
    im2col(images.data() + n * g.in_channels * g.in_h * g.in_w, g, single.data());
    for (std::size_t row = 0; row < g.patch_size(); ++row) {
      for (std::size_t s = 0; s < spatial; ++s) {
        ASSERT_EQ(single[row * spatial + s],
                  batched[row * batch * spatial + n * spatial + s])
            << "sample " << n << " row " << row << " col " << s;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Direct convolution: the blocked device's stride-1 kernels read patches
// straight from the input and must equal im2col + gemm on the same device bit
// for bit, at any math_threads value. Inputs are allocated to their exact
// size, and the kernels are also called on a bordered buffer holding exactly
// kern::kDirectSlack floats of slack, so a sanitizer build catches any read
// past either.

struct DirectCase {
  std::size_t kernel, channels, filters, out_w, out_h, batch, pad;
  std::vector<std::size_t> planes;  ///< live input channels, ascending

  ConvGeometry geometry() const {
    return {channels, out_h + kernel - 1 - 2 * pad, out_w + kernel - 1 - 2 * pad, kernel, 1,
            pad};
  }
  std::string label() const {
    std::string planes_str;
    for (const std::size_t c : planes) planes_str += std::to_string(c) + ",";
    return "K" + std::to_string(kernel) + " C" + std::to_string(channels) + " planes {" +
           planes_str + "} filters " + std::to_string(filters) + " out " +
           std::to_string(out_h) + "x" + std::to_string(out_w) + " batch " +
           std::to_string(batch) + " pad " + std::to_string(pad);
  }
};

/// Every case the direct tests sweep: kernels 1, 3, 5 and 8; 1–3 and 10 input
/// channels, some with only a subset live; 1–9, 16 and 20 filters; output
/// widths 8, 10, 13, 24 and 28; batches 1, 10 and 32; no padding and pad 1.
std::vector<DirectCase> direct_cases() {
  const std::pair<std::size_t, std::vector<std::size_t>> inputs[] = {
      {1, {0}}, {2, {1}}, {3, {0, 1, 2}}, {3, {0, 2}}, {10, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}},
      {10, {1, 4, 5, 9}}};
  const std::size_t filters[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 20};
  const std::size_t widths[] = {8, 10, 13, 24, 28};
  const std::size_t batches[] = {1, 10, 32};
  std::vector<DirectCase> cases;
  std::size_t i = 0;
  for (const std::size_t kernel : {1, 3, 5}) {
    for (const std::size_t f : filters) {
      for (const std::size_t w : widths) {
        const auto& [channels, planes] = inputs[i % 6];
        const std::size_t pad = kernel == 3 && i % 4 == 0 ? 1 : 0;
        cases.push_back({kernel, channels, f, w, 1 + i % 3, batches[i % 3], pad, planes});
        ++i;
      }
    }
  }
  cases.push_back({8, 3, 6, 13, 2, 10, 0, {0, 1, 2}});   // the widest direct kernel
  cases.push_back({5, 3, 3, 28, 28, 10, 0, {0, 1, 2}});  // hy conv1 at half width
  cases.push_back({5, 6, 8, 10, 10, 10, 0, {0, 2, 4}});  // hy conv2 at half width
  return cases;
}

std::vector<float> random_operand(Rng& rng, std::size_t size) {
  std::vector<float> out(size);
  for (auto& x : out) {
    // Exact zeros of both signs exercise the broadcasts' handling of -0.
    const double u = rng.uniform();
    x = u < 0.05 ? 0.0f : u < 0.1 ? -0.0f : static_cast<float>(rng.normal());
  }
  return out;
}

/// The explicit path's patch panel: im2col of `planes` of every sample.
std::vector<float> unrolled(const std::vector<float>& input, const DirectCase& c) {
  const ConvGeometry g = c.geometry();
  const std::size_t plane = g.in_h * g.in_w, k2 = c.kernel * c.kernel;
  const std::size_t spatial = g.out_h() * g.out_w(), cols = c.batch * spatial;
  std::vector<float> columns(c.planes.size() * k2 * cols);
  const ConvGeometry one{1, g.in_h, g.in_w, g.kernel, 1, g.pad};
  for (std::size_t n = 0; n < c.batch; ++n) {
    for (std::size_t j = 0; j < c.planes.size(); ++j) {
      im2col_strided(input.data() + (n * c.channels + c.planes[j]) * plane, one,
                     columns.data() + j * k2 * cols, cols, n * spatial);
    }
  }
  return columns;
}

/// The live planes with a zero border of c.pad and exactly kDirectSlack floats
/// after them: the buffer the kernels read.
std::vector<float> bordered(const std::vector<float>& input, const DirectCase& c) {
  const ConvGeometry g = c.geometry();
  const std::size_t hp = g.in_h + 2 * c.pad, wp = g.in_w + 2 * c.pad;
  std::vector<float> out(c.batch * c.planes.size() * hp * wp + kern::kDirectSlack, 0.0f);
  for (std::size_t n = 0; n < c.batch; ++n) {
    for (std::size_t j = 0; j < c.planes.size(); ++j) {
      const float* src = input.data() + (n * c.channels + c.planes[j]) * g.in_h * g.in_w;
      float* dst = out.data() + (n * c.planes.size() + j) * hp * wp;
      for (std::size_t y = 0; y < g.in_h; ++y) {
        std::memcpy(dst + (y + c.pad) * wp + c.pad, src + y * g.in_w, g.in_w * sizeof(float));
      }
    }
  }
  return out;
}

ConvGeometry bordered_geometry(const DirectCase& c) {
  const ConvGeometry g = c.geometry();
  return {c.planes.size(), g.in_h + 2 * c.pad, g.in_w + 2 * c.pad, c.kernel, 1, 0};
}

TEST(ConvDirect, ForwardMatchesIm2colGemmBitForBit) {
  const Device& dev = get_device("blocked");
  const std::size_t prev_threads = math_threads();
  Rng rng(71);
  for (const DirectCase& c : direct_cases()) {
    const ConvGeometry g = c.geometry();
    ASSERT_TRUE(dev.direct_conv(g)) << c.label();
    const std::size_t k = c.planes.size() * c.kernel * c.kernel;
    const std::size_t cols = c.batch * g.out_h() * g.out_w();
    const std::vector<float> input =
        random_operand(rng, c.batch * c.channels * g.in_h * g.in_w);
    const std::vector<float> w = random_operand(rng, c.filters * k);
    std::vector<float> want(c.filters * cols);
    dev.gemm(GemmOp::kNN, w.data(), unrolled(input, c).data(), want.data(), c.filters, k, cols,
             /*accumulate=*/false);
    for (const std::size_t threads : {1, 4}) {
      set_math_threads(threads);
      std::vector<float> got(want.size(), 1.0f);
      dev.conv_forward(w.data(), c.filters, input.data(), c.batch, g, c.planes, got.data());
      EXPECT_TRUE(same_bits(want, got)) << c.label() << " at math_threads " << threads;
    }
    // The kernel itself, on a buffer with exactly the slack it may read, in
    // two row chunks.
    const std::vector<float> planes = bordered(input, c);
    std::vector<float> got(want.size(), 1.0f);
    const std::size_t split = c.filters / 2;
    kern::conv_panel_forward(w.data(), planes.data(), bordered_geometry(c), c.batch,
                             got.data(), 0, split);
    kern::conv_panel_forward(w.data(), planes.data(), bordered_geometry(c), c.batch,
                             got.data(), split, c.filters);
    EXPECT_TRUE(same_bits(want, got)) << c.label() << " kernel";
  }
  set_math_threads(prev_threads);
}

TEST(ConvDirect, WeightGradMatchesNtBitForBit) {
  const Device& dev = get_device("blocked");
  const std::size_t prev_threads = math_threads();
  Rng rng(72);
  for (const DirectCase& c : direct_cases()) {
    const ConvGeometry g = c.geometry();
    const std::size_t k = c.planes.size() * c.kernel * c.kernel;
    const std::size_t cols = c.batch * g.out_h() * g.out_w();
    const std::vector<float> input =
        random_operand(rng, c.batch * c.channels * g.in_h * g.in_w);
    const std::vector<float> dy = random_operand(rng, c.filters * cols);
    std::vector<float> want(c.filters * k);
    dev.gemm(GemmOp::kNT, dy.data(), unrolled(input, c).data(), want.data(), c.filters, cols, k,
             /*accumulate=*/false);
    for (const std::size_t threads : {1, 4}) {
      set_math_threads(threads);
      std::vector<float> got(want.size(), 1.0f);
      dev.conv_weight_grad(dy.data(), c.filters, input.data(), c.batch, g, c.planes,
                           got.data());
      EXPECT_TRUE(same_bits(want, got)) << c.label() << " at math_threads " << threads;
    }
    const std::vector<float> planes = bordered(input, c);
    std::vector<float> got(want.size(), 1.0f);
    const std::size_t split = c.filters / 2;
    kern::conv_panel_weight_grad(dy.data(), planes.data(), bordered_geometry(c), c.batch,
                                 got.data(), 0, split);
    kern::conv_panel_weight_grad(dy.data(), planes.data(), bordered_geometry(c), c.batch,
                                 got.data(), split, c.filters);
    EXPECT_TRUE(same_bits(want, got)) << c.label() << " kernel";
  }
  set_math_threads(prev_threads);
}

TEST(ConvDirect, OnlyTheBlockedDeviceRunsStrideOneLayersDirectly) {
  const ConvGeometry lenet_conv1{3, 32, 32, 5, 1, 0};
  EXPECT_TRUE(get_device("blocked").direct_conv(lenet_conv1));
  EXPECT_TRUE(get_device("blocked").direct_conv({16, 32, 32, 3, 1, 1}));  // padded
  EXPECT_FALSE(get_device("blocked").direct_conv({2, 9, 9, 3, 2, 1}));   // strided
  EXPECT_FALSE(get_device("blocked").direct_conv({1, 20, 20, 9, 1, 0})); // wider than 8
  EXPECT_FALSE(get_device("naive").direct_conv(lenet_conv1));
  EXPECT_FALSE(get_device("sparse").direct_conv(lenet_conv1));
  std::vector<float> out(6 * 28 * 28);
  const std::vector<float> input(3 * 32 * 32), w(6 * 75);
  EXPECT_THROW(get_device("naive").conv_forward(w.data(), 6, input.data(), 1, lenet_conv1,
                                                {0, 1, 2}, out.data()),
               CheckError);
}

TEST(KernelLayout, PanelEntryPointsStartOn64ByteBoundaries) {
  // src/tensor and src/nn are compiled with -falign-functions=64 so that a
  // size change elsewhere in the library never moves the kernels' loops
  // relative to cache lines (CMakeLists.txt).
  const std::pair<const char*, std::uintptr_t> entries[] = {
      {"gemm_panel_nn", reinterpret_cast<std::uintptr_t>(&kern::gemm_panel_nn)},
      {"gemm_panel_tn", reinterpret_cast<std::uintptr_t>(&kern::gemm_panel_tn)},
      {"gemm_panel_nt", reinterpret_cast<std::uintptr_t>(&kern::gemm_panel_nt)},
      {"conv_panel_forward", reinterpret_cast<std::uintptr_t>(&kern::conv_panel_forward)},
      {"conv_panel_weight_grad",
       reinterpret_cast<std::uintptr_t>(&kern::conv_panel_weight_grad)},
  };
  for (const auto& [name, address] : entries) EXPECT_EQ(address % 64, 0u) << name;
}

TEST(BackendPlumbing, ModelSpecBackendSelectionAndValidation) {
  ModelSpec spec = ModelSpec::lenet5(10);
  spec.backend = "naive";
  Rng rng(61);
  Model model = spec.build_init(rng);  // resolves the name; throws if unknown
  Tensor batch({2, 3, 32, 32});
  batch.fill_normal(rng, 0.0f, 1.0f);
  EXPECT_EQ(model.forward(batch, false).shape(), Shape({2, 10}));

  spec.backend = "no_such_backend";
  EXPECT_THROW(spec.build(), CheckError);
}

}  // namespace
}  // namespace subfed
