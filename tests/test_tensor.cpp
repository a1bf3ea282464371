// Tensor and GEMM unit tests.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cmath>
#include <vector>

#include "tensor/gemm.h"
#include "tensor/tensor.h"
#include "util/check.h"
#include "util/rng.h"

namespace subfed {
namespace {

TEST(Shape, NumelAndRank) {
  Shape s{2, 3, 4};
  EXPECT_EQ(s.rank(), 3u);
  EXPECT_EQ(s.numel(), 24u);
  EXPECT_EQ(s[1], 3u);
  EXPECT_EQ(Shape{}.numel(), 0u);
}

TEST(Shape, Equality) {
  EXPECT_EQ(Shape({2, 3}), Shape({2, 3}));
  EXPECT_NE(Shape({2, 3}), Shape({3, 2}));
  EXPECT_EQ(Shape({2, 3}).to_string(), "(2, 3)");
}

TEST(Tensor, ZeroInitialized) {
  Tensor t({3, 4});
  EXPECT_EQ(t.numel(), 12u);
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, FillValueConstructor) {
  Tensor t({2, 2}, 3.5f);
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 3.5f);
}

TEST(Tensor, FromDataValidatesSize) {
  EXPECT_NO_THROW(Tensor({2, 2}, std::vector<float>{1, 2, 3, 4}));
  EXPECT_THROW(Tensor({2, 2}, std::vector<float>{1, 2, 3}), CheckError);
}

TEST(Tensor, IndexedAccessBounds) {
  Tensor t({2, 3});
  t.at2(1, 2) = 7.0f;
  EXPECT_EQ(t.at2(1, 2), 7.0f);
  EXPECT_THROW(t.at2(2, 0), CheckError);
  EXPECT_THROW(t[6], CheckError);
}

TEST(Tensor, At4Layout) {
  Tensor t({2, 3, 4, 5});
  t.at4(1, 2, 3, 4) = 9.0f;
  // NCHW row-major flat index.
  EXPECT_EQ(t[((1 * 3 + 2) * 4 + 3) * 5 + 4], 9.0f);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  t.reshape({3, 2});
  EXPECT_EQ(t.at2(2, 1), 6.0f);
  EXPECT_THROW(t.reshape({4, 2}), CheckError);
}

TEST(Tensor, ElementwiseOps) {
  Tensor a({3}, std::vector<float>{1, 2, 3});
  Tensor b({3}, std::vector<float>{4, 5, 6});
  EXPECT_EQ(add(a, b)[1], 7.0f);
  EXPECT_EQ(sub(b, a)[2], 3.0f);
  EXPECT_EQ(mul(a, b)[0], 4.0f);
  a.scale_(2.0f);
  EXPECT_EQ(a[2], 6.0f);
  a.axpy_(0.5f, b);
  EXPECT_EQ(a[0], 4.0f);  // 2 + 0.5·4
}

TEST(Tensor, SizeMismatchThrows) {
  Tensor a({3});
  Tensor b({4});
  EXPECT_THROW(a.add_(b), CheckError);
  EXPECT_THROW(a.mul_(b), CheckError);
  EXPECT_THROW(a.axpy_(1.0f, b), CheckError);
}

TEST(Tensor, Reductions) {
  Tensor t({4}, std::vector<float>{-3, 1, 0, 2});
  EXPECT_DOUBLE_EQ(t.sum(), 0.0);
  EXPECT_DOUBLE_EQ(t.mean(), 0.0);
  EXPECT_EQ(t.abs_max(), 3.0f);
  EXPECT_DOUBLE_EQ(t.squared_norm(), 14.0);
  EXPECT_EQ(t.count_zero(), 1u);
}

TEST(Tensor, RandomFills) {
  Rng rng(42);
  Tensor t({10000});
  t.fill_normal(rng, 1.0f, 2.0f);
  EXPECT_NEAR(t.mean(), 1.0, 0.1);
  double var = 0.0;
  for (std::size_t i = 0; i < t.numel(); ++i) {
    var += (t[i] - t.mean()) * (t[i] - t.mean());
  }
  var /= static_cast<double>(t.numel());
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);

  t.fill_uniform(rng, -1.0f, 1.0f);
  EXPECT_GE(t.abs_max(), 0.5f);
  EXPECT_LE(t.abs_max(), 1.0f);
}

TEST(Argmax, TiesToLowestIndex) {
  std::vector<float> v{1.0f, 3.0f, 3.0f, 2.0f};
  EXPECT_EQ(argmax(v), 1u);
}

// One step's freed tensors are reused by the next without faulting their
// pages in again. Under glibc's default thresholds the freed top of the heap
// is trimmed back to the kernel, and this second step faults ~6000 pages.
TEST(Tensor, FreedStorageIsReusedWithoutPageFaults) {
#if defined(__GLIBC__) && !defined(__SANITIZE_ADDRESS__)
  const auto minor_faults = [] {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_minflt;
  };
  const auto step = [] {
    std::vector<Tensor> activations;
    activations.reserve(384);
    for (int i = 0; i < 384; ++i) activations.emplace_back(Shape{16384});  // 24 MiB
  };
  step();
  const long before = minor_faults();
  step();
  EXPECT_LT(minor_faults() - before, 64);
#else
  GTEST_SKIP() << "the heap thresholds are a glibc malloc setting";
#endif
}

// --- GEMM ------------------------------------------------------------------

// Reference O(n^3) triple loop for cross-checking all kernel variants.
std::vector<float> reference_gemm(const std::vector<float>& a, const std::vector<float>& b,
                                  std::size_t m, std::size_t k, std::size_t n) {
  std::vector<float> c(m * n, 0.0f);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) {
      for (std::size_t j = 0; j < n; ++j) c[i * n + j] += a[i * k + p] * b[p * n + j];
    }
  }
  return c;
}

class GemmSizes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmSizes, MatchesReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(7 + m * 100 + k * 10 + n);
  std::vector<float> a(m * k), b(k * n);
  for (auto& x : a) x = static_cast<float>(rng.normal());
  for (auto& x : b) x = static_cast<float>(rng.normal());

  const std::vector<float> expected = reference_gemm(a, b, m, k, n);
  std::vector<float> c(m * n, 99.0f);
  gemm(a.data(), b.data(), c.data(), m, k, n);
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], expected[i], 1e-4f);

  // Accumulating variant adds on top.
  gemm_accumulate(a.data(), b.data(), c.data(), m, k, n);
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], 2 * expected[i], 1e-4f);
}

TEST_P(GemmSizes, TransposedVariants) {
  const auto [m, k, n] = GetParam();
  Rng rng(13 + m + k + n);
  std::vector<float> a(m * k), b(k * n);
  for (auto& x : a) x = static_cast<float>(rng.normal());
  for (auto& x : b) x = static_cast<float>(rng.normal());
  const std::vector<float> expected = reference_gemm(a, b, m, k, n);

  // gemm_at_b: A stored transposed [k×m].
  std::vector<float> a_t(m * k);
  for (std::size_t i = 0; i < static_cast<std::size_t>(m); ++i) {
    for (std::size_t p = 0; p < static_cast<std::size_t>(k); ++p) {
      a_t[p * m + i] = a[i * k + p];
    }
  }
  std::vector<float> c1(m * n);
  gemm_at_b(a_t.data(), b.data(), c1.data(), m, k, n);
  for (std::size_t i = 0; i < c1.size(); ++i) EXPECT_NEAR(c1[i], expected[i], 1e-4f);

  // gemm_a_bt: B stored transposed [n×k].
  std::vector<float> b_t(k * n);
  for (std::size_t p = 0; p < static_cast<std::size_t>(k); ++p) {
    for (std::size_t j = 0; j < static_cast<std::size_t>(n); ++j) {
      b_t[j * k + p] = b[p * n + j];
    }
  }
  std::vector<float> c2(m * n);
  gemm_a_bt(a.data(), b_t.data(), c2.data(), m, k, n);
  for (std::size_t i = 0; i < c2.size(); ++i) EXPECT_NEAR(c2[i], expected[i], 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(Sizes, GemmSizes,
                         ::testing::Values(std::make_tuple(1, 1, 1),
                                           std::make_tuple(3, 5, 2),
                                           std::make_tuple(8, 8, 8),
                                           std::make_tuple(16, 25, 9),
                                           std::make_tuple(20, 150, 100),
                                           std::make_tuple(1, 64, 1)));

TEST(Im2Col, IdentityKernelGeometry) {
  // 1 channel, 3x3 image, 1x1 kernel: columns == image.
  ConvGeometry g{1, 3, 3, 1, 1, 0};
  std::vector<float> img{1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<float> cols(g.patch_size() * g.out_h() * g.out_w());
  im2col(img.data(), g, cols.data());
  EXPECT_EQ(cols, img);
}

TEST(Im2Col, KnownPatchExtraction) {
  // 1 channel 3x3, 2x2 kernel, stride 1 → 2x2 output, 4 patch rows.
  ConvGeometry g{1, 3, 3, 2, 1, 0};
  std::vector<float> img{1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<float> cols(g.patch_size() * g.out_h() * g.out_w());
  im2col(img.data(), g, cols.data());
  // Row 0 is the top-left element of each patch: 1,2,4,5.
  EXPECT_EQ(cols[0], 1.0f);
  EXPECT_EQ(cols[1], 2.0f);
  EXPECT_EQ(cols[2], 4.0f);
  EXPECT_EQ(cols[3], 5.0f);
  // Row 3 is the bottom-right element of each patch: 5,6,8,9.
  EXPECT_EQ(cols[12], 5.0f);
  EXPECT_EQ(cols[15], 9.0f);
}

TEST(Im2Col, PaddingProducesZeroHalo) {
  ConvGeometry g{1, 2, 2, 3, 1, 1};  // padded 3x3 kernel over 2x2 input
  std::vector<float> img{1, 2, 3, 4};
  std::vector<float> cols(g.patch_size() * g.out_h() * g.out_w());
  im2col(img.data(), g, cols.data());
  // First patch row (ky=0,kx=0) hits the padded halo for output (0,0).
  EXPECT_EQ(cols[0], 0.0f);
}

TEST(Col2Im, IsAdjointOfIm2Col) {
  // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining adjoint
  // property that conv backward relies on.
  ConvGeometry g{2, 6, 5, 3, 2, 1};
  Rng rng(3);
  const std::size_t img_n = g.in_channels * g.in_h * g.in_w;
  const std::size_t col_n = g.patch_size() * g.out_h() * g.out_w();
  std::vector<float> x(img_n), y(col_n), ax(col_n), aty(img_n);
  for (auto& v : x) v = static_cast<float>(rng.normal());
  for (auto& v : y) v = static_cast<float>(rng.normal());
  im2col(x.data(), g, ax.data());
  col2im(y.data(), g, aty.data());

  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < col_n; ++i) lhs += static_cast<double>(ax[i]) * y[i];
  for (std::size_t i = 0; i < img_n; ++i) rhs += static_cast<double>(x[i]) * aty[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

}  // namespace
}  // namespace subfed
