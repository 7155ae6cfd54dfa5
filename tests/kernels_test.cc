// Parity and dispatch tests for the SIMD micro-kernels (src/ml/kernels.h).
//
// The central contract: every f64 kernel of every backend is BITWISE
// identical to the scalar oracle — the vector tiers change wall time, never
// results. That is property-tested here over randomized shapes that land on
// every remainder-lane class (m % 8 and m % 4 from 0 through the tile
// width), with bit-pattern comparison rather than tolerance. The f32 matvec
// is held to a numeric tolerance instead (it may fuse multiply-adds), and
// the dispatcher itself is tested for override/force-scalar behavior and
// for safe concurrent first use.

#include <atomic>
#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ml/kernels.h"
#include "ml/matrix.h"
#include "util/rng.h"

namespace sky::ml {
namespace {

/// Bit-pattern equality: distinguishes -0.0/+0.0 and catches any rounding
/// divergence a tolerance would mask.
bool BitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  // memcmp's pointers must be valid even for zero bytes; an empty vector's
  // data() may be null.
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

std::vector<double> RandomVec(size_t n, Rng* rng) {
  std::vector<double> v(n);
  // Mixed magnitudes so reassociation errors (if any slipped in) would be
  // visible, plus exact zeros to hit the skip paths.
  for (double& x : v) {
    x = rng->Normal(0.0, 1.0) * std::pow(10.0, rng->Normal(0.0, 2.0));
    if (rng->Bernoulli(0.05)) x = 0.0;
  }
  return v;
}

/// Every non-scalar backend this build + host can run.
std::vector<const KernelOps*> VectorBackends() {
  std::vector<const KernelOps*> out;
  if (KernelBackendSupported(KernelBackend::kAvx2)) {
    out.push_back(Avx2KernelOps());
  }
  if (KernelBackendSupported(KernelBackend::kNeon)) {
    out.push_back(NeonKernelOps());
  }
  return out;
}

TEST(KernelsTest, GemmRowMatchesScalarBitwiseAcrossShapes) {
  Rng rng(101);
  const KernelOps* scalar = ScalarKernelOps();
  for (const KernelOps* ops : VectorBackends()) {
    // m sweeps 0..40: covers every remainder class of the 16- and 4-column
    // AVX2 tiles and the 8/2-column NEON tiles; k sweeps the quad remainder.
    for (size_t m = 0; m <= 40; ++m) {
      for (size_t kdim : {size_t{1}, size_t{3}, size_t{4}, size_t{7},
                          size_t{16}, size_t{33}}) {
        std::vector<double> a = RandomVec(kdim, &rng);
        std::vector<double> b = RandomVec(kdim * (m + 3), &rng);  // ldb > m
        size_t ldb = m + 3;
        std::vector<double> out_scalar = RandomVec(m, &rng);
        std::vector<double> out_vec = out_scalar;  // same accumulator seed
        scalar->gemm_row_f64(a.data(), 0, kdim, b.data(), ldb,
                             out_scalar.data(), m);
        ops->gemm_row_f64(a.data(), 0, kdim, b.data(), ldb, out_vec.data(), m);
        ASSERT_TRUE(BitEqual(out_scalar, out_vec))
            << KernelBackendName(ops->backend) << " diverged at m=" << m
            << " k=" << kdim;
        // A k-range not starting at 0 (the cache-blocked GEMM calls it that
        // way for every block after the first).
        if (kdim > 2) {
          scalar->gemm_row_f64(a.data(), 2, kdim, b.data(), ldb,
                               out_scalar.data(), m);
          ops->gemm_row_f64(a.data(), 2, kdim, b.data(), ldb, out_vec.data(),
                            m);
          ASSERT_TRUE(BitEqual(out_scalar, out_vec));
        }
      }
    }
  }
}

TEST(KernelsTest, Axpy4MatchesScalarBitwiseAcrossLengths) {
  Rng rng(102);
  const KernelOps* scalar = ScalarKernelOps();
  for (const KernelOps* ops : VectorBackends()) {
    for (size_t m = 0; m <= 20; ++m) {
      std::vector<double> v0 = RandomVec(m, &rng), v1 = RandomVec(m, &rng);
      std::vector<double> v2 = RandomVec(m, &rng), v3 = RandomVec(m, &rng);
      double d0 = rng.Normal(0.0, 1.0), d1 = rng.Normal(0.0, 1.0);
      double d2 = 0.0, d3 = rng.Normal(0.0, 1.0);  // exact-zero coefficient
      std::vector<double> out_scalar = RandomVec(m, &rng);
      std::vector<double> out_vec = out_scalar;
      scalar->axpy4_f64(d0, v0.data(), d1, v1.data(), d2, v2.data(), d3,
                        v3.data(), out_scalar.data(), m);
      ops->axpy4_f64(d0, v0.data(), d1, v1.data(), d2, v2.data(), d3,
                     v3.data(), out_vec.data(), m);
      ASSERT_TRUE(BitEqual(out_scalar, out_vec))
          << KernelBackendName(ops->backend) << " axpy4 diverged at m=" << m;
    }
  }
}

TEST(KernelsTest, Axpy1MatchesScalarBitwiseAcrossLengths) {
  Rng rng(103);
  const KernelOps* scalar = ScalarKernelOps();
  for (const KernelOps* ops : VectorBackends()) {
    for (size_t m = 0; m <= 20; ++m) {
      std::vector<double> v = RandomVec(m, &rng);
      double d = rng.Normal(0.0, 1.0);
      std::vector<double> out_scalar = RandomVec(m, &rng);
      std::vector<double> out_vec = out_scalar;
      scalar->axpy1_f64(d, v.data(), out_scalar.data(), m);
      ops->axpy1_f64(d, v.data(), out_vec.data(), m);
      ASSERT_TRUE(BitEqual(out_scalar, out_vec))
          << KernelBackendName(ops->backend) << " axpy1 diverged at m=" << m;
    }
  }
}

TEST(KernelsTest, DenseMatVecF32WithinToleranceOfF64Reference) {
  // The f32 matvec takes the TRANSPOSED weights (wt[c * rows + r], see
  // kernels.h). Every backend — scalar included — is held to an f32
  // tolerance against an f64 reference dot product; rows sweeps across the
  // 16/8-wide vector tiles and their sub-8 tails, cols across short and
  // long accumulations.
  Rng rng(104);
  std::vector<const KernelOps*> backends = {ScalarKernelOps()};
  for (const KernelOps* ops : VectorBackends()) backends.push_back(ops);
  for (const KernelOps* ops : backends) {
    for (size_t rows : {size_t{1}, size_t{3}, size_t{8}, size_t{11},
                        size_t{16}, size_t{19}, size_t{24}}) {
      for (size_t cols : {size_t{1}, size_t{5}, size_t{8}, size_t{13},
                          size_t{32}, size_t{40}}) {
        std::vector<float> wt(cols * rows), x(cols), bias(rows);
        for (float& v : wt) v = static_cast<float>(rng.Normal(0.0, 1.0));
        for (float& v : x) v = static_cast<float>(rng.Normal(0.0, 1.0));
        for (float& v : bias) v = static_cast<float>(rng.Normal(0.0, 1.0));
        std::vector<float> y(rows);
        ops->dense_matvec_f32(wt.data(), bias.data(), x.data(), y.data(),
                              rows, cols);
        for (size_t r = 0; r < rows; ++r) {
          double ref = bias[r];
          for (size_t c = 0; c < cols; ++c) {
            ref += static_cast<double>(x[c]) *
                   static_cast<double>(wt[c * rows + r]);
          }
          EXPECT_NEAR(y[r], ref, 1e-5 * (1.0 + static_cast<double>(cols)))
              << KernelBackendName(ops->backend) << " rows " << rows
              << " cols " << cols << " row " << r;
        }
      }
    }
  }
}

TEST(KernelsTest, MatMulIntoIdenticalAcrossBackends) {
  // End-to-end through the Matrix entry points: force each backend in turn
  // and require bitwise-identical products (this is the whole-library
  // consequence of the kernel-level contract above).
  Rng rng(105);
  Matrix a(13, 29), b(29, 17);
  for (double& v : a.data()) v = rng.Normal(0.0, 1.0);
  for (double& v : b.data()) v = rng.Normal(0.0, 1.0);
  KernelBackend original = ActiveKernelBackend();
  ASSERT_TRUE(SetKernelBackend(KernelBackend::kScalar).ok());
  Matrix out_scalar, out_scalar_t;
  MatMulInto(a, b, &out_scalar);
  MatMulTransposedAInto(a, a, &out_scalar_t);
  for (KernelBackend backend : {KernelBackend::kAvx2, KernelBackend::kNeon}) {
    if (!KernelBackendSupported(backend)) continue;
    ASSERT_TRUE(SetKernelBackend(backend).ok());
    Matrix out, out_t;
    MatMulInto(a, b, &out);
    MatMulTransposedAInto(a, a, &out_t);
    EXPECT_TRUE(BitEqual(out_scalar.data(), out.data()))
        << KernelBackendName(backend);
    EXPECT_TRUE(BitEqual(out_scalar_t.data(), out_t.data()))
        << KernelBackendName(backend);
  }
  ASSERT_TRUE(SetKernelBackend(original).ok());
}

TEST(KernelsTest, SetKernelBackendOverridesDispatch) {
  KernelBackend original = ActiveKernelBackend();
  ASSERT_TRUE(SetKernelBackend(KernelBackend::kScalar).ok());
  EXPECT_EQ(ActiveKernelBackend(), KernelBackend::kScalar);
  EXPECT_EQ(ActiveKernels().backend, KernelBackend::kScalar);
  if (KernelBackendSupported(BestSupportedBackend())) {
    ASSERT_TRUE(SetKernelBackend(BestSupportedBackend()).ok());
    EXPECT_EQ(ActiveKernelBackend(), BestSupportedBackend());
  }
  ASSERT_TRUE(SetKernelBackend(original).ok());
}

TEST(KernelsTest, SetKernelBackendRejectsUnsupportedTier) {
  // At most one vector tier exists per architecture, so the other one must
  // be rejected (and on a scalar-only host both are).
  for (KernelBackend backend : {KernelBackend::kAvx2, KernelBackend::kNeon}) {
    if (KernelBackendSupported(backend)) continue;
    EXPECT_FALSE(SetKernelBackend(backend).ok());
  }
  // Scalar is always available.
  EXPECT_TRUE(KernelBackendSupported(KernelBackend::kScalar));
}

TEST(KernelsTest, BackendNamesAreStable) {
  EXPECT_EQ(KernelBackendName(KernelBackend::kScalar), "scalar");
  EXPECT_EQ(KernelBackendName(KernelBackend::kAvx2), "avx2");
  EXPECT_EQ(KernelBackendName(KernelBackend::kNeon), "neon");
}

TEST(KernelsTest, ConcurrentFirstUseIsSafe) {
  // Many threads race ActiveKernels() + a kernel call; under TSan this
  // exercises the atomic-publish dispatch initialization. All threads must
  // observe the same table and compute the oracle result.
  constexpr size_t kThreads = 8;
  std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      const KernelOps& ops = ActiveKernels();
      std::vector<double> out(v.size(), 1.0);
      ops.axpy1_f64(2.0, v.data(), out.data(), v.size());
      for (size_t i = 0; i < v.size(); ++i) {
        if (out[i] != 1.0 + 2.0 * v[i]) mismatches.fetch_add(1);
      }
      if (ops.backend != ActiveKernelBackend()) mismatches.fetch_add(1);
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace sky::ml
