//===- tests/accuracy_test.cpp - Eq. 4 accuracy model tests ----*- C++ -*-===//

#include "core/AccuracyModel.h"
#include "support/MathUtil.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

using namespace structslim;
using namespace structslim::core;

TEST(Accuracy, PaperClaimKTenExceeds99Percent) {
  // "if k is larger than 10, the accuracy can be higher than 99%."
  for (uint64_t N : {1000ull, 10000ull, 100000ull}) {
    EXPECT_GT(eq4Accuracy(N, 10), 0.99) << "n = " << N;
    EXPECT_GT(exactAccuracy(N, 10), 0.99) << "n = " << N;
  }
  EXPECT_GT(eq4LowerBound(10), 0.99);
}

TEST(Accuracy, LowerBoundLookupMatchesTheDirectSum) {
  // The formula as a loop, re-sieving on every K: the reference the
  // memoized lookup must reproduce bit for bit, on both sides of its
  // table edge.
  std::vector<uint64_t> Primes = primesUpTo(100000);
  for (uint64_t K = 2; K <= 200; ++K) {
    double Loss = 0.0;
    for (uint64_t P : Primes) {
      double Term = std::pow(static_cast<double>(P), -static_cast<double>(K));
      Loss += Term;
      if (Term < 1e-18)
        break;
    }
    EXPECT_EQ(eq4LowerBound(K), 1.0 - Loss) << "k = " << K;
  }
}

TEST(Accuracy, MonotonicInK) {
  double Prev = 0.0;
  for (uint64_t K = 2; K <= 16; ++K) {
    double A = eq4Accuracy(10000, K);
    EXPECT_GE(A, Prev - 1e-12) << "k = " << K;
    Prev = A;
  }
}

TEST(Accuracy, SmallKIsInaccurate) {
  // With two samples the failure probability is substantial (~ sum of
  // 1/p over small primes' effect).
  EXPECT_LT(eq4Accuracy(10000, 2), 0.65);
  EXPECT_LT(exactAccuracy(10000, 2), 0.65);
}

TEST(Accuracy, BoundsOrdering) {
  // The closed-form bound understates the Eq. 4 value, which itself
  // overstates the residue-exact accuracy (Eq. 4 counts only the
  // multiples-of-p failure class).
  for (uint64_t K : {3ull, 5ull, 8ull, 12ull}) {
    double Bound = eq4LowerBound(K);
    double Paper = eq4Accuracy(100000, K);
    double Exact = exactAccuracy(100000, K);
    EXPECT_LE(Bound, Paper + 1e-9) << "k = " << K;
    EXPECT_LE(Exact, Paper + 1e-9) << "k = " << K;
  }
}

TEST(Accuracy, ExactHandlesTinyN) {
  // All C(n,k) mass enumerable by hand: n=4, k=2 -> subsets {0..3}
  // choose 2 = 6; same-residue-mod-2 pairs: {0,2},{1,3} -> 2; mod 3:
  // {0,3} -> 1. exact = 1 - 3/6 = 0.5.
  EXPECT_NEAR(exactAccuracy(4, 2), 0.5, 1e-9);
}

TEST(Accuracy, Eq4TinyN) {
  // Eq. 4 as printed: subtract C(2,2)/C(4,2) for p=2 (multiples {0,2})
  // and C(1,2)=0 for p=3: 1 - 1/6.
  EXPECT_NEAR(eq4Accuracy(4, 2), 1.0 - 1.0 / 6.0, 1e-9);
}

// Monte Carlo ground truth matches the residue-exact model across k,
// for unit and non-unit real strides (the GCD is stride-scale
// invariant).
struct AccuracyCase {
  uint64_t N;
  uint64_t K;
  uint64_t StrideR;
};

class AccuracyMonteCarlo : public ::testing::TestWithParam<AccuracyCase> {};

TEST_P(AccuracyMonteCarlo, MeasuredMatchesExactModel) {
  const AccuracyCase &C = GetParam();
  Rng R(0xACC + C.K * 131 + C.StrideR);
  double Measured = measureAccuracy(C.N, C.K, C.StrideR, 4000, R);
  double Model = exactAccuracy(C.N, C.K);
  // 4000 trials: allow ~3 sigma of binomial noise plus model slack for
  // the ignored inclusion-exclusion terms.
  double Sigma = std::sqrt(Model * (1 - Model) / 4000) * 3 + 0.01;
  EXPECT_NEAR(Measured, Model, Sigma)
      << "n=" << C.N << " k=" << C.K << " stride=" << C.StrideR;
}

// The models drop the inclusion-exclusion terms across primes, which
// only vanish for k >= 4; the sweep starts there (see the small-k
// breakdown test below).
INSTANTIATE_TEST_SUITE_P(
    Sweep, AccuracyMonteCarlo,
    ::testing::Values(AccuracyCase{1000, 4, 1}, AccuracyCase{1000, 6, 1},
                      AccuracyCase{1000, 8, 1}, AccuracyCase{1000, 10, 1},
                      AccuracyCase{1000, 12, 1}, AccuracyCase{5000, 5, 1},
                      AccuracyCase{5000, 10, 1}, AccuracyCase{1000, 4, 64},
                      AccuracyCase{1000, 8, 64}, AccuracyCase{1000, 6, 56},
                      AccuracyCase{1000, 10, 16}));

TEST(Accuracy, SmallKFormulaBreaksDown) {
  // With k = 2 the computed stride equals the single address
  // difference, so the true accuracy is ~2/n — while Eq. 4's
  // independence-style counting still reports ~0.5. The formula (and
  // the paper's claim) is only meaningful for larger k; this test
  // documents the gap.
  Rng R(77);
  double Measured = measureAccuracy(1000, 2, 1, 4000, R);
  EXPECT_LT(Measured, 0.02);
  EXPECT_GT(eq4Accuracy(1000, 2), 0.3);
}

TEST(Accuracy, StrideScaleInvariance) {
  // Recovering stride 64 from n positions is exactly as hard as
  // recovering stride 1: measured accuracies agree within noise.
  Rng R1(1), R2(1);
  double Unit = measureAccuracy(2000, 5, 1, 3000, R1);
  double Wide = measureAccuracy(2000, 5, 64, 3000, R2);
  EXPECT_NEAR(Unit, Wide, 0.04);
}
