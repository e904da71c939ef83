//===- tests/stride_kernel_test.cpp - Stride-GCD kernel oracles -*- C++ -*-===//
//
// The four-lane stride-GCD folds in core/StrideKernel reassociate the
// fold across independent accumulators and stop early once every lane
// reaches 1. These tests hold them to the std::gcd oracle and to
// sequential reference loops: randomized noisy inputs (zeros, huge
// cross-object gaps, lengths around every lane boundary), planted
// strides with jitter, and the binary GCD's edge values.
//
//===----------------------------------------------------------------------===//

#include "core/StrideKernel.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

using namespace structslim;

namespace {

uint64_t stdGcdFold(const std::vector<uint64_t> &Vals) {
  uint64_t G = 0;
  for (uint64_t V : Vals)
    G = std::gcd(G, V);
  return G;
}

std::vector<uint64_t> randomStrides(Rng &Gen, size_t N) {
  // A common factor with noise: realistic Eq. 5 inputs where most
  // observations share the structure size but some are zero (repeated
  // sample addresses) or huge (cross-object gaps).
  uint64_t Factor = 1 + Gen.nextBelow(256);
  std::vector<uint64_t> Vals;
  for (size_t I = 0; I != N; ++I) {
    uint64_t V = Factor * (1 + Gen.nextBelow(1 << 20));
    if (Gen.nextBelow(16) == 0)
      V = 0;
    if (Gen.nextBelow(32) == 0)
      V = Gen.nextBelow(~0ull >> 8);
    Vals.push_back(V);
  }
  return Vals;
}

} // namespace

TEST(StrideKernel, ReduceMatchesStdGcdOnNoisyStrides) {
  Rng Gen(0xD00D);
  for (size_t N : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 15u, 16u, 33u, 1000u}) {
    for (int Trial = 0; Trial != 50; ++Trial) {
      std::vector<uint64_t> Vals = randomStrides(Gen, N);
      ASSERT_EQ(core::gcdReduce(Vals.data(), Vals.size()), stdGcdFold(Vals))
          << "N=" << N << " trial " << Trial;
    }
  }
}

TEST(StrideKernel, AdjacentDiffsMatchStdGcdOnJitteredPositions) {
  Rng Gen(0xF00F);
  for (size_t N : {0u, 1u, 2u, 3u, 5u, 8u, 9u, 17u, 64u, 500u}) {
    for (int Trial = 0; Trial != 50; ++Trial) {
      // Sorted sample positions with a planted stride plus jitter.
      uint64_t Stride = 1 + Gen.nextBelow(4096);
      uint64_t Scale = 1 + Gen.nextBelow(64);
      std::vector<uint64_t> Sorted;
      uint64_t Pos = Gen.nextBelow(1 << 30);
      for (size_t I = 0; I != N; ++I) {
        Pos += Stride * (Gen.nextBelow(8) + (Gen.nextBelow(4) == 0 ? 0 : 1));
        Sorted.push_back(Pos);
      }
      uint64_t Expected = 0;
      for (size_t I = 1; I < Sorted.size(); ++I)
        Expected = std::gcd(Expected, (Sorted[I] - Sorted[I - 1]) * Scale);
      ASSERT_EQ(core::gcdAdjacentDiffs(Sorted.data(), Sorted.size(), Scale),
                Expected)
          << "N=" << N << " trial " << Trial;
    }
  }
}

TEST(StrideKernel, BinaryGcdMatchesStdGcdOnEdgeValues) {
  const uint64_t Edge[] = {0,          1,          2,          3,
                           63,         64,         65,         (1ull << 32),
                           (1ull << 32) + 1,       ~0ull,      ~0ull - 1,
                           0x8000000000000000ull};
  for (uint64_t A : Edge)
    for (uint64_t B : Edge)
      EXPECT_EQ(core::binaryGcd(A, B), std::gcd(A, B)) << A << "," << B;
}

TEST(StrideKernel, BinaryGcdMatchesStdGcd) {
  Rng Gen(42);
  EXPECT_EQ(core::binaryGcd(0, 0), 0u);
  EXPECT_EQ(core::binaryGcd(0, 24), 24u);
  EXPECT_EQ(core::binaryGcd(24, 0), 24u);
  for (int I = 0; I != 5000; ++I) {
    uint64_t A = Gen.next() >> Gen.nextBelow(64);
    uint64_t B = Gen.next() >> Gen.nextBelow(64);
    EXPECT_EQ(core::binaryGcd(A, B), std::gcd(A, B)) << A << " " << B;
  }
}

TEST(StrideKernel, ReduceMatchesSequentialFold) {
  Rng Gen(7);
  for (int Trial = 0; Trial != 200; ++Trial) {
    size_t N = Gen.nextBelow(40);
    std::vector<uint64_t> V(N);
    for (uint64_t &X : V) {
      // Shared factor keeps the GCD interesting; occasional zeros and
      // ones exercise the identity and the all-lanes-1 early exit.
      uint64_t R = Gen.nextBelow(1000);
      X = Gen.nextBelow(10) == 0 ? R : R * 24;
    }
    uint64_t Seq = 0;
    for (uint64_t X : V)
      Seq = std::gcd(Seq, X);
    EXPECT_EQ(core::gcdReduce(V.data(), V.size()), Seq);
  }
}

TEST(StrideKernel, AdjacentDiffsMatchReferenceLoop) {
  Rng Gen(11);
  for (int Trial = 0; Trial != 200; ++Trial) {
    size_t N = Gen.nextBelow(30);
    std::vector<uint64_t> Sorted(N);
    uint64_t X = 0;
    for (uint64_t &S : Sorted)
      S = (X += Gen.nextBelow(100));
    uint64_t Scale = 1 + Gen.nextBelow(64);
    uint64_t Ref = 0;
    for (size_t I = 1; I < N; ++I)
      Ref = std::gcd(Ref, (Sorted[I] - Sorted[I - 1]) * Scale);
    EXPECT_EQ(core::gcdAdjacentDiffs(Sorted.data(), N, Scale),
              N < 2 ? 0u : Ref);
  }
}
