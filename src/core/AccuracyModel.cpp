//===- core/AccuracyModel.cpp ---------------------------------*- C++ -*-===//

#include "core/AccuracyModel.h"

#include "core/StrideKernel.h"
#include "support/MathUtil.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <numeric>
#include <vector>

using namespace structslim;
using namespace structslim::core;

double structslim::core::eq4Accuracy(uint64_t N, uint64_t K) {
  assert(K >= 2 && K <= N && "need at least two samples");
  double Loss = 0.0;
  for (uint64_t P : primesUpTo(N)) {
    double Term = binomialRatio(N, P, K);
    if (Term == 0.0 && P > N / K)
      break; // All further primes give n/p < k: no ways left.
    Loss += Term;
  }
  return 1.0 - Loss;
}

double structslim::core::eq4LowerBound(uint64_t K) {
  assert(K >= 2 && "need at least two samples");
  // The bound depends on K alone, and the analyzer asks for it once per
  // sparse stream: sieve the primes once per process and memoize every
  // K below the table edge.
  static const std::array<double, 64> Table = [] {
    std::vector<uint64_t> Primes = primesUpTo(100000);
    std::array<double, 64> Bounds{};
    for (uint64_t Exp = 2; Exp != Bounds.size(); ++Exp) {
      double Loss = 0.0;
      for (uint64_t P : Primes) {
        double Term =
            std::pow(static_cast<double>(P), -static_cast<double>(Exp));
        Loss += Term;
        if (Term < 1e-18)
          break;
      }
      Bounds[Exp] = 1.0 - Loss;
    }
    return Bounds;
  }();
  if (K < Table.size())
    return Table[K];
  // 2^-K < 1e-18 from K = 60 on: the sum stops after its p = 2 term.
  return 1.0 - std::pow(2.0, -static_cast<double>(K));
}

double structslim::core::exactAccuracy(uint64_t N, uint64_t K) {
  assert(K >= 2 && K <= N && "need at least two samples");
  double LogCnk = logBinomial(N, K);
  double Loss = 0.0;
  for (uint64_t P : primesUpTo(N)) {
    // Residue classes mod p have either ceil(n/p) or floor(n/p) members.
    uint64_t Big = (N + P - 1) / P; // ceil
    uint64_t Small = N / P;         // floor
    uint64_t NumBig = N % P;        // classes with ceil members
    uint64_t NumSmall = P - NumBig;
    double Term = 0.0;
    if (Big >= K && NumBig > 0)
      Term += NumBig * std::exp(logBinomial(Big, K) - LogCnk);
    if (Small >= K && NumSmall > 0)
      Term += NumSmall * std::exp(logBinomial(Small, K) - LogCnk);
    if (Term == 0.0 && Small < K && Big < K)
      break;
    Loss += Term;
  }
  return 1.0 - Loss;
}

double structslim::core::measureAccuracy(uint64_t N, uint64_t K,
                                         uint64_t StrideR, unsigned Trials,
                                         Rng &Rng) {
  assert(K >= 2 && K <= N && "need at least two samples");
  unsigned Correct = 0;
  std::vector<uint64_t> Positions;
  for (unsigned T = 0; T != Trials; ++T) {
    // Floyd's algorithm for K distinct values in [0, N).
    Positions.clear();
    // For small K relative to N, rejection sampling is simpler and the
    // collision probability is tiny.
    while (Positions.size() < K) {
      uint64_t X = Rng.nextBelow(N);
      if (std::find(Positions.begin(), Positions.end(), X) ==
          Positions.end())
        Positions.push_back(X);
    }
    // Samples arrive in temporal order: positions are visited in
    // increasing order by a forward loop.
    std::sort(Positions.begin(), Positions.end());
    uint64_t G =
        gcdAdjacentDiffs(Positions.data(), Positions.size(), StrideR);
    if (G == StrideR)
      ++Correct;
  }
  return static_cast<double>(Correct) / Trials;
}
