//===- bench/HostFeatures.h - Shared BENCH_*.json header fields -*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
//
// Every BENCH_*.json header records the host's vector capabilities and
// the tier the SIMD stride kernel actually dispatches to, so throughput
// trajectories are comparable across hosts (an AVX2 box and a
// forced-scalar CI runner produce legitimately different numbers).
//
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_BENCH_HOSTFEATURES_H
#define STRUCTSLIM_BENCH_HOSTFEATURES_H

#include "core/StrideKernel.h"
#include "support/Simd.h"

#include <string>

namespace structslim {

/// JSON fields (each line indented two spaces, trailing ",\n") naming
/// the host CPU features and the active kernel dispatch tier. Splice
/// directly after the "bench" field of a BENCH_*.json header.
inline std::string hostFeatureJsonFields() {
  namespace simd = support::simd;
  std::string Out;
  Out += std::string("  \"host_avx2\": ") +
         (simd::hostAvx2() ? "true" : "false") + ",\n";
  Out += std::string("  \"host_sse2\": ") +
         (simd::hostSse2() ? "true" : "false") + ",\n";
  Out += std::string("  \"simd_forced_scalar\": ") +
         (simd::scalarForced() ? "true" : "false") + ",\n";
  Out += std::string("  \"stride_kernel_level\": \"") +
         simd::levelName(core::strideKernelLevel()) + "\",\n";
  return Out;
}

} // namespace structslim

#endif // STRUCTSLIM_BENCH_HOSTFEATURES_H
