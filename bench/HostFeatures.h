//===- bench/HostFeatures.h - Shared BENCH_*.json header fields -*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
//
// Every BENCH_*.json header records the host's vector capabilities, so
// throughput trajectories are comparable across hosts.
//
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_BENCH_HOSTFEATURES_H
#define STRUCTSLIM_BENCH_HOSTFEATURES_H

#include <string>

namespace structslim {

/// JSON fields (each line indented two spaces, trailing ",\n") naming
/// the host CPU features. Splice directly after the "bench" field of a
/// BENCH_*.json header.
inline std::string hostFeatureJsonFields() {
#if defined(__x86_64__) || defined(__i386__)
  bool Avx2 = __builtin_cpu_supports("avx2");
  bool Sse2 = __builtin_cpu_supports("sse2");
#else
  bool Avx2 = false, Sse2 = false;
#endif
  std::string Out;
  Out += std::string("  \"host_avx2\": ") + (Avx2 ? "true" : "false") + ",\n";
  Out += std::string("  \"host_sse2\": ") + (Sse2 ? "true" : "false") + ",\n";
  return Out;
}

} // namespace structslim

#endif // STRUCTSLIM_BENCH_HOSTFEATURES_H
