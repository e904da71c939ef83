//===- runtime/ProfileBuilder.h - Online sample attribution ----*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The online half of StructSlim (paper Sec. 5.1): the PMU interrupt
/// handler. For each delivered address sample it performs
///   - code-centric attribution: IP -> function / innermost loop / line
///     via the CodeMap (hpcstruct role),
///   - data-centric attribution: effective address -> data object via
///     the object table (libmonitor + symtabAPI role),
///   - incremental GCD stride maintenance per stream (Eqs. 2-3 run
///     online, as the paper's profiler does).
/// Each thread owns one builder; no synchronization is needed, which is
/// the paper's scalability design.
///
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_RUNTIME_PROFILEBUILDER_H
#define STRUCTSLIM_RUNTIME_PROFILEBUILDER_H

#include "analysis/CodeMap.h"
#include "mem/DataObjectTable.h"
#include "pmu/AddressSampling.h"
#include "profile/Profile.h"
#include "support/FlatHash.h"

#include <vector>

namespace structslim {
namespace runtime {

/// Supplies the active call path at sample time — the stack walk a
/// real PMU interrupt handler performs. The interpreter implements it.
class CallPathProvider {
public:
  virtual ~CallPathProvider();
  virtual const std::vector<uint64_t> &currentCallPath() const = 0;
};

/// Builds one thread's profile from PMU samples.
class ProfileBuilder : public pmu::SampleSink {
public:
  ProfileBuilder(const analysis::CodeMap &CodeMap,
                 const mem::DataObjectTable &Objects, uint32_t ThreadId,
                 uint64_t SamplePeriod);

  /// Enables full-calling-context attribution (HPCToolkit style).
  void setCallPathProvider(const CallPathProvider *Provider) {
    this->Provider = Provider;
  }

  /// Marks this builder as fed through a bounded SampleReservoir: each
  /// attributed sample then also counts toward the stream's
  /// OfferedSamples/OfferedWeight (the reservoir adds the evicted
  /// remainder at flush time). Off by default so unbounded profiles
  /// keep all reservoir fields zero — the v1/v2 round-trip contract.
  void setReservoirActive(bool Active) { ReservoirActive = Active; }

  void onSample(const pmu::AddressSample &Sample) override;

  /// Delivery with a captured call path (the sample reservoir releases
  /// samples at phase end, after the live stack moved on).
  void onSampleAt(const pmu::AddressSample &Sample, const uint64_t *Path,
                  size_t PathLen) override;

  /// Finalizes and surrenders the profile.
  profile::Profile take();

  /// Read-only view while still collecting.
  const profile::Profile &peek() const { return P; }

private:
  void attribute(const pmu::AddressSample &Sample, const uint64_t *Path,
                 size_t PathLen, bool WithContext);

  const analysis::CodeMap &CodeMap;
  const mem::DataObjectTable &Objects;
  const CallPathProvider *Provider = nullptr;
  bool ReservoirActive = false;
  profile::Profile P;

  /// Per-stream sets of unique sampled addresses (bounded by the sample
  /// count, which address sampling keeps small by construction),
  /// indexed by position in P.Streams. Flat open-addressing sets: the
  /// per-sample hot path does one probe, no node allocation — this
  /// runs inside the simulated PMU interrupt handler, where the
  /// paper's overhead budget (Sec. 6.1) is spent.
  std::vector<support::FlatU64Set> UniqueAddrs;
};

} // namespace runtime
} // namespace structslim

#endif // STRUCTSLIM_RUNTIME_PROFILEBUILDER_H
