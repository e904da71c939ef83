//===- support/FaultInjection.cpp -----------------------------*- C++ -*-===//

#include "support/FaultInjection.h"

#include "support/ParseNumber.h"

#include <cstdio>
#include <cstdlib>

using namespace structslim;
using namespace structslim::support;

FaultInjector &FaultInjector::instance() {
  static FaultInjector Injector;
  return Injector;
}

FaultInjector::FaultInjector() {
  const char *Seed = std::getenv("STRUCTSLIM_FAULT_SEED");
  if (!Seed || !*Seed)
    return;
  uint64_t Value = 0;
  if (parseUnsigned(Seed, Value))
    armChaos(Value);
  else
    std::fprintf(stderr, "warning: ignoring STRUCTSLIM_FAULT_SEED = '%s'\n",
                 Seed);
}

void FaultInjector::reset() {
  std::lock_guard<std::mutex> Lock(Mu);
  for (auto &SiteFaults : Faults)
    SiteFaults.clear();
  for (auto &Count : Hits)
    Count = 0;
  ChaosArmed = false;
  AnyArmed.store(false, std::memory_order_relaxed);
}

void FaultInjector::arm(FaultSite Site, FaultAction Action,
                        uint64_t HitIndex, uint64_t Param) {
  std::lock_guard<std::mutex> Lock(Mu);
  Faults[static_cast<unsigned>(Site)].push_back({Action, HitIndex, Param});
  AnyArmed.store(true, std::memory_order_relaxed);
}

void FaultInjector::armChaos(uint64_t Seed, uint64_t Period) {
  std::lock_guard<std::mutex> Lock(Mu);
  ChaosArmed = true;
  ChaosPeriod = Period ? Period : 1;
  ChaosRng.reseed(Seed);
  AnyArmed.store(true, std::memory_order_relaxed);
}

bool FaultInjector::consumeHit(FaultSite Site, bool BufferSite,
                               ArmedFault &Out) {
  std::lock_guard<std::mutex> Lock(Mu);
  uint64_t Hit = Hits[static_cast<unsigned>(Site)]++;
  for (const ArmedFault &F : Faults[static_cast<unsigned>(Site)]) {
    if (F.HitIndex == Hit) {
      Out = F;
      return true;
    }
  }
  if (ChaosArmed && ChaosRng.nextBelow(ChaosPeriod) == 0) {
    if (!BufferSite) {
      Out = {FaultAction::Fail, Hit, 0};
    } else {
      // Truncate or flip, parameter drawn fresh; mutate() clamps to
      // the buffer size.
      Out.Action = ChaosRng.nextBelow(2) == 0 ? FaultAction::TruncateTail
                                              : FaultAction::FlipByte;
      Out.HitIndex = Hit;
      Out.Param = ChaosRng.next();
    }
    return true;
  }
  return false;
}

bool FaultInjector::shouldFail(FaultSite Site) {
  if (!AnyArmed.load(std::memory_order_relaxed))
    return false;
  ArmedFault F;
  return consumeHit(Site, /*BufferSite=*/false, F) &&
         F.Action == FaultAction::Fail;
}

bool FaultInjector::mutate(FaultSite Site, std::string &Bytes) {
  if (!AnyArmed.load(std::memory_order_relaxed))
    return false;
  ArmedFault F;
  if (!consumeHit(Site, /*BufferSite=*/true, F))
    return false;
  switch (F.Action) {
  case FaultAction::Fail:
    // A buffer site cannot refuse the operation; drop everything
    // instead (the severest truncation).
    Bytes.clear();
    return true;
  case FaultAction::TruncateTail:
    if (F.Param < Bytes.size())
      Bytes.resize(F.Param);
    return true;
  case FaultAction::FlipByte:
    if (!Bytes.empty())
      Bytes[F.Param % Bytes.size()] =
          static_cast<char>(Bytes[F.Param % Bytes.size()] ^ 0xFF);
    return true;
  }
  return false;
}

uint64_t FaultInjector::hitCount(FaultSite Site) const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Hits[static_cast<unsigned>(Site)];
}
