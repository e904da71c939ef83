//===- profile/ProfileIO.cpp ----------------------------------*- C++ -*-===//

#include "profile/ProfileIO.h"

#include "profile/Profile.h"
#include "support/Checksum.h"
#include "support/FaultInjection.h"
#include "support/MappedFile.h"
#include "support/VarInt.h"

#include <cassert>
#include <charconv>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <vector>

using namespace structslim;
using namespace structslim::profile;

static constexpr const char *MagicV1 = "structslim-profile v1";
static constexpr const char *MagicV2 = "structslim-profile v2";
static constexpr const char *MagicV3 = "structslim-profile v3";
static constexpr const char *EndMarker = "end v2";
static constexpr const char *EndMarkerV3 = "end v3\n";

// The four checksummed sections of the text formats, in file order.
namespace {
enum Section : unsigned { SecMeta = 0, SecObject, SecStream, SecCct, NumSections };
} // namespace
static constexpr const char *SectionNames[NumSections] = {"meta", "object",
                                                          "stream", "cct"};

// The sections of the binary v3 layout, in payload order. The first
// five are always present; "rsvr" (bounded-memory sampling metadata) is
// written only when a profile carries reservoir/governor data, so
// reservoir-free profiles keep the original five-section byte layout —
// the schema-additive contract, mirroring the meta trailing-varint
// extensions.
namespace {
enum SectionV3 : unsigned {
  V3Meta = 0,
  V3Strtab,
  V3Object,
  V3Stream,
  V3Cct,
  V3Rsvr,
  NumV3Sections
};
} // namespace
static constexpr unsigned NumV3SectionsBase = V3Rsvr;
static constexpr const char *V3SectionNames[NumV3Sections] = {
    "meta", "strtab", "object", "stream", "cct", "rsvr"};

/// Bytes of the fixed binary header after the v3 magic line: a section
/// count, per-section {bytes, records, crc32}, and a CRC over all of
/// the preceding header bytes. The header size depends on the section
/// count, which is why the reader decodes the count before anything
/// else.
static constexpr size_t V3SectionEntryBytes = 8 + 8 + 4;
static constexpr size_t v3HeaderBytes(unsigned Sections) {
  return 4 + Sections * V3SectionEntryBytes + 4;
}

// Whitespace-delimited fields cannot hold empty strings; "-" stands in
// for an empty name/key on disk (text formats only — v3's
// length-prefixed string table needs no such hack).
static std::string encodeName(const std::string &Name) {
  return Name.empty() ? "-" : Name;
}
static std::string decodeName(const std::string &Name) {
  return Name == "-" ? "" : Name;
}

//===----------------------------------------------------------------------===//
// Writing: shared text sections (v1 records, v2 adds the trailer)
//===----------------------------------------------------------------------===//
// One reserve+append pass into a single buffer. The dump cost lands in
// the paper's Fig. 4/5 overhead numbers, so no per-section
// ostringstream churn; the byte stream is identical to the streaming
// writer's (the fuzz test's re-serialization contract enforces that).

namespace {
/// Decimal appenders over std::to_chars (all record fields are
/// integers; LoopId is signed, -1 meaning "not in a loop").
inline void appendDec(std::string &Out, uint64_t V) {
  char Buf[20];
  char *End = std::to_chars(Buf, Buf + sizeof(Buf), V).ptr;
  Out.append(Buf, End);
}
inline void appendDecSigned(std::string &Out, int64_t V) {
  char Buf[20];
  char *End = std::to_chars(Buf, Buf + sizeof(Buf), V).ptr;
  Out.append(Buf, End);
}
} // namespace

static void appendMeta(std::string &Out, const Profile &P) {
  Out += "meta ";
  appendDec(Out, P.ThreadId);
  Out += ' ';
  appendDec(Out, P.SamplePeriod);
  Out += ' ';
  appendDec(Out, P.TotalSamples);
  Out += ' ';
  appendDec(Out, P.TotalLatency);
  Out += ' ';
  appendDec(Out, P.UnattributedLatency);
  Out += ' ';
  appendDec(Out, P.Instructions);
  Out += ' ';
  appendDec(Out, P.MemoryAccesses);
  Out += ' ';
  appendDec(Out, P.Cycles);
  Out += '\n';
}

static void appendObjects(std::string &Out, const Profile &P) {
  for (const ObjectAgg &O : P.Objects) {
    Out += "object ";
    Out += encodeName(O.Key);
    Out += ' ';
    Out += encodeName(O.Name);
    Out += ' ';
    appendDec(Out, O.Start);
    Out += ' ';
    appendDec(Out, O.Size);
    Out += ' ';
    appendDec(Out, O.SampleCount);
    Out += ' ';
    appendDec(Out, O.LatencySum);
    Out += '\n';
  }
}

static void appendStreams(std::string &Out, const Profile &P) {
  for (const StreamRecord &S : P.Streams) {
    Out += "stream ";
    appendDec(Out, S.Ip);
    Out += ' ';
    appendDec(Out, S.ObjectIndex);
    Out += ' ';
    appendDecSigned(Out, S.LoopId);
    Out += ' ';
    appendDec(Out, S.Line);
    Out += ' ';
    appendDec(Out, S.AccessSize);
    Out += ' ';
    appendDec(Out, S.SampleCount);
    Out += ' ';
    appendDec(Out, S.LatencySum);
    Out += ' ';
    appendDec(Out, S.UniqueAddrCount);
    Out += ' ';
    appendDec(Out, S.StrideGcd);
    Out += ' ';
    appendDec(Out, S.RepAddr);
    Out += ' ';
    appendDec(Out, S.LastAddr);
    Out += ' ';
    appendDec(Out, S.ObjectStart);
    for (uint64_t L : S.LevelSamples) {
      Out += ' ';
      appendDec(Out, L);
    }
    Out += ' ';
    appendDec(Out, S.TlbMissSamples);
    Out += '\n';
  }
}

static std::string profileToStringV1(const Profile &P) {
  std::string Out;
  Out.reserve(128 + 96 * (1 + P.Objects.size() + P.Streams.size() +
                          P.Contexts.size()));
  Out += MagicV1;
  Out += '\n';
  appendMeta(Out, P);
  appendObjects(Out, P);
  appendStreams(Out, P);
  P.Contexts.append(Out);
  return Out;
}

static std::string profileToStringV2(const Profile &P) {
  std::string Out;
  Out.reserve(128 + 96 * (1 + P.Objects.size() + P.Streams.size() +
                          P.Contexts.size()));
  Out += MagicV2;
  Out += '\n';

  // Section bodies back to back, with their boundaries recorded so the
  // trailer can CRC each body in place.
  size_t Bounds[NumSections + 1];
  Bounds[0] = Out.size();
  appendMeta(Out, P);
  Bounds[1] = Out.size();
  appendObjects(Out, P);
  Bounds[2] = Out.size();
  appendStreams(Out, P);
  Bounds[3] = Out.size();
  P.Contexts.append(Out);
  Bounds[4] = Out.size();

  const size_t Counts[NumSections] = {1, P.Objects.size(), P.Streams.size(),
                                      P.Contexts.size() - 1};
  for (unsigned S = 0; S != NumSections; ++S) {
    Out += "crc ";
    Out += SectionNames[S];
    Out += ' ';
    appendDec(Out, Counts[S]);
    Out += ' ';
    Out += support::crc32Hex(
        support::crc32(Out.data() + Bounds[S], Bounds[S + 1] - Bounds[S]));
    Out += '\n';
  }
  Out += EndMarker;
  Out += '\n';
  return Out;
}

//===----------------------------------------------------------------------===//
// Writing: binary v3
//===----------------------------------------------------------------------===//

namespace {
inline void appendLE32(std::string &Out, uint32_t V) {
  for (unsigned I = 0; I != 4; ++I)
    Out += static_cast<char>((V >> (8 * I)) & 0xff);
}
inline void appendLE64(std::string &Out, uint64_t V) {
  for (unsigned I = 0; I != 8; ++I)
    Out += static_cast<char>((V >> (8 * I)) & 0xff);
}
inline uint32_t readLE32(const char *P) {
  uint32_t V = 0;
  for (unsigned I = 0; I != 4; ++I)
    V |= static_cast<uint32_t>(static_cast<uint8_t>(P[I])) << (8 * I);
  return V;
}
inline uint64_t readLE64(const char *P) {
  uint64_t V = 0;
  for (unsigned I = 0; I != 8; ++I)
    V |= static_cast<uint64_t>(static_cast<uint8_t>(P[I])) << (8 * I);
  return V;
}

/// Signed delta between two unsigned values under wrapping arithmetic;
/// the decoder adds it back with the same wrap, so every (A, B) pair
/// round-trips exactly.
inline int64_t wrapDelta(uint64_t A, uint64_t B) {
  return static_cast<int64_t>(A - B);
}
} // namespace

static std::string profileToStringV3(const Profile &P) {
  using support::appendSVarint;
  using support::appendVarint;

  // String table: keys and names in first-use order, deduplicated.
  // string_view keys into the profile's own strings — stable for the
  // duration of serialization.
  std::unordered_map<std::string_view, uint32_t> StringIds;
  std::vector<std::string_view> Strings;
  auto InternString = [&](const std::string &S) {
    auto [It, Inserted] = StringIds.try_emplace(
        std::string_view(S), static_cast<uint32_t>(Strings.size()));
    if (Inserted)
      Strings.push_back(S);
    return It->second;
  };

  std::string Payload[NumV3Sections];
  uint64_t Counts[NumV3Sections] = {};

  // meta: one record of eight varints.
  {
    std::string &Out = Payload[V3Meta];
    appendVarint(Out, P.ThreadId);
    appendVarint(Out, P.SamplePeriod);
    appendVarint(Out, P.TotalSamples);
    appendVarint(Out, P.TotalLatency);
    appendVarint(Out, P.UnattributedLatency);
    appendVarint(Out, P.Instructions);
    appendVarint(Out, P.MemoryAccesses);
    appendVarint(Out, P.Cycles);
    Counts[V3Meta] = 1;
  }

  // object: string ids + varint aggregates (interning populates the
  // string table as a side effect, so it serializes before strtab's
  // payload is assembled but after its contents are final).
  {
    std::string &Out = Payload[V3Object];
    Out.reserve(12 * P.Objects.size());
    for (const ObjectAgg &O : P.Objects) {
      appendVarint(Out, InternString(O.Key));
      appendVarint(Out, InternString(O.Name));
      appendVarint(Out, O.Start);
      appendVarint(Out, O.Size);
      appendVarint(Out, O.SampleCount);
      appendVarint(Out, O.LatencySum);
    }
    Counts[V3Object] = P.Objects.size();
  }

  // strtab: length-prefixed bytes, id order.
  {
    std::string &Out = Payload[V3Strtab];
    for (std::string_view S : Strings) {
      appendVarint(Out, S.size());
      Out.append(S.data(), S.size());
    }
    Counts[V3Strtab] = Strings.size();
  }

  // stream: delta + zigzag over the near-sorted fields. IPs ascend
  // (streams are created in code order), object bases repeat in runs,
  // and addresses cluster around their object base, so the deltas are
  // small and the varints short.
  {
    std::string &Out = Payload[V3Stream];
    Out.reserve(24 * P.Streams.size());
    uint64_t PrevIp = 0, PrevObjectStart = 0;
    for (const StreamRecord &S : P.Streams) {
      appendSVarint(Out, wrapDelta(S.Ip, PrevIp));
      appendVarint(Out, S.ObjectIndex);
      appendSVarint(Out, S.LoopId);
      appendVarint(Out, S.Line);
      appendVarint(Out, S.AccessSize);
      appendVarint(Out, S.SampleCount);
      appendVarint(Out, S.LatencySum);
      appendVarint(Out, S.UniqueAddrCount);
      appendVarint(Out, S.StrideGcd);
      appendSVarint(Out, wrapDelta(S.ObjectStart, PrevObjectStart));
      appendSVarint(Out, wrapDelta(S.RepAddr, S.ObjectStart));
      appendSVarint(Out, wrapDelta(S.LastAddr, S.RepAddr));
      for (uint64_t L : S.LevelSamples)
        appendVarint(Out, L);
      appendVarint(Out, S.TlbMissSamples);
      PrevIp = S.Ip;
      PrevObjectStart = S.ObjectStart;
    }
    Counts[V3Stream] = P.Streams.size();
  }

  // cct: per non-root node, parent-id and IP deltas against the
  // previous node (ids are appended in creation order, so parents
  // cluster), plus the two metrics.
  {
    std::string &Out = Payload[V3Cct];
    Out.reserve(8 * P.Contexts.size());
    uint64_t PrevParent = 0, PrevIp = 0;
    for (uint32_t I = 1; I < P.Contexts.size(); ++I) {
      const CallContextTree::Node &N = P.Contexts.node(I);
      appendSVarint(Out, wrapDelta(N.Parent, PrevParent));
      appendSVarint(Out, wrapDelta(N.Ip, PrevIp));
      appendVarint(Out, N.LatencySum);
      appendVarint(Out, N.SampleCount);
      PrevParent = N.Parent;
      PrevIp = N.Ip;
    }
    Counts[V3Cct] = P.Contexts.size() - 1;
  }

  // rsvr: bounded-memory sampling metadata, present only when any of
  // it is nonzero. One profile-level record (totals + governor
  // trajectory), then one {offered, offeredWeight} pair per stream, in
  // stream order.
  bool HasRsvr =
      (P.ReservoirCapacity | P.ReservoirSeen | P.ReservoirEvictions |
       P.ReservoirWeightSeen | P.ReservoirWeightKept | P.ReservoirPeakBytes |
       P.SampleBudget) != 0 ||
      !P.EffectivePeriods.empty();
  if (!HasRsvr)
    for (const StreamRecord &S : P.Streams)
      if ((S.OfferedSamples | S.OfferedWeight) != 0) {
        HasRsvr = true;
        break;
      }
  if (HasRsvr) {
    std::string &Out = Payload[V3Rsvr];
    appendVarint(Out, P.ReservoirCapacity);
    appendVarint(Out, P.ReservoirSeen);
    appendVarint(Out, P.ReservoirEvictions);
    appendVarint(Out, P.ReservoirWeightSeen);
    appendVarint(Out, P.ReservoirWeightKept);
    appendVarint(Out, P.ReservoirPeakBytes);
    appendVarint(Out, P.SampleBudget);
    appendVarint(Out, P.EffectivePeriods.size());
    for (uint64_t E : P.EffectivePeriods)
      appendVarint(Out, E);
    for (const StreamRecord &S : P.Streams) {
      appendVarint(Out, S.OfferedSamples);
      appendVarint(Out, S.OfferedWeight);
    }
    Counts[V3Rsvr] = 1 + P.Streams.size();
  }
  unsigned SectionsOut = HasRsvr ? NumV3Sections : NumV3SectionsBase;

  // Assemble: magic line, fixed header, payloads, end marker.
  size_t PayloadBytes = 0;
  for (const std::string &S : Payload)
    PayloadBytes += S.size();
  std::string Out;
  Out.reserve(32 + v3HeaderBytes(SectionsOut) + PayloadBytes + 8);
  Out += MagicV3;
  Out += '\n';
  size_t HeaderStart = Out.size();
  appendLE32(Out, SectionsOut);
  for (unsigned S = 0; S != SectionsOut; ++S) {
    appendLE64(Out, Payload[S].size());
    appendLE64(Out, Counts[S]);
    appendLE32(Out, support::crc32(Payload[S].data(), Payload[S].size()));
  }
  appendLE32(Out, support::crc32(Out.data() + HeaderStart,
                                 Out.size() - HeaderStart));
  for (const std::string &S : Payload)
    Out += S;
  Out += EndMarkerV3;
  return Out;
}

std::string structslim::profile::profileToString(const Profile &P,
                                                 unsigned Version) {
  switch (Version) {
  case 1:
    return profileToStringV1(P);
  case 2:
    return profileToStringV2(P);
  case 3:
    return profileToStringV3(P);
  default:
    assert(false && "unsupported profile format version");
    return profileToStringV3(P);
  }
}

std::string structslim::profile::profileToString(const Profile &P) {
  return profileToString(P, ProfileFormatVersion);
}

void structslim::profile::writeProfile(const Profile &P, std::ostream &OS) {
  std::string Out = profileToString(P);
  OS.write(Out.data(), static_cast<std::streamsize>(Out.size()));
}

//===----------------------------------------------------------------------===//
// Reading: shared text-record parser (v1 and v2)
//===----------------------------------------------------------------------===//

static std::optional<Profile> failParse(std::string *Error,
                                        const std::string &Message) {
  if (Error)
    *Error = Message;
  return std::nullopt;
}

/// Parses one record line whose kind token was already extracted.
/// Returns false with \p Message set on malformed content; \p Section
/// reports which checksummed section the record belongs to.
static bool parseRecord(const std::string &Kind, std::istringstream &LS,
                        Profile &P, bool &SawMeta, unsigned &Section,
                        std::string &Message) {
  if (Kind == "meta") {
    Section = SecMeta;
    LS >> P.ThreadId >> P.SamplePeriod >> P.TotalSamples >> P.TotalLatency >>
        P.UnattributedLatency >> P.Instructions >> P.MemoryAccesses >>
        P.Cycles;
    if (!LS) {
      Message = "malformed meta line";
      return false;
    }
    SawMeta = true;
  } else if (Kind == "object") {
    Section = SecObject;
    ObjectAgg O;
    LS >> O.Key >> O.Name >> O.Start >> O.Size >> O.SampleCount >>
        O.LatencySum;
    if (!LS) {
      Message = "malformed object line";
      return false;
    }
    O.Key = decodeName(O.Key);
    O.Name = decodeName(O.Name);
    P.Objects.push_back(std::move(O));
  } else if (Kind == "stream") {
    Section = SecStream;
    StreamRecord S;
    unsigned AccessSize = 0;
    LS >> S.Ip >> S.ObjectIndex >> S.LoopId >> S.Line >> AccessSize >>
        S.SampleCount >> S.LatencySum >> S.UniqueAddrCount >> S.StrideGcd >>
        S.RepAddr >> S.LastAddr >> S.ObjectStart;
    for (uint64_t &L : S.LevelSamples)
      LS >> L;
    LS >> S.TlbMissSamples;
    if (!LS) {
      Message = "malformed stream line";
      return false;
    }
    S.AccessSize = static_cast<uint8_t>(AccessSize);
    if (S.ObjectIndex >= P.Objects.size()) {
      Message = "stream references unknown object";
      return false;
    }
    P.Streams.push_back(std::move(S));
  } else if (Kind == "cctnode") {
    Section = SecCct;
    uint32_t Parent = 0;
    uint64_t Ip = 0, Latency = 0, Samples = 0;
    LS >> Parent >> Ip >> Latency >> Samples;
    if (!LS) {
      Message = "malformed cctnode line";
      return false;
    }
    if (!P.Contexts.addSerializedNode(Parent, Ip, Latency, Samples)) {
      Message = "cctnode references unknown parent";
      return false;
    }
  } else {
    Message = "unknown record kind '" + Kind + "'";
    return false;
  }
  return true;
}

/// The legacy unversioned reader: records until EOF, no integrity
/// trailer. Kept so profiles recorded before the versioned format
/// still load (BOLT-style backward compatibility).
static std::optional<Profile> readProfileV1(std::istream &IS,
                                            std::string *Error) {
  Profile P;
  bool SawMeta = false;
  std::string Line;
  size_t LineNo = 1;
  while (std::getline(IS, Line)) {
    ++LineNo;
    if (Line.empty())
      continue;
    std::istringstream LS(Line);
    std::string Kind;
    LS >> Kind;
    unsigned Section = 0;
    std::string Message;
    if (!parseRecord(Kind, LS, P, SawMeta, Section, Message))
      return failParse(Error,
                       "line " + std::to_string(LineNo) + ": " + Message);
  }
  if (!SawMeta)
    return failParse(Error, "profile has no meta record");
  P.markUnindexed();
  return P;
}

/// The versioned text reader: records, then one "crc <section> <count>
/// <crc32hex>" line per section, then the end marker. Content after a
/// clean trailer, a checksum/count mismatch, or a missing end marker
/// (truncation) all reject the shard.
static std::optional<Profile> readProfileV2(std::istream &IS,
                                            std::string *Error) {
  Profile P;
  bool SawMeta = false;
  uint32_t SectionCrc[NumSections] = {};
  uint64_t SectionCount[NumSections] = {};
  bool SectionVerified[NumSections] = {};
  bool InTrailer = false;
  bool SawEnd = false;
  std::string Line;
  size_t LineNo = 1;

  auto Fail = [&](const std::string &Message) {
    return failParse(Error, "line " + std::to_string(LineNo) + ": " + Message);
  };

  while (std::getline(IS, Line)) {
    ++LineNo;
    if (Line.empty())
      continue;
    if (SawEnd)
      return Fail("trailing data after end marker");
    std::istringstream LS(Line);
    std::string Kind;
    LS >> Kind;
    if (Kind == "crc") {
      InTrailer = true;
      std::string Name, Hex;
      uint64_t Count = 0;
      LS >> Name >> Count >> Hex;
      if (!LS)
        return Fail("malformed crc line");
      unsigned Section = NumSections;
      for (unsigned S = 0; S != NumSections; ++S)
        if (Name == SectionNames[S])
          Section = S;
      if (Section == NumSections)
        return Fail("crc line names unknown section '" + Name + "'");
      if (SectionVerified[Section])
        return Fail("duplicate crc line for section '" + Name + "'");
      uint32_t Expected = 0;
      if (!support::parseCrc32Hex(Hex, Expected))
        return Fail("malformed crc value '" + Hex + "'");
      if (Count != SectionCount[Section])
        return Fail("section '" + Name + "' record count mismatch (header " +
                    std::to_string(Count) + ", found " +
                    std::to_string(SectionCount[Section]) + ")");
      if (Expected != SectionCrc[Section])
        return Fail("section '" + Name + "' checksum mismatch");
      SectionVerified[Section] = true;
    } else if (Line == EndMarker) {
      for (unsigned S = 0; S != NumSections; ++S)
        if (!SectionVerified[S])
          return Fail("incomplete checksum trailer (section '" +
                      std::string(SectionNames[S]) + "' unverified)");
      SawEnd = true;
    } else {
      if (InTrailer)
        return Fail("record after checksum trailer");
      unsigned Section = 0;
      std::string Message;
      if (!parseRecord(Kind, LS, P, SawMeta, Section, Message))
        return Fail(Message);
      SectionCrc[Section] =
          support::crc32(Line.data(), Line.size(), SectionCrc[Section]);
      SectionCrc[Section] = support::crc32("\n", 1, SectionCrc[Section]);
      ++SectionCount[Section];
    }
  }
  if (!SawEnd)
    return failParse(Error, "truncated profile (missing end marker)");
  if (!SawMeta)
    return failParse(Error, "profile has no meta record");
  P.markUnindexed();
  return P;
}

//===----------------------------------------------------------------------===//
// Reading: binary v3
//===----------------------------------------------------------------------===//

namespace {
/// The decoded fixed header: a byte-size/record-count/CRC triple per
/// section.
struct V3Header {
  uint64_t Bytes[NumV3Sections] = {};
  uint64_t Records[NumV3Sections] = {};
  uint32_t Crc[NumV3Sections] = {};
};
} // namespace

static std::optional<Profile> readProfileV3(std::string_view Data,
                                            std::string *Error,
                                            ObjectKeyInterner *Interner) {
  // Data starts after the magic line. The section count comes first
  // (it fixes the header size: five base sections, optionally the
  // reservoir section); then the header's own CRC gates every size
  // field, so all later arithmetic works on trusted values.
  size_t EndLen = sizeof(EndMarkerV3) - 1;
  if (Data.size() < 4)
    return failParse(Error, "truncated profile (missing end marker)");
  const char *H = Data.data();
  uint32_t SectionCount = readLE32(H);
  if (SectionCount < NumV3SectionsBase || SectionCount > NumV3Sections)
    return failParse(Error, "malformed v3 section header");
  size_t HeaderBytes = v3HeaderBytes(SectionCount);
  if (Data.size() < HeaderBytes + EndLen)
    return failParse(Error, "truncated profile (missing end marker)");
  uint32_t StoredHeaderCrc = readLE32(H + HeaderBytes - 4);
  if (support::crc32(H, HeaderBytes - 4) != StoredHeaderCrc)
    return failParse(Error, "header checksum mismatch");
  V3Header Header;
  uint64_t PayloadBytes = 0;
  for (unsigned S = 0; S != SectionCount; ++S) {
    const char *E = H + 4 + S * V3SectionEntryBytes;
    Header.Bytes[S] = readLE64(E);
    Header.Records[S] = readLE64(E + 8);
    Header.Crc[S] = readLE32(E + 16);
    PayloadBytes += Header.Bytes[S];
  }

  uint64_t Expected = HeaderBytes + PayloadBytes + EndLen;
  if (Data.size() < Expected || PayloadBytes > Data.size())
    return failParse(Error, "truncated profile (missing end marker)");
  if (Data.size() > Expected)
    return failParse(Error, "trailing data after end marker");
  if (Data.substr(Data.size() - EndLen) != EndMarkerV3)
    return failParse(Error, "truncated profile (missing end marker)");

  // Slice and checksum every section before decoding anything. Absent
  // optional sections keep empty slices and zero record counts.
  std::string_view Slice[NumV3Sections];
  size_t Offset = HeaderBytes;
  for (unsigned S = 0; S != SectionCount; ++S) {
    Slice[S] = Data.substr(Offset, Header.Bytes[S]);
    Offset += Header.Bytes[S];
    if (support::crc32(Slice[S].data(), Slice[S].size()) != Header.Crc[S])
      return failParse(Error, "section '" + std::string(V3SectionNames[S]) +
                                  "' checksum mismatch");
  }

  auto SectionFail = [&](unsigned S, const char *What) {
    return failParse(Error, "section '" + std::string(V3SectionNames[S]) +
                                "' " + What);
  };

  Profile P;

  // meta: exactly one record.
  if (Header.Records[V3Meta] != 1)
    return failParse(Error, "profile has no meta record");
  {
    support::VarintReader R(Slice[V3Meta].data(),
                            Slice[V3Meta].data() + Slice[V3Meta].size());
    uint64_t ThreadId = R.readVarint();
    P.SamplePeriod = R.readVarint();
    P.TotalSamples = R.readVarint();
    P.TotalLatency = R.readVarint();
    P.UnattributedLatency = R.readVarint();
    P.Instructions = R.readVarint();
    P.MemoryAccesses = R.readVarint();
    P.Cycles = R.readVarint();
    if (R.ok() && !R.atEnd()) {
      // Shards from older writers carry three (eleven fields) or four
      // (twelve fields) retired pipeline counters after the base
      // fields; skip them so those shards keep loading.
      for (int I = 0; I != 3; ++I)
        R.readVarint();
      if (R.ok() && !R.atEnd())
        R.readVarint();
    }
    if (!R.ok() || ThreadId > 0xffffffffull)
      return SectionFail(V3Meta, "record malformed");
    if (!R.atEnd())
      return SectionFail(V3Meta, "record count mismatch");
    P.ThreadId = static_cast<uint32_t>(ThreadId);
  }

  // strtab: length-prefixed strings.
  std::vector<std::string_view> Strings;
  {
    Strings.reserve(Header.Records[V3Strtab]);
    support::VarintReader R(Slice[V3Strtab].data(),
                            Slice[V3Strtab].data() + Slice[V3Strtab].size());
    for (uint64_t I = 0; I != Header.Records[V3Strtab]; ++I) {
      uint64_t Len = R.readVarint();
      if (!R.ok() || Len > R.remaining())
        return SectionFail(V3Strtab, "record malformed");
      const char *Bytes = R.readBytes(Len);
      Strings.push_back(std::string_view(Bytes, Len));
    }
    if (!R.atEnd())
      return SectionFail(V3Strtab, "record count mismatch");
  }

  // object: string ids + aggregates. With an interner, key ids resolve
  // straight from the string-table views (one hash of mapped bytes per
  // object, copied only on first sight across the whole batch).
  std::vector<uint32_t> InternedIds;
  {
    P.Objects.reserve(Header.Records[V3Object]);
    if (Interner)
      InternedIds.reserve(Header.Records[V3Object]);
    support::VarintReader R(Slice[V3Object].data(),
                            Slice[V3Object].data() + Slice[V3Object].size());
    for (uint64_t I = 0; I != Header.Records[V3Object]; ++I) {
      uint64_t KeyId = R.readVarint();
      uint64_t NameId = R.readVarint();
      ObjectAgg O;
      O.Start = R.readVarint();
      O.Size = R.readVarint();
      O.SampleCount = R.readVarint();
      O.LatencySum = R.readVarint();
      if (!R.ok())
        return SectionFail(V3Object, "record malformed");
      if (KeyId >= Strings.size() || NameId >= Strings.size())
        return failParse(Error, "object references unknown string");
      O.Key.assign(Strings[KeyId].data(), Strings[KeyId].size());
      O.Name.assign(Strings[NameId].data(), Strings[NameId].size());
      if (Interner)
        InternedIds.push_back(Interner->idOf(Strings[KeyId]));
      P.Objects.push_back(std::move(O));
    }
    if (!R.atEnd())
      return SectionFail(V3Object, "record count mismatch");
  }

  // stream: undo the delta chain.
  {
    P.Streams.reserve(Header.Records[V3Stream]);
    support::VarintReader R(Slice[V3Stream].data(),
                            Slice[V3Stream].data() + Slice[V3Stream].size());
    uint64_t PrevIp = 0, PrevObjectStart = 0;
    for (uint64_t I = 0; I != Header.Records[V3Stream]; ++I) {
      StreamRecord S;
      S.Ip = PrevIp + static_cast<uint64_t>(R.readSVarint());
      uint64_t ObjectIndex = R.readVarint();
      int64_t LoopId = R.readSVarint();
      uint64_t Line = R.readVarint();
      uint64_t AccessSize = R.readVarint();
      S.SampleCount = R.readVarint();
      S.LatencySum = R.readVarint();
      S.UniqueAddrCount = R.readVarint();
      S.StrideGcd = R.readVarint();
      S.ObjectStart =
          PrevObjectStart + static_cast<uint64_t>(R.readSVarint());
      S.RepAddr = S.ObjectStart + static_cast<uint64_t>(R.readSVarint());
      S.LastAddr = S.RepAddr + static_cast<uint64_t>(R.readSVarint());
      for (uint64_t &L : S.LevelSamples)
        L = R.readVarint();
      S.TlbMissSamples = R.readVarint();
      if (!R.ok() || ObjectIndex > 0xffffffffull || Line > 0xffffffffull ||
          AccessSize > 0xff ||
          LoopId < static_cast<int64_t>(INT32_MIN) ||
          LoopId > static_cast<int64_t>(INT32_MAX))
        return SectionFail(V3Stream, "record malformed");
      S.ObjectIndex = static_cast<uint32_t>(ObjectIndex);
      if (S.ObjectIndex >= P.Objects.size())
        return failParse(Error, "stream references unknown object");
      S.LoopId = static_cast<int32_t>(LoopId);
      S.Line = static_cast<uint32_t>(Line);
      S.AccessSize = static_cast<uint8_t>(AccessSize);
      PrevIp = S.Ip;
      PrevObjectStart = S.ObjectStart;
      P.Streams.push_back(std::move(S));
    }
    if (!R.atEnd())
      return SectionFail(V3Stream, "record count mismatch");
  }

  // cct: parents must precede children, which addSerializedNode checks.
  {
    support::VarintReader R(Slice[V3Cct].data(),
                            Slice[V3Cct].data() + Slice[V3Cct].size());
    uint64_t PrevParent = 0, PrevIp = 0;
    for (uint64_t I = 0; I != Header.Records[V3Cct]; ++I) {
      uint64_t Parent = PrevParent + static_cast<uint64_t>(R.readSVarint());
      uint64_t Ip = PrevIp + static_cast<uint64_t>(R.readSVarint());
      uint64_t Latency = R.readVarint();
      uint64_t Samples = R.readVarint();
      if (!R.ok() || Parent > 0xffffffffull)
        return SectionFail(V3Cct, "record malformed");
      if (!P.Contexts.addSerializedNode(static_cast<uint32_t>(Parent), Ip,
                                        Latency, Samples))
        return failParse(Error, "cctnode references unknown parent");
      PrevParent = Parent;
      PrevIp = Ip;
    }
    if (!R.atEnd())
      return SectionFail(V3Cct, "record count mismatch");
  }

  // rsvr (optional): one profile-level record, then one pair per
  // stream. A five-section file leaves every reservoir field at its
  // zero default.
  if (SectionCount > V3Rsvr) {
    if (Header.Records[V3Rsvr] != 1 + P.Streams.size())
      return SectionFail(V3Rsvr, "record count mismatch");
    support::VarintReader R(Slice[V3Rsvr].data(),
                            Slice[V3Rsvr].data() + Slice[V3Rsvr].size());
    P.ReservoirCapacity = R.readVarint();
    P.ReservoirSeen = R.readVarint();
    P.ReservoirEvictions = R.readVarint();
    P.ReservoirWeightSeen = R.readVarint();
    P.ReservoirWeightKept = R.readVarint();
    P.ReservoirPeakBytes = R.readVarint();
    P.SampleBudget = R.readVarint();
    uint64_t TrajectoryLen = R.readVarint();
    // Each trajectory entry takes at least one payload byte, which
    // bounds the reserve against a crafted length.
    if (!R.ok() || TrajectoryLen > R.remaining())
      return SectionFail(V3Rsvr, "record malformed");
    P.EffectivePeriods.reserve(TrajectoryLen);
    for (uint64_t I = 0; I != TrajectoryLen; ++I)
      P.EffectivePeriods.push_back(R.readVarint());
    for (StreamRecord &S : P.Streams) {
      S.OfferedSamples = R.readVarint();
      S.OfferedWeight = R.readVarint();
    }
    if (!R.ok())
      return SectionFail(V3Rsvr, "record malformed");
    if (!R.atEnd())
      return SectionFail(V3Rsvr, "record count mismatch");
  }

  // Indices rebuild lazily on first lookup; a shard that is only ever
  // a merge source never builds them at all.
  P.markUnindexed();
  if (Interner)
    P.adoptInternedKeys(std::move(InternedIds),
                        static_cast<uint32_t>(Interner->universe()));
  return P;
}

//===----------------------------------------------------------------------===//
// Version dispatch
//===----------------------------------------------------------------------===//

std::optional<Profile>
structslim::profile::profileFromBytes(std::string_view Data,
                                      std::string *Error,
                                      ObjectKeyInterner *Interner) {
  // v3 is framed by its magic line and decoded in place.
  std::string_view MagicLineV3("structslim-profile v3\n");
  if (Data.substr(0, MagicLineV3.size()) == MagicLineV3)
    return readProfileV3(Data.substr(MagicLineV3.size()), Error, Interner);
  if (Data == MagicV3) // Cut off right after the magic, newline lost.
    return failParse(Error, "truncated profile (missing end marker)");
  // The text formats run through the line-oriented readers.
  std::istringstream IS{std::string(Data)};
  std::string Line;
  if (!std::getline(IS, Line))
    return failParse(Error, "missing profile magic header");
  std::optional<Profile> P;
  if (Line == MagicV2)
    P = readProfileV2(IS, Error);
  else if (Line == MagicV1)
    P = readProfileV1(IS, Error);
  else if (Line.rfind("structslim-profile v", 0) == 0)
    return failParse(Error, "unsupported profile format version '" +
                                Line.substr(20) + "'");
  else
    return failParse(Error, "missing profile magic header");
  // The text decoders have no string table to intern from; a separate
  // pass keeps the interner contract uniform across versions.
  if (P && Interner)
    P->internObjectKeys(*Interner);
  return P;
}

std::optional<Profile>
structslim::profile::readProfile(std::istream &IS, std::string *Error) {
  std::ostringstream Buffer;
  Buffer << IS.rdbuf();
  return profileFromBytes(Buffer.str(), Error);
}

std::optional<Profile>
structslim::profile::profileFromString(const std::string &Text,
                                       std::string *Error) {
  return profileFromBytes(Text, Error);
}

//===----------------------------------------------------------------------===//
// File boundary (where faults inject)
//===----------------------------------------------------------------------===//

std::optional<Profile>
structslim::profile::readProfileFile(const std::string &Path,
                                     std::string *Error,
                                     ObjectKeyInterner *Interner) {
  if (support::FaultInjector::instance().shouldFail(
          support::FaultSite::ProfileOpenRead))
    return failParse(Error, "injected open failure");
  // Zero-copy: the v3 decoder slices sections straight out of the
  // mapping (every slice is length-checked against the declared
  // section sizes, so a truncated file rejects cleanly instead of
  // faulting). MappedFile degrades to one buffered read when mapping
  // is unavailable.
  std::string MapError;
  std::optional<support::MappedFile> File =
      support::MappedFile::open(Path, &MapError);
  if (!File)
    return failParse(Error, "cannot open file");
  return profileFromBytes(File->bytes(), Error, Interner);
}

bool structslim::profile::writeProfileFile(const Profile &P,
                                           const std::string &Path,
                                           std::string *Error) {
  support::FaultInjector &Injector = support::FaultInjector::instance();
  if (Injector.shouldFail(support::FaultSite::ProfileOpenWrite)) {
    if (Error)
      *Error = "injected open failure";
    return false;
  }
  std::ofstream Out(Path, std::ios::trunc | std::ios::binary);
  if (!Out) {
    if (Error)
      *Error = "cannot create file";
    return false;
  }
  std::string Bytes = profileToString(P);
  // The injection point modeling a mid-write crash or corrupted media:
  // what lands on disk may be a strict prefix or a bit-flipped copy of
  // what the profiler serialized.
  Injector.mutate(support::FaultSite::ProfileWrite, Bytes);
  Out << Bytes;
  Out.flush();
  if (!Out) {
    if (Error)
      *Error = "write failed";
    return false;
  }
  return true;
}
