//===- profile/ProfileIO.h - Profile (de)serialization ---------*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Profile (de)serialization. The online profiler writes one profile
/// file per thread (paper Sec. 5.1); the offline analyzer reads them
/// back and merges. Two format versions are readable:
///
///  - v1: legacy line-oriented text, EOF-terminated, no integrity
///    trailer (read for backward compatibility: the recorded fixtures
///    are v1; written only by profileToStringV1).
///  - v3 (the writer's format): a magic line, then a compact binary
///    section layout with a checksummed header built for ingest
///    throughput:
///
///      structslim-profile v3\n
///      u32 section-count (5)                      \  fixed-size binary
///      5 x { u64 bytes, u64 records, u32 crc32 }   } header, little
///      u32 header-crc32                           /  endian
///      payload: meta | strtab | object | stream | cct
///      end v3\n
///
///    The string table deduplicates object keys/names (length-prefixed,
///    first-use order); object and stream records are varint-encoded
///    with delta compression for the near-sorted fields (IPs and
///    object bases delta against the previous record, addresses
///    against the record's own object base); CCT nodes delta their
///    parent ids and IPs. Because every section's byte size is in the
///    header, a reader slices one contiguous buffer without scanning —
///    single read, zero-copy section views, CRC-checked before decode.
///
/// Readers dispatch on the magic line. Any other version (the retired
/// v2 text format included) is rejected as unsupported; torn,
/// truncated, or bit-flipped v3 shards are rejected with a descriptive
/// error rather than merged as silently wrong data.
///
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_PROFILE_PROFILEIO_H
#define STRUCTSLIM_PROFILE_PROFILEIO_H

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

namespace structslim {
namespace profile {

class Profile;
class ObjectKeyInterner;

/// Writes \p P to \p OS in the current format (checksummed binary v3).
void writeProfile(const Profile &P, std::ostream &OS);

/// Serializes to a string in the current format.
std::string profileToString(const Profile &P);

/// Serializes to a string in the legacy v1 text format: the
/// cross-version tests and the fuzzer need v1 shards on demand.
std::string profileToStringV1(const Profile &P);

/// Parses a profile from an in-memory buffer (any supported version,
/// selected by the magic line); std::nullopt on malformed input (the
/// error is described in \p Error when non-null). For v3 this is the
/// fast path: section slices decode in place from \p Data.
///
/// When \p Interner is non-null the decoder interns every object key
/// into it as the keys stream out of the buffer and installs the ids
/// on the returned profile (adoptInternedKeys) — fusing the separate
/// internObjectKeys pass a batched merge would otherwise run. Serial
/// callers only: ObjectKeyInterner is not thread-safe.
std::optional<Profile> profileFromBytes(std::string_view Data,
                                        std::string *Error = nullptr,
                                        ObjectKeyInterner *Interner = nullptr);

/// Parses a profile (current or legacy format, selected by the header
/// line); std::nullopt on malformed input (the error is described in
/// \p Error when non-null).
std::optional<Profile> readProfile(std::istream &IS,
                                   std::string *Error = nullptr);

/// Parses from a string.
std::optional<Profile> profileFromString(const std::string &Text,
                                         std::string *Error = nullptr);

/// Reads a profile shard from \p Path with one whole-file read
/// (support::readWholeFile) and decodes it from that buffer. Failures
/// to open, injected faults (support::FaultSite::ProfileOpenRead), and
/// parse errors all report through \p Error. \p Interner as in
/// profileFromBytes.
std::optional<Profile> readProfileFile(const std::string &Path,
                                       std::string *Error = nullptr,
                                       ObjectKeyInterner *Interner = nullptr);

/// Writes \p P to \p Path. This is the boundary where fault injection
/// applies: support::FaultSite::ProfileOpenWrite can fail the open and
/// support::FaultSite::ProfileWrite can truncate or corrupt the bytes
/// written (simulating a mid-write crash). False on failure, described
/// in \p Error.
bool writeProfileFile(const Profile &P, const std::string &Path,
                      std::string *Error = nullptr);

} // namespace profile
} // namespace structslim

#endif // STRUCTSLIM_PROFILE_PROFILEIO_H
