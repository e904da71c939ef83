//===- support/ReadFile.h - Whole-file reads --------------------*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One buffered read of a whole file, the way profile shards are
/// ingested: the v3 decoder then slices sections straight out of the
/// returned buffer.
///
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_SUPPORT_READFILE_H
#define STRUCTSLIM_SUPPORT_READFILE_H

#include <optional>
#include <string>

namespace structslim {
namespace support {

/// The exact bytes of the file at \p Path, or nullopt when it cannot
/// be opened or read.
std::optional<std::string> readWholeFile(const std::string &Path);

} // namespace support
} // namespace structslim

#endif // STRUCTSLIM_SUPPORT_READFILE_H
