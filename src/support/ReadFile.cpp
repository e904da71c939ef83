//===- support/ReadFile.cpp -----------------------------------*- C++ -*-===//

#include "support/ReadFile.h"

#include <fstream>
#include <sstream>

using namespace structslim;

std::optional<std::string> support::readWholeFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return std::nullopt;
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  if (In.bad())
    return std::nullopt;
  return std::move(Buffer).str();
}
