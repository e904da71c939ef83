//===- support/ParseNumber.h - Strict numeric flag parsing -----*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Whole-string number parsing for command-line flag values. Both
/// parsers reject "", "abc", "1x", leading whitespace, a leading '+'
/// and values that do not fit; on failure \p Out is left untouched.
/// Range checks (a positive scale, a nonzero period) stay with the
/// caller.
///
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_SUPPORT_PARSENUMBER_H
#define STRUCTSLIM_SUPPORT_PARSENUMBER_H

#include <charconv>
#include <cmath>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace structslim {

/// Parses \p Text as a decimal value of the unsigned type T; "-1" and
/// values above T's maximum are rejected.
template <typename T> bool parseUnsigned(std::string_view Text, T &Out) {
  static_assert(std::is_unsigned_v<T>, "parseUnsigned needs an unsigned type");
  const char *End = Text.data() + Text.size();
  T Value = 0;
  auto [Ptr, Ec] = std::from_chars(Text.data(), End, Value);
  if (Ec != std::errc() || Ptr != End)
    return false;
  Out = Value;
  return true;
}

/// Parses \p Text as a finite double: "nan", "inf" and out-of-range
/// values such as "1e999" are rejected.
inline bool parseDouble(std::string_view Text, double &Out) {
  const char *End = Text.data() + Text.size();
  double Value = 0;
  auto [Ptr, Ec] = std::from_chars(Text.data(), End, Value);
  if (Ec != std::errc() || Ptr != End || !std::isfinite(Value))
    return false;
  Out = Value;
  return true;
}

} // namespace structslim

#endif // STRUCTSLIM_SUPPORT_PARSENUMBER_H
