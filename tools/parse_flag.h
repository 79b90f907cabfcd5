// Whole-argument numeric parsing shared by the command-line tools.
#ifndef FBDETECT_TOOLS_PARSE_FLAG_H_
#define FBDETECT_TOOLS_PARSE_FLAG_H_

#include <charconv>
#include <cstdio>
#include <cstring>
#include <system_error>

namespace fbdetect {

// Numeric flag values must parse in full: "abc" or "12x" is reported as
// "bad value for FLAG" instead of silently reading as 0. A null `value` (the
// flag was last on the command line) was already reported by the caller.
template <typename T>
bool ParseFlag(const char* flag, const char* value, T* out) {
  if (value == nullptr) {
    return false;
  }
  const char* end = value + std::strlen(value);
  const auto [ptr, ec] = std::from_chars(value, end, *out);
  if (ec != std::errc() || ptr != end) {
    std::fprintf(stderr, "bad value for %s: %s\n", flag, value);
    return false;
  }
  return true;
}

}  // namespace fbdetect

#endif  // FBDETECT_TOOLS_PARSE_FLAG_H_
