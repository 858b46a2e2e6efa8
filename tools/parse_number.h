#ifndef EPIDEMIC_TOOLS_PARSE_NUMBER_H_
#define EPIDEMIC_TOOLS_PARSE_NUMBER_H_

// Numeric flag parsing shared by epidemicd, epidemic_cli and epicheck.
// Header-only and included by relative path, so a tool that is compiled
// on its own (with only src/ on the include path) still finds it.

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace epidemic::tools {

/// Parses all of `text` as a base-10 number in [min, max] into *out.
/// Prints an error naming `what` and returns false on an empty string, a
/// sign, a stray character or a value out of range, so a mistyped flag
/// stops the tool instead of running it with some other number.
inline bool ParseNumber(const char* what, const char* text, long min,
                        long max, long* out) {
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (*text < '0' || *text > '9' || errno != 0 || *end != '\0' || v < min ||
      v > max) {
    std::fprintf(stderr, "bad %s '%s' (want a number in %ld-%ld)\n", what,
                 text, min, max);
    return false;
  }
  *out = v;
  return true;
}

}  // namespace epidemic::tools

#endif  // EPIDEMIC_TOOLS_PARSE_NUMBER_H_
