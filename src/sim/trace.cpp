#include "sim/trace.hpp"

#include <cstdarg>
#include <cstdio>

namespace amrt::sim::trace {

void warn(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  std::fputc('\n', stderr);
  va_end(args);
}

}  // namespace amrt::sim::trace
