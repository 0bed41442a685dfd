// Warnings on slow paths (setup, experiment summaries), to stderr.
#pragma once

namespace amrt::sim::trace {

void warn(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace amrt::sim::trace

#define AMRT_WARN(...) ::amrt::sim::trace::warn(__VA_ARGS__)
