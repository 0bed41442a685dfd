// Host facts for the macro benchmarks' JSON context, so a committed baseline
// names the machine it came from: logical CPUs, CPU model and compiler.
#pragma once

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

namespace amrt::bench {

// The first "model name" line of /proc/cpuinfo, or "unknown".
inline std::string cpu_model() {
  std::ifstream in{"/proc/cpuinfo"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto start = line.find_first_not_of(" \t", line.find(':') + 1);
    if (start != std::string::npos) return line.substr(start);
  }
  return "unknown";
}

inline const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "GNU " __VERSION__;
#else
  return "unknown";
#endif
}

// Writes `"nproc": N, "cpu": "...", "compiler": "..."`, the context fields
// every benchmark report shares (no surrounding braces or separators).
inline void print_host_fields(std::FILE* out) {
  std::fprintf(out, "\"nproc\": %u, \"cpu\": \"%s\", \"compiler\": \"%s\"",
               std::thread::hardware_concurrency(), cpu_model().c_str(), compiler());
}

}  // namespace amrt::bench
