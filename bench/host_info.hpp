// Host facts for the macro benchmarks' JSON context, so a committed baseline
// names the machine it came from: logical CPUs, CPU model, compiler, and the
// 1-minute load average when the program started (a shared host's load
// moves wall times).
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

// The first field of /proc/loadavg, or -1 where it cannot be read.
inline double load_average_1m() {
  double load = -1.0;
  if (std::FILE* f = std::fopen("/proc/loadavg", "r")) {
    if (std::fscanf(f, "%lf", &load) != 1) load = -1.0;
    std::fclose(f);
  }
  return load;
}

// Read during static initialization, before main() runs anything.
inline const double kLoadAtStart = load_average_1m();

inline const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "GNU " __VERSION__;
#else
  return "unknown";
#endif
}

// Writes `"nproc": N, "cpu": "...", "compiler": "...", "load1": L`, the
// context fields every benchmark report shares (no surrounding braces or
// separators).
inline void print_host_fields(std::FILE* out) {
  std::fprintf(out, "\"nproc\": %u, \"cpu\": \"%s\", \"compiler\": \"%s\", \"load1\": %.2f",
               std::thread::hardware_concurrency(), cpu_model().c_str(), compiler(), kLoadAtStart);
}

}  // namespace amrt::bench
