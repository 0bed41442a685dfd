// Command-line / environment knobs shared by the bench binaries.
//
// Every figure bench accepts:
//   --paper-scale      full Section 8.1 topology and flow counts (slow)
//   --flows=N          override the flow count
//   --seed=S           RNG seed
//   --loads=a,b,c      subset of load points (fig12)
//   --csv              emit CSV instead of aligned tables
//   --threads=N        sweep worker threads (0 = one per core)
//   --json=PATH        dump sweep results as JSON (benches that sweep
//                      ExperimentConfig points)
// plus AMRT_BENCH_SCALE (a float multiplier on flow counts) and
// AMRT_SWEEP_THREADS from the environment, so CI can shrink everything
// uniformly. --help prints the usage to stdout and exits 0; a malformed
// value prints the flag and the value to stderr and exits 2. Unknown flags
// are ignored.
#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <string>
#include <system_error>
#include <vector>

namespace amrt::harness {

// The whole of `text` as a T (std::from_chars), or nullopt when it is empty,
// malformed, has trailing characters or is out of T's range.
template <class T>
[[nodiscard]] std::optional<T> parse_whole(const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

struct BenchOptions {
  bool paper_scale = false;
  bool csv = false;
  std::optional<std::size_t> flows;
  std::uint64_t seed = 1;
  std::vector<double> loads;   // empty = bench default
  double scale = 1.0;          // from AMRT_BENCH_SCALE
  unsigned threads = 0;        // sweep workers; 0 = one per core
  std::string json_path;       // empty = no JSON export

  // Applies `scale` to a default count, with a sane floor.
  [[nodiscard]] std::size_t scaled(std::size_t base) const;
};

[[nodiscard]] BenchOptions parse_bench_options(int argc, char** argv);

}  // namespace amrt::harness
