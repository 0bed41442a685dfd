#include "harness/options.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace amrt::harness {

namespace {

constexpr const char* kUsage =
    "options: --paper-scale --csv --flows=N --seed=S --loads=a,b,c --scale=X --threads=N "
    "--json=PATH\n"
    "env: AMRT_BENCH_SCALE=X (flow-count multiplier), AMRT_SWEEP_THREADS=N\n";

// The whole of `text` as a T, or a usage error naming `flag` (exit 2).
template <class T>
T parse_number(const char* flag, const std::string& text) {
  if (const std::optional<T> value = parse_whole<T>(text)) return *value;
  std::fprintf(stderr, "%s: malformed value '%s'\n%s", flag, text.c_str(), kUsage);
  std::exit(2);
}

std::vector<double> parse_list(const std::string& s) {
  std::vector<double> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t next = s.find(',', pos);
    if (next == std::string::npos) next = s.size();
    out.push_back(parse_number<double>("--loads", s.substr(pos, next - pos)));
    pos = next + 1;
  }
  return out;
}

}  // namespace

std::size_t BenchOptions::scaled(std::size_t base) const {
  if (flows) return *flows;
  const auto n = static_cast<std::size_t>(static_cast<double>(base) * scale);
  return std::max<std::size_t>(n, 20);
}

BenchOptions parse_bench_options(int argc, char** argv) {
  BenchOptions opts;
  if (const char* env = std::getenv("AMRT_BENCH_SCALE"); env != nullptr) {
    opts.scale = parse_number<double>("AMRT_BENCH_SCALE", env);
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const std::string& prefix) -> std::optional<std::string> {
      if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
      return std::nullopt;
    };
    if (arg == "--paper-scale") {
      opts.paper_scale = true;
    } else if (arg == "--csv") {
      opts.csv = true;
    } else if (auto flows = value_of("--flows=")) {
      opts.flows = parse_number<std::size_t>("--flows", *flows);
    } else if (auto seed = value_of("--seed=")) {
      opts.seed = parse_number<std::uint64_t>("--seed", *seed);
    } else if (auto loads = value_of("--loads=")) {
      opts.loads = parse_list(*loads);
    } else if (auto scale = value_of("--scale=")) {
      opts.scale = parse_number<double>("--scale", *scale);
    } else if (auto threads = value_of("--threads=")) {
      opts.threads = parse_number<unsigned>("--threads", *threads);
    } else if (auto json = value_of("--json=")) {
      opts.json_path = *json;
    } else if (arg == "--help" || arg == "-h") {
      std::fputs(kUsage, stdout);
      std::exit(0);
    }
    // Unknown flags are ignored so google-benchmark style flags pass through.
  }
  return opts;
}

}  // namespace amrt::harness
