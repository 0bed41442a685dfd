// Figure 11: the testbed multi-bottleneck comparison (Fig. 10 topology) on
// the simulated 1GbE substrate, for all four protocols. f1 crosses two
// bottlenecks (shared with f2 and f3 respectively); f4 shares the second
// bottleneck with f3. The testbed's seconds-long timeline is scaled ~100x
// (1s -> 10ms) to keep packet counts laptop-friendly; the dynamics are
// rate-free so the shape is unchanged.
//
// Expected shape (paper Fig. 11): only AMRT lets f2 climb above its initial
// 50% share while f1 is squeezed, and AMRT cuts f2's completion time by
// ~36%/~36%/~13% vs pHost/Homa/NDP.
#include <cstdio>
#include <iostream>

#include "harness/csv.hpp"
#include "harness/options.hpp"
#include "harness/scenarios.hpp"
#include "harness/sweep.hpp"

using namespace amrt;
using harness::ChainConfig;
using harness::ChainFlow;
using harness::ChainPath;

namespace {
constexpr transport::Protocol kProtos[] = {transport::Protocol::kPhost, transport::Protocol::kHoma,
                                           transport::Protocol::kNdp, transport::Protocol::kAmrt};

harness::TimelineResult run(transport::Protocol proto, std::uint64_t seed) {
  using sim::Duration;
  ChainConfig cfg;
  cfg.proto = proto;
  cfg.seed = seed;
  cfg.link_rate = sim::Bandwidth::gbps(1);
  // 100us links give the 1GbE testbed a ~0.6ms RTT and a ~53-packet BDP,
  // comfortably above the 8-packet queue threshold (as on real hardware).
  cfg.link_delay = Duration::microseconds(100);
  cfg.flows = {
      ChainFlow{ChainPath::kBoth, 2'500'000, Duration::zero()},             // f1
      ChainFlow{ChainPath::kFirst, 4'000'000, Duration::zero()},            // f2
      ChainFlow{ChainPath::kSecond, 1'800'000, Duration::milliseconds(10)}, // f3
      ChainFlow{ChainPath::kSecond, 1'500'000, Duration::milliseconds(15)}, // f4
  };
  cfg.duration = Duration::milliseconds(150);
  cfg.bin = Duration::milliseconds(2);
  return harness::run_chain(cfg);
}
}  // namespace

int main(int argc, char** argv) {
  const auto opts = harness::parse_bench_options(argc, argv);

  harness::SweepRunner runner = harness::make_bench_runner(opts, "fig11");
  const std::vector<transport::Protocol> protos(std::begin(kProtos), std::end(kProtos));
  const auto results =
      runner.map_points(protos, [&](transport::Protocol p) { return run(p, opts.seed); });

  std::printf("Fig. 11 reproduction: multi-bottleneck testbed comparison (1GbE)\n\n");
  harness::Table fct{{"flow", "pHost_ms", "Homa_ms", "NDP_ms", "AMRT_ms", "AMRT_vs_pHost",
                      "AMRT_vs_Homa", "AMRT_vs_NDP"}};
  for (std::size_t f = 0; f < 4; ++f) {
    auto cell = [&](int p) {
      return results[p].flow_fct_ms[f] < 0 ? std::string("-")
                                           : harness::fmt(results[p].flow_fct_ms[f], 2);
    };
    auto redu = [&](int p) {
      const double base = results[p].flow_fct_ms[f];
      const double ours = results[3].flow_fct_ms[f];
      if (base <= 0 || ours <= 0) return std::string("-");
      return harness::fmt_pct((base - ours) / base);
    };
    // Appending (not "f" + to_string(...), whose prepend trips GCC 12's
    // -Wrestrict false positive) builds the flow label.
    std::string label = "f";
    label += std::to_string(f + 1);
    fct.add_row({label, cell(0), cell(1), cell(2), cell(3), redu(0), redu(1), redu(2)});
  }
  if (opts.csv) fct.print_csv(std::cout); else fct.print(std::cout);

  std::printf("\nf2 normalized throughput over time (watch it rise above 0.5 only under AMRT):\n");
  harness::Table tl{{"t_ms", "pHost_f2", "Homa_f2", "NDP_f2", "AMRT_f2"}};
  const std::size_t bins = results[0].bottleneck1_util.size();
  for (std::size_t b = 0; b < bins; b += 4) {
    std::vector<std::string> row{harness::fmt(static_cast<double>(b) * results[0].bin.to_millis(), 0)};
    for (int p = 0; p < 4; ++p) {
      const auto& s = results[p].flow_gbps[1];
      row.push_back(harness::fmt(b < s.size() ? s[b] : 0.0));
    }
    tl.add_row(std::move(row));
  }
  if (opts.csv) tl.print_csv(std::cout); else tl.print(std::cout);

  std::printf("\nmean B1 utilization: pHost %.1f%%, Homa %.1f%%, NDP %.1f%%, AMRT %.1f%%\n",
              100 * results[0].mean_util_b1, 100 * results[1].mean_util_b1,
              100 * results[2].mean_util_b1, 100 * results[3].mean_util_b1);
  return 0;
}
