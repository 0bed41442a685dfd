// The original Poisson flow generator, kept only as the reference the
// legacy traffic engine is diffed against
// (TrafficEngine.LegacyEngineMatchesFlowGeneratorExactly). The library
// generates every schedule through workload::generate_traffic.
#pragma once

#include <stdexcept>
#include <vector>

#include "workload/traffic.hpp"

namespace amrt::workload {

class FlowGenerator {
 public:
  FlowGenerator(const EmpiricalCdf& sizes, sim::Rng& rng) : sizes_{sizes}, rng_{rng} {}

  // Flows sorted by start time, ids 1..n, src != dst uniformly at random.
  [[nodiscard]] std::vector<GeneratedFlow> generate(const TrafficConfig& cfg) {
    if (cfg.n_hosts < 2) throw std::invalid_argument("FlowGenerator: need at least two hosts");
    const double mean_gap_s = mean_interarrival(cfg).to_seconds();

    std::vector<GeneratedFlow> flows;
    flows.reserve(cfg.n_flows);
    sim::TimePoint at = cfg.first_arrival;
    for (std::size_t i = 0; i < cfg.n_flows; ++i) {
      GeneratedFlow f;
      f.id = i + 1;
      f.src_host = rng_.index(cfg.n_hosts);
      do {
        f.dst_host = rng_.index(cfg.n_hosts);
      } while (f.dst_host == f.src_host);
      f.bytes = sizes_.sample(rng_);
      at += sim::Duration::from_seconds(rng_.exponential(mean_gap_s));
      f.start = at;
      flows.push_back(f);
    }
    return flows;
  }

  // load * n_hosts * rate [bits/s] must equal mean_size [bits] * lambda.
  [[nodiscard]] sim::Duration mean_interarrival(const TrafficConfig& cfg) const {
    const double agg_bps = cfg.load * static_cast<double>(cfg.n_hosts) *
                           static_cast<double>(cfg.host_rate.bits_per_second());
    const double mean_bits = sizes_.mean_bytes() * 8.0;
    if (agg_bps <= 0.0) throw std::invalid_argument("FlowGenerator: load must be positive");
    return sim::Duration::from_seconds(1.0 / (agg_bps / mean_bits));
  }

 private:
  const EmpiricalCdf& sizes_;
  sim::Rng& rng_;
};

}  // namespace amrt::workload
