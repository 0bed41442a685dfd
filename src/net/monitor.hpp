// Telemetry samplers over egress ports.
//
// `PortSampler` polls a port on a fixed interval and records utilization
// (busy fraction of the interval), queue depth and cumulative bytes — the
// time series the figure timelines plot. `active_utilization` reads a
// port's own counters instead, with no polling and no events: it is the
// per-port number behind the experiment runner's utilization (Fig. 13).
#pragma once

#include <cstdint>
#include <vector>

#include "net/port.hpp"
#include "sim/simulation.hpp"

namespace amrt::net {

class PortSampler {
 public:
  struct Sample {
    sim::TimePoint at;
    double utilization = 0.0;   // busy fraction over the previous interval
    std::size_t queue_pkts = 0; // instantaneous data-band depth
    std::uint64_t bytes_sent = 0;  // cumulative
  };

  PortSampler(sim::Simulation& sim, const EgressPort& port, sim::Duration interval);
  ~PortSampler();
  PortSampler(const PortSampler&) = delete;
  PortSampler& operator=(const PortSampler&) = delete;

  void start();
  void stop();

  [[nodiscard]] const std::vector<Sample>& samples() const { return samples_; }
  [[nodiscard]] std::size_t max_queue_pkts() const { return max_queue_; }
  [[nodiscard]] double mean_utilization() const;
  // Mean utilization over samples in [from, to].
  [[nodiscard]] double mean_utilization(sim::TimePoint from, sim::TimePoint to) const;

 private:
  void tick();

  sim::Scheduler& sched_;
  const EgressPort& port_;
  sim::Duration interval_;
  sim::Scheduler::Handle pending_{};
  bool running_ = false;
  sim::Duration last_busy_ = sim::Duration::zero();
  std::vector<Sample> samples_;
  std::size_t max_queue_ = 0;
};

// Busy fraction of `port` over its own active window, from its first
// transmission's start to its last one's end: busy_time() / (last_tx_end()
// - first_tx_start()). A port that carried traffic for 2 ms of a 50 ms run
// is judged on those 2 ms. 0 for a port that never transmitted.
[[nodiscard]] double active_utilization(const EgressPort& port);

}  // namespace amrt::net
