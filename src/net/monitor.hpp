// Telemetry samplers over egress ports.
//
// `PortSampler` polls a port on a fixed interval and records utilization
// (busy fraction of the interval), queue depth and cumulative bytes — the
// raw series behind the paper's throughput/utilization/queue figures.
// `window_utilization` is the counter-based alternative: one window's
// utilization from a caller's byte-counter snapshot, with no polling.
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

// Utilization of `port` between two instants, from byte counters taken
// before/after (caller snapshots with `bytes_sent()`): delivered bits over
// capacity * elapsed.
[[nodiscard]] double window_utilization(const EgressPort& port, std::uint64_t bytes_before,
                                        sim::TimePoint from, sim::TimePoint to);

}  // namespace amrt::net
