#include "net/monitor.hpp"

#include <algorithm>

namespace amrt::net {

PortSampler::PortSampler(sim::Simulation& sim, const EgressPort& port, sim::Duration interval)
    : sched_{sim.scheduler()}, port_{port}, interval_{interval} {}

PortSampler::~PortSampler() { stop(); }

void PortSampler::start() {
  if (running_) return;
  running_ = true;
  last_busy_ = port_.busy_time();
  pending_ = sched_.after(interval_, [this] { tick(); });
}

void PortSampler::stop() {
  running_ = false;
  pending_.cancel();
}

void PortSampler::tick() {
  if (!running_) return;
  const auto busy = port_.busy_time();
  const double util = std::min(1.0, (busy - last_busy_) / interval_);
  last_busy_ = busy;
  const std::size_t depth = port_.queue().data_pkts();
  max_queue_ = std::max(max_queue_, depth);
  samples_.push_back(Sample{sched_.now(), util, depth, port_.bytes_sent()});
  pending_ = sched_.after(interval_, [this] { tick(); });
}

double PortSampler::mean_utilization() const {
  if (samples_.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& s : samples_) sum += s.utilization;
  return sum / static_cast<double>(samples_.size());
}

double PortSampler::mean_utilization(sim::TimePoint from, sim::TimePoint to) const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& s : samples_) {
    if (s.at >= from && s.at <= to) {
      sum += s.utilization;
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double active_utilization(const EgressPort& port) {
  if (port.packets_sent() == 0) return 0.0;
  return port.busy_time() / (port.last_tx_end() - port.first_tx_start());
}

}  // namespace amrt::net
