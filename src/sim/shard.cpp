#include "sim/shard.hpp"

#include <algorithm>
#include <stdexcept>

namespace amrt::sim {

ShardGroup::ShardGroup(std::uint64_t seed, unsigned n) {
  if (n == 0) throw std::invalid_argument("ShardGroup requires at least one shard");
  sims_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    sims_.push_back(std::make_unique<Simulation>(seed));
  }
}

std::uint64_t ShardGroup::events_processed() const {
  std::uint64_t total = 0;
  for (const auto& s : sims_) total += s->events_processed();
  return total;
}

EventQueue::WheelStats ShardGroup::wheel_stats() const {
  EventQueue::WheelStats total = sims_[0]->scheduler().wheel_stats();
  for (std::size_t i = 1; i < sims_.size(); ++i) {
    const EventQueue::WheelStats s = sims_[i]->scheduler().wheel_stats();
    total.bucket_ns = std::min(total.bucket_ns, s.bucket_ns);
    total.regears += s.regears;
    total.far_spills += s.far_spills;
    total.drained_buckets += s.drained_buckets;
    total.drained_entries += s.drained_entries;
  }
  return total;
}

TimePoint ShardGroup::now_max() const {
  TimePoint t = TimePoint::zero();
  for (const auto& s : sims_) {
    if (s->now() > t) t = s->now();
  }
  return t;
}

}  // namespace amrt::sim
