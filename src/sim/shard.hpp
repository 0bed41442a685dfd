// Per-shard simulation contexts for partitioned (multi-threaded) runs.
//
// A sharded run owns one `Simulation` per shard, each built from the run's
// seed. Shard 0 is the *master*: everything built against it — topology
// wiring, workload draws, flow schedules — is bit-identical to a serial run
// with the same seed. No code draws from another shard's stream.
//
// The group only owns contexts; the partition map and the barrier-driven
// execution loop live in net/partition.hpp (they need the network layer).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/simulation.hpp"

namespace amrt::sim {

class ShardGroup {
 public:
  // `n` must be >= 1; every shard is seeded with `seed`.
  explicit ShardGroup(std::uint64_t seed, unsigned n);
  ShardGroup(const ShardGroup&) = delete;
  ShardGroup& operator=(const ShardGroup&) = delete;

  [[nodiscard]] unsigned size() const { return static_cast<unsigned>(sims_.size()); }
  [[nodiscard]] Simulation& shard(unsigned i) { return *sims_[i]; }
  [[nodiscard]] const Simulation& shard(unsigned i) const { return *sims_[i]; }
  // The build-side context: seed-identical to a serial Simulation{seed}.
  [[nodiscard]] Simulation& master() { return *sims_[0]; }

  // Sum of events fired across all shard schedulers.
  [[nodiscard]] std::uint64_t events_processed() const;
  // Every shard's wheel counters summed; bucket_ns is the finest width.
  [[nodiscard]] EventQueue::WheelStats wheel_stats() const;
  // Latest virtual clock across shards (the run's end time at drain).
  [[nodiscard]] TimePoint now_max() const;

 private:
  std::vector<std::unique_ptr<Simulation>> sims_;
};

}  // namespace amrt::sim
