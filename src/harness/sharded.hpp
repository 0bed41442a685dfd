// Harness-side glue for partitioned runs.
//
// A sharded scenario keeps one FctRecorder per shard (observer callbacks
// fire on the owning shard's thread, and FctRecorder is not thread-safe) and
// resolves, per host, the Simulation the host's transport endpoint must be
// constructed against — the endpoint caches that scheduler and all its
// timers then live on the host's shard. After run() the per-shard recorders
// are folded, in shard order, into one merged recorder, so the combined
// record list is deterministic for a fixed shard count.
//
// harness::PacketRun (harness/run.hpp) is the one caller inside the
// library: it builds the fabric against group.master(), derives the
// partition, constructs endpoints against sim_of(host) with
// recorder_of(host) as their observer, schedules each flow start on
// sched_of(src), and reads merged() after run(). Build on PacketRun rather
// than driving a ShardedScenario by hand.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/partition.hpp"
#include "sim/shard.hpp"
#include "stats/fct.hpp"

namespace amrt::harness {

class ShardedScenario {
 public:
  ShardedScenario(sim::ShardGroup& group, net::Network& net, net::Partition part,
                  sim::Bandwidth reference_rate, sim::Duration base_rtt);

  [[nodiscard]] sim::ShardGroup& group() { return group_; }
  [[nodiscard]] const net::Partition& partition() const { return part_; }
  [[nodiscard]] unsigned shard_of(net::NodeId host) const { return part_.shard_of(host); }
  [[nodiscard]] sim::Simulation& sim_of(net::NodeId host) {
    return group_.shard(part_.shard_of(host));
  }
  [[nodiscard]] sim::Scheduler& sched_of(net::NodeId host) { return sim_of(host).scheduler(); }
  [[nodiscard]] stats::FctRecorder& recorder_of(net::NodeId host) {
    return *recorders_[part_.shard_of(host)];
  }

  struct RunLimits {
    std::uint64_t event_limit = 0;
    sim::TimePoint horizon = sim::TimePoint::max();
    std::string audit_context;  // repro line printed on a fail-fast audit abort
  };
  struct RunStatus {
    std::uint64_t rounds = 0;
    bool event_limit_hit = false;
    bool horizon_hit = false;
  };

  // Single-shot: binds the fabric to the shards and runs to global drain
  // (or a limit). Afterwards the master auditor holds the merged ledger and
  // merged() the combined flow records.
  RunStatus run(const RunLimits& limits);

  [[nodiscard]] const stats::FctRecorder& merged() const { return merged_; }
  [[nodiscard]] std::uint64_t events() const { return group_.events_processed(); }

 private:
  sim::ShardGroup& group_;
  net::Network& net_;
  net::Partition part_;
  std::vector<std::unique_ptr<stats::FctRecorder>> recorders_;  // one per shard
  stats::FctRecorder merged_;
};

}  // namespace amrt::harness
