// Partitioned (sharded) execution of one fabric over worker threads.
//
// Conservative parallel discrete-event execution in the MPI-ns-3 style:
// the fabric is split into shards (fat-tree: one pod per shard, cores
// round-robin; leaf-spine: one leaf per shard, spines round-robin), each
// shard runs its own `sim::Scheduler` on its own thread, and shards only
// synchronize at time-window barriers. The window width — the *lookahead* —
// is the minimum latency of any cross-shard link (propagation delay plus
// the serialization floor of a header-only packet), so an event fired
// inside the current window can only affect another shard at or after the
// next window's start. Cross-shard packets travel through per-(src,dst)
// shard-pair mailboxes: plain vectors written by the producing shard during
// its window and drained by the receiving shard in the injection phase that
// follows the barrier, so no lock-free structures are needed — the barrier
// itself provides the happens-before edge.
//
// Determinism contract (DESIGN.md §12): the serial path is untouched and
// stays bit-identical; a fixed shard count is reproducible run-to-run
// (deterministic window sequence, serial execution inside each shard,
// deterministic mailbox drain order: source shard, then delivery timestamp,
// then push order); different shard counts agree statistically (FCT
// tolerance), not bitwise, because same-timestamp ties resolve per-shard.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "net/topology.hpp"
#include "sim/shard.hpp"

namespace amrt::net {

// One direction of a shard-pair channel. The producing shard's cross ports
// push into it during a window (single writer); the receiving shard drains
// it during the injection phase after the barrier (single reader). The two
// phases are separated by a barrier on either side, so a plain vector is
// race-free by construction.
class ShardMailbox {
 public:
  struct Msg {
    std::int64_t deliver_ns = 0;  // wire arrival time at the peer
    EgressPort* from = nullptr;   // the sending port; its peer receives
    Packet pkt{};
  };

  void push(std::int64_t deliver_ns, EgressPort* from, Packet&& pkt) {
    msgs_.push_back(Msg{deliver_ns, from, std::move(pkt)});
  }

  // Orders queued messages for injection: by delivery time, stable — ties
  // keep push order, which is the producing shard's deterministic event
  // order. Draining source shards in index order on the receiving side
  // completes the (source shard, timestamp, seq) drain contract.
  void sort_for_injection();

  // Drains the box into the receiving shard's scheduler, in injection order,
  // as the same delivery event a same-shard port schedules (the sending
  // port plus the packet, which fits the event record inline). Every
  // message was sent in the window that ended at `window_end_ns`, so the
  // lookahead promises it is delivered at or after that end; an earlier one
  // would land in the receiver's past, and this throws std::logic_error
  // rather than run it out of order.
  void inject(sim::Scheduler& sched, std::int64_t window_end_ns);

  [[nodiscard]] const std::vector<Msg>& msgs() const { return msgs_; }
  [[nodiscard]] bool empty() const { return msgs_.empty(); }

 private:
  std::vector<Msg> msgs_;
};

// The partition map over a built (frozen) Network: which shard owns each
// node and each egress port, which ports cross shards, and the conservative
// lookahead those crossings admit.
struct Partition {
  unsigned n_shards = 1;
  std::vector<std::uint32_t> node_shard;  // by NodeId.value
  std::vector<std::uint32_t> port_shard;  // by PortId (the owning node's shard)
  std::vector<std::uint8_t> port_cross;   // 1 iff the port's peer lives on another shard
  // min over cross ports of (propagation + header serialization time);
  // Duration::max() when nothing crosses (every window then runs to drain).
  sim::Duration lookahead = sim::Duration::max();
  std::size_t cross_ports = 0;

  [[nodiscard]] std::uint32_t shard_of(NodeId id) const { return node_shard[id.value]; }
};

// Derives port ownership, cross flags and the lookahead from a complete
// node->shard map. Throws std::logic_error if any node or port is left
// unassigned (or assigned twice), or a shard index is out of range — the
// coverage guarantees tests/test_partition.cpp pins down.
[[nodiscard]] Partition make_partition(const Network& net, std::vector<std::uint32_t> node_shard,
                                       unsigned n_shards);

// Pod-partitioned fat-tree: pod p's hosts, edge and aggregation switches go
// to shard p % n_shards; core switch c goes to shard c % n_shards. Only
// agg<->core links cross shards (when their endpoints' shards differ).
[[nodiscard]] Partition partition_fat_tree(const Network& net, const FatTree& topo,
                                           unsigned n_shards);

// Leaf-partitioned leaf-spine: leaf l and its hosts go to shard l % n_shards,
// spine s to shard s % n_shards. Only leaf<->spine links cross shards.
[[nodiscard]] Partition partition_leaf_spine(const Network& net, const LeafSpine& topo,
                                             unsigned n_shards);

// Drives a partitioned run: binds every port/host/queue to its owning
// shard's scheduler, spawns one worker per shard, and executes conservative
// time windows between barriers until every shard drains (or a limit trips).
// Single-shot: build, run() once, read the results. A partition of fewer
// than two shards is rejected at construction: serial runs use the plain
// scheduler (harness::PacketRun at shards == 1), not this runner.
class ShardedRunner {
 public:
  struct Config {
    // Total-events safety valve across all shards (0 = unlimited); also
    // armed per shard so a runaway window terminates.
    std::uint64_t event_limit = 0;
    // Hard stop: windows never open at or past this virtual time.
    sim::TimePoint horizon = sim::TimePoint::max();
    // Replay context installed on every worker thread, so a fail-fast audit
    // abort on any shard prints the repro line (audit::set_context is
    // thread-local).
    std::string audit_context;
  };

  // `net` must be fully built against `shards.master()` and frozen. Throws
  // std::logic_error if the partition has fewer than two shards or the
  // group's size does not match it.
  ShardedRunner(Network& net, Partition part, sim::ShardGroup& shards, Config cfg);
  ShardedRunner(Network& net, Partition part, sim::ShardGroup& shards);

  void run();

  [[nodiscard]] const Partition& partition() const { return part_; }
  [[nodiscard]] std::uint64_t rounds() const { return rounds_; }
  [[nodiscard]] bool event_limit_hit() const { return limit_hit_; }
  [[nodiscard]] bool horizon_hit() const { return horizon_hit_; }

 private:
  void bind();
  void inject_inbound(unsigned me);
  void coordinate() noexcept;  // runs single-threaded inside the barrier completion

  Network& net_;
  Partition part_;
  sim::ShardGroup& shards_;
  Config cfg_;
  std::vector<ShardMailbox> boxes_;  // [src * n + dst], addresses frozen by bind()
  std::int64_t window_end_ns_ = 0;
  bool done_ = false;                // written only in coordinate()
  std::atomic<bool> failed_{false};  // a worker threw; terminate at the next barrier
  std::uint64_t rounds_ = 0;
  bool limit_hit_ = false;
  bool horizon_hit_ = false;
};

}  // namespace amrt::net
