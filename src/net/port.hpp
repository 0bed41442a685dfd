// An egress port: queue + serializer + propagation delay.
//
// This is the simulator's congestion point. Packets are enqueued by the
// owning node; the port transmits them one at a time at its line rate and
// delivers each to the peer node after the link's propagation delay
// (store-and-forward). Dequeue markers run at transmission start, which is
// where AMRT's inter-dequeue-gap measurement lives.
//
// Ports live by value in Network's contiguous port pool and address their
// queue (non-owning; Network's queue pool owns it) and their peer (a NodeId
// resolved through the Network directory) as pool slots. The standalone
// `connect(Node&)` path remains for unit tests that drive a port against a
// bare scheduler without a Network.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/marker.hpp"
#include "net/node.hpp"
#include "net/queue.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"

namespace amrt::net {

class Network;
class ShardMailbox;

class EgressPort {
 public:
  struct Config {
    sim::Bandwidth rate;
    sim::Duration delay;  // propagation delay to the peer
    // Uniform random extra delay added per transmission (host NICs only;
    // models OS/NIC timing noise). Without it a deterministic simulator
    // phase-locks equal-rate senders and drop-tail races become
    // winner-takes-all — the same reason NS2 randomizes packet processing.
    sim::Duration tx_jitter = sim::Duration::zero();
    std::uint64_t jitter_seed = 0;
  };

  // `queue` is non-owning: Network's queue pool (or, in standalone tests,
  // the caller) keeps it alive for the port's lifetime.
  EgressPort(sim::Scheduler& sched, Config cfg, EgressQueue& queue);

  // Wires the far end to a standalone node (unit tests). Must be called
  // before the first enqueue.
  void connect(Node& peer, int peer_ingress_port);
  // Wires the far end to a pool slot: delivery resolves `peer` through the
  // Network directory with no virtual dispatch. Network builders call this.
  void connect(Network& net, NodeId peer, int peer_ingress_port);

  void add_marker(std::unique_ptr<DequeueMarker> marker);

  // Hands a packet to this port; it is queued (or dropped/trimmed) and
  // transmitted in turn.
  void enqueue(Packet&& pkt);

  // --- fault injection (src/fault drives these through Network) -----------
  // Link down: the queue is flushed (faulted drops) and every subsequent
  // enqueue is eaten until the link comes back. In-flight deliveries — bits
  // already on the wire — still complete. Idempotent.
  void set_link_up(bool up);
  // Degrades (scale < 1) or restores (scale = 1) the serialization rate.
  void set_rate_scale(double scale);
  // Probabilistic blackholing at enqueue, covering control packets too (the
  // "lossy control plane" lever). `seed` makes the per-port stream
  // deterministic; prob <= 0 disarms it.
  void set_drop_prob(double prob, std::uint64_t seed);
  // Packets this port's faults consumed (flushed, refused-down, blackholed).
  [[nodiscard]] std::uint64_t packets_faulted() const { return packets_faulted_; }

  [[nodiscard]] const Config& config() const { return cfg_; }
  [[nodiscard]] const EgressQueue& queue() const { return *queue_; }
  // Mutable queue access for shard binding (re-pointing the audit hook at
  // the owning shard's auditor); the data path never needs this.
  [[nodiscard]] EgressQueue& queue_mut() { return *queue_; }
  [[nodiscard]] sim::Scheduler& scheduler() { return *sched_; }
  [[nodiscard]] bool busy() const { return sched_->now() < busy_until_; }
  [[nodiscard]] NodeId peer() const { return peer_id_; }
  [[nodiscard]] int peer_ingress_port() const { return peer_port_; }

  // --- sharded execution (net/partition.hpp drives these) ------------------
  // Re-points event scheduling at the owning shard's scheduler. Must run
  // before traffic flows; the serial path never calls it.
  void rebind_scheduler(sim::Scheduler& sched) { sched_ = &sched; }
  // Routes deliveries into a cross-shard mailbox instead of scheduling the
  // peer's handler on this shard. nullptr (the default) restores direct
  // delivery — the serial fast path pays one predicted-not-taken branch.
  void set_cross_shard_outbox(ShardMailbox* outbox) { outbox_ = outbox; }
  // Hands a packet that has crossed the wire to the peer's ingress. The
  // port's own delivery event calls it; ShardMailbox::inject schedules the
  // same call on the peer's shard for a packet that crossed shards.
  void deliver_to_peer(Packet&& pkt);

  // --- telemetry (read by monitors) ---
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }
  [[nodiscard]] std::uint64_t packets_sent() const { return packets_sent_; }
  [[nodiscard]] sim::Duration busy_time() const { return busy_time_; }
  // Start of the first transmission and end of the last: the port's active
  // window (both zero before the first packet).
  [[nodiscard]] sim::TimePoint first_tx_start() const { return first_tx_start_; }
  [[nodiscard]] sim::TimePoint last_tx_end() const { return last_tx_end_; }

 private:
  void start_next_transmission();
  // Serialization time at this port's (fixed) rate, memoized by packet size.
  // Traffic is almost entirely two sizes — full-MTU data and small control
  // frames — so a two-entry MRU cache turns the 128-bit division in
  // Bandwidth::tx_time into a compare on the per-packet path.
  [[nodiscard]] sim::Duration tx_time_for(std::int64_t bytes) {
    if (bytes == tx_memo_bytes_[0]) return tx_memo_[0];
    if (bytes == tx_memo_bytes_[1]) {
      std::swap(tx_memo_bytes_[0], tx_memo_bytes_[1]);
      std::swap(tx_memo_[0], tx_memo_[1]);
      return tx_memo_[0];
    }
    const sim::Duration t = effective_rate_.tx_time(bytes);
    tx_memo_bytes_[1] = tx_memo_bytes_[0];
    tx_memo_[1] = tx_memo_[0];
    tx_memo_bytes_[0] = bytes;
    tx_memo_[0] = t;
    return t;
  }
  // Arms (at most one) continuation event at `busy_until_`. The port keeps
  // no standing tx-end event: an idle port parks with no event scheduled,
  // and the serializer is woken only when a packet is actually waiting.
  void ensure_wakeup();
  void on_wakeup();
  // A fault consumed this packet before admission (link down / blackhole).
  void eat_faulted(Packet&& pkt, audit::DropReason reason);

  sim::Scheduler* sched_;
  Config cfg_;
  EgressQueue* queue_ = nullptr;
  ShardMailbox* outbox_ = nullptr;  // non-null only on cross-shard ports
  std::vector<std::unique_ptr<DequeueMarker>> markers_;
  // Pooled wiring resolves peer_id_ through net_; standalone wiring
  // virtual-dispatches through peer_node_. connect() sets exactly one.
  Network* net_ = nullptr;
  Node* peer_node_ = nullptr;
  NodeId peer_id_{};
  int peer_port_ = -1;
  // The random streams live out of line: a std::mt19937_64 is 2.5 KB, only
  // host NICs jitter and only armed ports blackhole. jitter_rng_ is made on
  // the first transmission of a port with cfg_.tx_jitter > 0, seeded with
  // cfg_.jitter_seed, so a NIC that never sends holds none and the stream is
  // the same as an engine made up front; fault_rng_ is created and re-seeded
  // by every set_drop_prob(prob > 0, seed).
  std::unique_ptr<sim::Rng> jitter_rng_;
  // Fault state (src/fault). effective_rate_ = cfg_.rate * the rate scale,
  // kept materialized so the healthy fast path pays nothing.
  sim::Bandwidth effective_rate_;
  double drop_prob_ = 0.0;
  bool link_up_ = true;
  std::unique_ptr<sim::Rng> fault_rng_;
  std::uint64_t packets_faulted_ = 0;
  std::int64_t tx_memo_bytes_[2] = {-1, -1};
  sim::Duration tx_memo_[2] = {sim::Duration::zero(), sim::Duration::zero()};
  sim::TimePoint busy_until_ = sim::TimePoint::zero();  // end of in-flight transmission
  bool wakeup_pending_ = false;
  sim::TimePoint last_tx_end_ = sim::TimePoint::zero();
  sim::TimePoint first_tx_start_ = sim::TimePoint::zero();

  std::uint64_t bytes_sent_ = 0;
  std::uint64_t packets_sent_ = 0;
  sim::Duration busy_time_ = sim::Duration::zero();
};

}  // namespace amrt::net
