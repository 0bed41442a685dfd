#include "net/port.hpp"

#include <cassert>
#include <stdexcept>

#include "net/network.hpp"
#include "net/partition.hpp"

namespace amrt::net {

EgressPort::EgressPort(sim::Scheduler& sched, Config cfg, EgressQueue& queue)
    : sched_{&sched},
      cfg_{cfg},
      queue_{&queue},
      effective_rate_{cfg_.rate} {
  if (cfg_.rate.bits_per_second() <= 0) throw std::invalid_argument("EgressPort requires a positive rate");
}

void EgressPort::connect(Node& peer, int peer_ingress_port) {
  net_ = nullptr;
  peer_node_ = &peer;
  peer_id_ = peer.id();
  peer_port_ = peer_ingress_port;
}

void EgressPort::connect(Network& net, NodeId peer, int peer_ingress_port) {
  net_ = &net;
  peer_node_ = nullptr;
  peer_id_ = peer;
  peer_port_ = peer_ingress_port;
}

void EgressPort::add_marker(std::unique_ptr<DequeueMarker> marker) {
  marker->bind_queue(*queue_);
  markers_.push_back(std::move(marker));
}

void EgressPort::enqueue(Packet&& pkt) {
  if (!link_up_) [[unlikely]] {
    eat_faulted(std::move(pkt), audit::DropReason::kLinkDown);
    return;
  }
  if (drop_prob_ > 0.0 && fault_rng_->bernoulli(drop_prob_)) [[unlikely]] {
    eat_faulted(std::move(pkt), audit::DropReason::kBlackhole);
    return;
  }
  if (busy()) {
    queue_->enqueue(std::move(pkt));
    ensure_wakeup();
  } else if (queue_->pass_through(pkt)) {
    // Idle port, empty queue: the packet would be queued and dequeued at
    // once, so it skips the ring (DESIGN.md §8).
    transmit(std::move(pkt));
  } else {
    queue_->enqueue(std::move(pkt));
    start_next_transmission();
  }
}

void EgressPort::eat_faulted(Packet&& pkt, audit::DropReason reason) {
  ++packets_faulted_;
#ifdef AMRT_AUDIT
  if (auto* a = sched_->auditor()) a->on_drop(audit::info_of(pkt), reason);
#endif
  (void)pkt;
  (void)reason;
}

void EgressPort::set_link_up(bool up) {
  if (up == link_up_) return;
  link_up_ = up;
  // Going down spills the queue: those packets were committed to a link
  // that no longer exists. The transmission already serializing (bits on
  // the wire) is left to deliver — real links lose the queue, not photons.
  if (!up) packets_faulted_ += queue_->flush_faulted();
}

void EgressPort::set_rate_scale(double scale) {
  if (scale <= 0.0 || scale > 1.0) throw std::invalid_argument("rate scale must be in (0, 1]");
  effective_rate_ =
      sim::Bandwidth::bps(static_cast<std::int64_t>(static_cast<double>(cfg_.rate.bits_per_second()) * scale));
  // The memoized serialization times were computed at the old rate.
  tx_memo_bytes_[0] = tx_memo_bytes_[1] = -1;
}

void EgressPort::set_drop_prob(double prob, std::uint64_t seed) {
  if (prob < 0.0 || prob > 1.0) throw std::invalid_argument("drop probability must be in [0, 1]");
  drop_prob_ = prob;
  if (prob > 0.0) fault_rng_ = std::make_unique<sim::Rng>(seed);
}

void EgressPort::ensure_wakeup() {
  if (wakeup_pending_) return;
  wakeup_pending_ = true;
  // Raw lane: the wakeup is never cancelled (wakeup_pending_ dedups it), so
  // it can skip the callback record entirely.
  sched_->at_raw(
      busy_until_, [](void* p) { static_cast<EgressPort*>(p)->on_wakeup(); }, this);
}

void EgressPort::on_wakeup() {
  wakeup_pending_ = false;
  if (busy()) {
    // An enqueue at exactly the old busy_until_ beat us to the dequeue and
    // started a new transmission; re-arm for its end if work is waiting.
    if (!queue_->empty()) ensure_wakeup();
    return;
  }
  start_next_transmission();
}

void EgressPort::deliver_to_peer(Packet&& pkt) {
  if (net_ != nullptr) {
    net_->deliver(peer_id_, std::move(pkt), peer_port_);
  } else {
    peer_node_->handle_packet(std::move(pkt), peer_port_);
  }
}

void EgressPort::start_next_transmission() {
  assert(!busy());
  if (auto next = queue_->dequeue()) transmit(std::move(*next));
}

void EgressPort::transmit(Packet&& pkt) {
  const sim::TimePoint tx_start = sched_->now();
  // Most ports (all NICs, and every non-AMRT switch port) have no markers:
  // skip the loop outright rather than pay its setup per packet.
  if (!markers_.empty()) {
    for (auto& marker : markers_) {
      // Markers measure against the actual draining rate, so Eq. 2's spare
      // bandwidth stays honest when a fault degrades the link.
      marker->on_dequeue(pkt, tx_start, last_tx_end_, effective_rate_);
    }
  }

  sim::Duration tx = tx_time_for(pkt.wire_bytes);
  if (packets_sent_ == 0) first_tx_start_ = tx_start;
  busy_time_ += tx;
  bytes_sent_ += pkt.wire_bytes;
  ++packets_sent_;
  if (cfg_.tx_jitter > sim::Duration::zero()) {
    if (!jitter_rng_) jitter_rng_ = std::make_unique<sim::Rng>(cfg_.jitter_seed);
    tx += sim::Duration::nanoseconds(jitter_rng_->uniform_int(0, cfg_.tx_jitter.ns()));
  }

  // The serializer is a timestamp, not an event: markers above read
  // last_tx_end_ as "end of the previous transmission", and the next dequeue
  // can only run at/after busy_until_, so updating both eagerly is
  // equivalent to updating them in a tx-end event — without paying for one.
  busy_until_ = tx_start + tx;
  last_tx_end_ = busy_until_;
  if (!queue_->empty()) ensure_wakeup();

  // Delivery at the peer after serialization + propagation. The packet moves
  // once, and the lambda fits the scheduler's inline callback buffer. `this`
  // is stable here: the port pool is frozen once traffic flows (see the
  // Network invalidation rules).
  if (outbox_ != nullptr) [[unlikely]] {
    // Cross-shard link: the peer's handler runs on another shard's thread,
    // so no event is scheduled here. The delivery timestamp rides along and
    // the receiving shard injects it at its next window — the conservative
    // lookahead guarantees that window hasn't started yet.
    outbox_->push((tx_start + tx + cfg_.delay).ns(), this, std::move(pkt));
  } else if (net_ != nullptr || peer_node_ != nullptr) {
    auto deliver = [this, p = std::move(pkt)]() mutable { deliver_to_peer(std::move(p)); };
    static_assert(sim::InplaceCallback::fits_inline<decltype(deliver)>(),
                  "a delivery event must not allocate");
    sched_->after(tx + cfg_.delay, std::move(deliver));
  }
}

}  // namespace amrt::net
