#include "transport/dctcp.hpp"

namespace amrt::transport {

using net::Packet;
using net::PacketType;

std::uint8_t pias_priority(std::uint64_t bytes_sent, std::uint64_t base_threshold,
                           std::uint8_t levels) {
  if (levels <= 1 || base_threshold == 0) return 0;
  std::uint8_t level = 0;
  std::uint64_t threshold = base_threshold;
  while (level + 1 < levels && bytes_sent >= threshold) {
    ++level;
    if (threshold > (~std::uint64_t{0} >> 1)) break;  // next shift would overflow
    threshold <<= 1;
  }
  return level;
}

DctcpEndpoint::DctcpEndpoint(sim::Simulation& sim, net::Host& host, TransportConfig cfg,
                             stats::FlowObserver* observer)
    : TransportEndpoint{sim, host, cfg, observer},
      rto_{cfg_.default_loss_timeout(Protocol::kDctcp)} {}

const DctcpCc* DctcpEndpoint::sender_cc(net::FlowId id) const {
  const SenderFlow* flow = snd_.find(id);
  return flow == nullptr ? nullptr : &flow->cc;
}

void DctcpEndpoint::start_flow(const FlowSpec& spec) {
  auto [flow, inserted] = snd_.try_emplace(spec.id);
  if (!inserted) return;  // duplicate start
  flow->spec = spec;
  flow->total_pkts = flow_pkts(spec.bytes);
  flow->state.assign(flow->total_pkts, kUnsent);
  flow->cc = DctcpCc{cfg_.dctcp_g, cfg_.dctcp_init_cwnd_pkts, cfg_.dctcp_cwnd_cap_pkts()};
  if (observer_ != nullptr) observer_->on_flow_started(spec.id, spec.bytes, sched_.now());
  pump(*flow);
}

void DctcpEndpoint::send_seq(SenderFlow& flow, std::uint32_t seq) {
  Packet pkt;
  pkt.flow = flow.spec.id;
  pkt.seq = seq;
  pkt.payload_bytes = net::payload_of_seq(flow.spec.bytes, seq);
  pkt.wire_bytes = pkt.payload_bytes + net::kHeaderBytes;
  pkt.type = PacketType::kData;
  pkt.src = host_.id();
  pkt.dst = flow.spec.dst;
  // Threshold-mode ECN: CE starts clear, congested hops set it.
  pkt.ecn_capable = true;
  pkt.ce = false;
  pkt.threshold_ecn = true;
  // PIAS: demote by cumulative bytes already sent, before this packet.
  pkt.priority = pias_priority(flow.bytes_sent, cfg_.pias_base_threshold_bytes, cfg_.pias_levels);
  pkt.flow_bytes = flow.spec.bytes;
  flow.bytes_sent += pkt.payload_bytes;
  send(std::move(pkt));
}

void DctcpEndpoint::pump(SenderFlow& flow) {
  const std::uint32_t window = flow.cc.cwnd_pkts();
  while (flow.inflight < window) {
    std::uint32_t seq = 0;
    bool have = false;
    // Retransmissions first; entries whose state moved on (a late ACK
    // arrived while the seq sat queued) are skipped.
    while (!flow.lost_q.empty()) {
      const std::uint32_t candidate = flow.lost_q.pop_front();
      if (flow.state[candidate] == kLost) {
        seq = candidate;
        have = true;
        break;
      }
    }
    if (!have) {
      if (flow.next_new >= flow.total_pkts) break;
      seq = flow.next_new++;
    }
    flow.state[seq] = kInflight;
    ++flow.inflight;
    send_seq(flow, seq);
#ifdef AMRT_AUDIT
    if (auto* a = sched_.auditor()) {
      a->on_dctcp_send(flow.spec.id, flow.inflight, flow.cc.cwnd());
    }
#endif
  }
  if (flow.inflight > 0) arm_rto(flow);
}

void DctcpEndpoint::arm_rto(SenderFlow& flow) {
  flow.rto_timer.cancel();
  flow.rto_timer = sched_.after(rto_, [this, id = flow.spec.id] { rto_fire(id); });
}

void DctcpEndpoint::rto_fire(net::FlowId id) {
  SenderFlow* flow = snd_.find(id);
  if (flow == nullptr) return;
  ++timeouts_;
  // Everything unacknowledged and in flight is presumed lost.
  for (std::uint32_t seq = 0; seq < flow->total_pkts; ++seq) {
    if (flow->state[seq] == kInflight) {
      flow->state[seq] = kLost;
      flow->lost_q.push_back(std::uint32_t{seq});
    }
  }
  flow->inflight = 0;
  flow->cc.on_timeout();
#ifdef AMRT_AUDIT
  if (auto* a = sched_.auditor()) {
    a->on_dctcp_window(id, flow->cc.cwnd(), flow->cc.alpha(), flow->cc.cap());
  }
#endif
  pump(*flow);  // sends the one-packet window and re-arms the timer
}

void DctcpEndpoint::on_grant(Packet&& ack) {
  SenderFlow* flow = snd_.find(ack.flow);
  if (flow == nullptr) return;  // stale ACK after sender teardown
  if (ack.seq >= flow->total_pkts) return;
  const std::uint8_t prev = flow->state[ack.seq];
  if (prev == kAcked) return;  // duplicate ACK: must not clock the window
  flow->state[ack.seq] = kAcked;
  ++flow->acked;
  if (prev == kInflight) --flow->inflight;
  flow->cc.on_ack(ack.marked_grant);
#ifdef AMRT_AUDIT
  if (auto* a = sched_.auditor()) {
    a->on_dctcp_window(ack.flow, flow->cc.cwnd(), flow->cc.alpha(), flow->cc.cap());
  }
#endif
  if (flow->acked == flow->total_pkts) {
    flow->rto_timer.cancel();
    snd_.erase(ack.flow);
    return;
  }
  pump(*flow);
}

void DctcpEndpoint::send_ack(const Packet& data) {
  Packet ack;
  ack.flow = data.flow;
  ack.seq = data.seq;
  ack.type = PacketType::kGrant;
  ack.wire_bytes = net::kCtrlBytes;
  ack.src = host_.id();
  ack.dst = data.src;
  ack.marked_grant = data.ce;  // ECN-Echo, per packet, reordering-safe
  ack.allowance = 0;           // an ACK is not a credit
  send(std::move(ack));
}

void DctcpEndpoint::on_data(Packet&& pkt) {
  if (pkt.trimmed) return;  // no trimming queues in DCTCP fabrics; be safe
  if (finished_rcv_.contains(pkt.flow)) {
    // The flow completed but the sender is still retransmitting: its final
    // ACKs were lost. Re-ACK so it can tear down.
    send_ack(pkt);
    return;
  }
  auto [flow, inserted] = rcv_.try_emplace(pkt.flow);
  if (inserted) {
    flow->id = pkt.flow;
    flow->bytes = pkt.flow_bytes;
    flow->total_pkts = flow_pkts(pkt.flow_bytes);
    flow->got.assign(flow->total_pkts, 0);
  }
  const bool fresh = pkt.seq < flow->total_pkts && flow->got[pkt.seq] == 0;
  if (fresh) {
    flow->got[pkt.seq] = 1;
    ++flow->received;
    if (observer_ != nullptr && pkt.payload_bytes > 0) {
      observer_->on_flow_progress(pkt.flow, pkt.payload_bytes, sched_.now());
    }
  }
  send_ack(pkt);
  if (fresh && flow->received == flow->total_pkts) {
#ifdef AMRT_AUDIT
    if (auto* a = sched_.auditor()) {
      std::uint32_t got_count = 0;
      for (const std::uint8_t g : flow->got) got_count += g;
      a->on_flow_finished(flow->id, flow->total_pkts, flow->received, got_count);
    }
#endif
    if (observer_ != nullptr) observer_->on_flow_completed(pkt.flow, sched_.now());
    finished_rcv_.insert(pkt.flow);
    rcv_.erase(pkt.flow);
  }
}

}  // namespace amrt::transport
