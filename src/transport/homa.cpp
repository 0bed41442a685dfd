#include "transport/homa.hpp"

#include <algorithm>
#include <vector>

namespace amrt::transport {

using net::Packet;

void HomaEndpoint::after_arrival(ReceiverFlow& flow, const Packet& pkt, bool fresh) {
  (void)pkt;
  (void)fresh;
  // One credit per arrival: repair a presumed loss of this message if one is
  // due, otherwise top up the overcommitted grant windows.
  issue_credits(flow, 1, /*marked=*/false);
}

std::uint32_t HomaEndpoint::grant_new_credits(ReceiverFlow& flow, std::uint32_t count, bool marked) {
  (void)flow;
  (void)count;
  (void)marked;
  // Homa's credits are byte offsets, not packet counts; re-evaluate the
  // SRPT top-K instead of issuing allowance grants.
  pump_grants();
  return 0;
}

void HomaEndpoint::pump_grants() {
  // SRPT order over incomplete messages.
  std::vector<ReceiverFlow*> order;
  order.reserve(rcv_.size());
  for (auto& [id, flow] : rcv_) {
    if (!flow.complete()) order.push_back(&flow);
  }
  std::sort(order.begin(), order.end(), [](const ReceiverFlow* a, const ReceiverFlow* b) {
    if (a->remaining_bytes() != b->remaining_bytes()) return a->remaining_bytes() < b->remaining_bytes();
    return a->id < b->id;  // deterministic tie-break
  });

  const auto k = static_cast<std::size_t>(std::max(1, cfg_.homa_overcommit));
  const std::uint64_t bdp = cfg_.bdp_payload_bytes();
  for (std::size_t rank = 0; rank < order.size() && rank < k; ++rank) {
    ReceiverFlow& flow = *order[rank];
    // Scheduled priorities start below the unscheduled band (priority 0).
    const auto prio = static_cast<std::uint8_t>(
        std::min<std::size_t>(rank + 1, cfg_.homa_priority_levels - 1));
    const std::uint64_t target = std::min(flow.bytes, flow.received_bytes + bdp);
    if (flow.granted_bytes < target) {
      flow.granted_bytes = target;
      send_offset_grant(flow, target, prio);
    }
  }
}

void HomaEndpoint::send_offset_grant(ReceiverFlow& flow, std::uint64_t offset, std::uint8_t priority) {
#ifdef AMRT_AUDIT
  if (auto* a = sched_.auditor()) a->on_offset_grant(flow.id, offset, flow.bytes);
#endif
  Packet grant = make_grant(flow);
  // The offset travels as the packet count it covers: the sender's target.
  grant.seq = net::packets_for_bytes(std::min(offset, flow.bytes));
  grant.priority = priority;
  grant.allowance = 0;  // offset semantics, not allowance semantics
  send(std::move(grant));
}

void HomaEndpoint::decorate_data(Packet& pkt, const SenderFlow& flow) {
  const std::uint32_t unscheduled =
      cfg_.unscheduled_start ? std::min<std::uint32_t>(cfg_.bdp_packets(), flow.total_pkts) : 0;
  pkt.priority = pkt.seq < unscheduled ? 0 : flow.sched_priority;
}

void HomaEndpoint::handle_grant_packet(SenderFlow& flow, const Packet& grant) {
  if (grant.has_request_seq()) {
    ReceiverDrivenEndpoint::handle_grant_packet(flow, grant);
    return;
  }
  while (flow.next_new_seq < grant.seq) {
    send_data_seq(flow, flow.next_new_seq);
    ++flow.next_new_seq;
  }
}

std::uint32_t HomaEndpoint::expected_sent_pkts(const ReceiverFlow& flow) const {
  const auto pkts = net::packets_for_bytes(std::min(flow.granted_bytes, flow.bytes));
  return std::max(pkts, std::min(flow.unscheduled_pkts, flow.total_pkts));
}

void HomaEndpoint::recovery_nudge(ReceiverFlow& flow) {
  // Re-advertise the current target — but only for messages inside the
  // overcommitment set. Homa has no mechanism to service a message beyond
  // its K granted slots; a stalled (e.g. unresponsive-sender) message that
  // holds a slot simply keeps blocking it (the Fig. 14 pathology).
  const auto k = static_cast<std::size_t>(std::max(1, cfg_.homa_overcommit));
  std::size_t rank = 0;
  for (const auto& [id, other] : rcv_) {
    if (other.complete() || id == flow.id) continue;
    if (other.remaining_bytes() < flow.remaining_bytes() ||
        (other.remaining_bytes() == flow.remaining_bytes() && id < flow.id)) {
      ++rank;
    }
  }
  if (rank >= k) return;
  const std::uint64_t target = std::min(flow.bytes, flow.received_bytes + cfg_.bdp_payload_bytes());
  flow.granted_bytes = std::max(flow.granted_bytes, target);
  send_offset_grant(flow, flow.granted_bytes, 1);
}

}  // namespace amrt::transport
