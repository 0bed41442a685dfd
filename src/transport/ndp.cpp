#include "transport/ndp.hpp"

#include <algorithm>

namespace amrt::transport {

using net::Packet;
using net::PacketType;

void NdpEndpoint::after_arrival(ReceiverFlow& flow, const Packet& pkt, bool fresh) {
  (void)fresh;
  if (pkt.type == PacketType::kRts) {
    // With line-rate start the first window needs no pulls; without it
    // (responsiveness experiments) bootstrap the pull clock.
    if (flow.unscheduled_pkts == 0) enqueue_new_pull(flow);
    return;
  }
  if (pkt.trimmed) {
    // The header survived the trim: pull the payload again, ahead of new data.
    enqueue_rtx_pull(flow, pkt.seq);
    return;
  }
  enqueue_new_pull(flow);
}

void NdpEndpoint::enqueue_new_pull(ReceiverFlow& flow) {
  if (flow.remaining_ungranted() <= flow.pending_new_pulls) return;  // all remaining data covered
  ++flow.pending_new_pulls;
  pull_queue_.push_back(PullRequest{flow.id, net::kNoRequestSeq});
  arm_pacer();
}

void NdpEndpoint::enqueue_rtx_pull(ReceiverFlow& flow, std::uint32_t seq) {
  // Retransmissions jump the queue: NDP prioritizes loss repair.
  pull_queue_.push_front(PullRequest{flow.id, seq});
  arm_pacer();
}

void NdpEndpoint::arm_pacer() {
  if (pacer_armed_ || pull_queue_.empty()) return;
  pacer_armed_ = true;
  const auto earliest = last_pull_ + pull_spacing_;
  const auto delay = earliest > sched_.now() ? earliest - sched_.now() : sim::Duration::zero();
  sched_.after(delay, [this] { pacer_fire(); });
}

void NdpEndpoint::pacer_fire() {
  pacer_armed_ = false;
  while (!pull_queue_.empty()) {
    const PullRequest req = pull_queue_.pop_front();
    ReceiverFlow* open = rcv_.find(req.flow);
    if (open == nullptr) {
      // Flow completed while the pull waited; drop the stale request (its
      // pending count died with the flow record).
      continue;
    }
    ReceiverFlow& flow = *open;
    Packet pull = make_grant(flow);
    if (req.rtx_seq != net::kNoRequestSeq) {
#ifdef AMRT_AUDIT
      if (auto* a = sched_.auditor()) a->on_repair_grant(flow.id, req.rtx_seq, flow.total_pkts);
#endif
      pull.request_seq = req.rtx_seq;
      pull.allowance = 0;
    } else {
      if (flow.pending_new_pulls > 0) --flow.pending_new_pulls;
      const std::uint64_t remaining = flow.remaining_ungranted();
      if (remaining == 0) continue;  // raced with recovery grants
      ++flow.granted_new;
      pull.allowance = 1;
#ifdef AMRT_AUDIT
      if (auto* a = sched_.auditor()) {
        // Pull pacing bypasses grant_new, so this leg reports separately.
        a->on_grant_sent(flow.id, /*marked=*/false, 1,
                         static_cast<std::uint64_t>(flow.unscheduled_pkts) + flow.granted_new,
                         flow.total_pkts, remaining, /*marked_expected=*/0);
      }
#endif
    }
    last_pull_ = sched_.now();
    send(std::move(pull));
    break;
  }
  arm_pacer();
}

}  // namespace amrt::transport
