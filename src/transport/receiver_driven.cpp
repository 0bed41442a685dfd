#include "transport/receiver_driven.hpp"

#include <algorithm>
#include <utility>

#include "sim/trace.hpp"

namespace amrt::transport {

using net::Packet;
using net::PacketType;

ReceiverDrivenEndpoint::ReceiverDrivenEndpoint(sim::Simulation& sim, net::Host& host,
                                               TransportConfig cfg, stats::FlowObserver* observer,
                                               Protocol proto)
    : TransportEndpoint{sim, host, cfg, observer},
      proto_{proto},
      rto_{cfg.default_loss_timeout(proto)} {}

// ---------------------------------------------------------------------------
// Sender side
// ---------------------------------------------------------------------------

void ReceiverDrivenEndpoint::start_flow(const FlowSpec& spec) {
  const std::uint32_t total = net::packets_for_bytes(spec.bytes);
  if (total == 0) {
    AMRT_WARN("start_flow: empty flow %llu ignored", static_cast<unsigned long long>(spec.id));
    return;
  }
  auto [slot, inserted] = snd_.try_emplace(spec.id);
  if (!inserted) {
    AMRT_WARN("start_flow: duplicate flow id %llu", static_cast<unsigned long long>(spec.id));
    return;
  }
  SenderFlow& flow = *slot;
  flow.spec = spec;
  flow.total_pkts = total;

  if (observer_ != nullptr) observer_->on_flow_started(spec.id, spec.bytes, sched_.now());

  // Announce the flow so the receiver can schedule it (pHost RTS, Homa's
  // message header, NDP's first-window header all play this role). The RTS
  // can be lost, so until the receiver is heard from it is re-announced on a
  // backstop timer, and the whole flow record is reclaimed by the linger
  // timer if the control plane stays silent (DESIGN.md §11).
  send_rts(flow);
  flow.last_heard = sched_.now();
  if (cfg_.rts_retry_limit > 0) arm_rts_retry(flow);
  if (cfg_.sender_linger_rtos > 0) arm_linger(flow, rto_ * cfg_.sender_linger_rtos);

  if (cfg_.responsive && cfg_.unscheduled_start) {
    const auto window = std::min<std::uint32_t>(cfg_.bdp_packets(), total);
    send_new_packets(flow, window);
  }
}

void ReceiverDrivenEndpoint::send_rts(const SenderFlow& flow) {
  Packet rts;
  rts.flow = flow.spec.id;
  rts.type = PacketType::kRts;
  rts.wire_bytes = net::kCtrlBytes;
  rts.src = host_.id();
  rts.dst = flow.spec.dst;
  rts.flow_bytes = flow.spec.bytes;
  send(std::move(rts));
}

sim::Duration ReceiverDrivenEndpoint::rts_retry_delay(const SenderFlow& flow) const {
  // Flows whose unscheduled burst also announces them only need the RTS if
  // *everything* was lost, so they retry lazily — late enough that a healthy
  // congested run never fires one. Pure-RTS flows (unresponsive senders,
  // unscheduled_start off) retry with exponential backoff: until the RTS
  // lands the receiver does not know the flow exists at all.
  const bool announced_by_data = cfg_.responsive && cfg_.unscheduled_start;
  const std::uint32_t first = announced_by_data ? 16 : 2;
  const std::uint32_t cap = announced_by_data ? 16 : 8;
  const std::uint32_t shift = std::min<std::uint32_t>(flow.rts_tries, 8);
  return rto_ * std::min<std::uint32_t>(cap, first << shift);
}

void ReceiverDrivenEndpoint::arm_rts_retry(SenderFlow& flow) {
  flow.rts_timer =
      sched_.after(rts_retry_delay(flow), [this, id = flow.spec.id] { rts_retry_fire(id); });
}

void ReceiverDrivenEndpoint::rts_retry_fire(net::FlowId id) {
  SenderFlow* flow = snd_.find(id);
  if (flow == nullptr || flow->heard) return;
  if (flow->rts_tries >= cfg_.rts_retry_limit) return;  // budget spent; linger reclaims
  ++flow->rts_tries;
  send_rts(*flow);
  arm_rts_retry(*flow);
}

void ReceiverDrivenEndpoint::arm_linger(SenderFlow& flow, sim::Duration delay) {
  flow.linger_timer =
      sched_.after(delay, [this, id = flow.spec.id] { linger_fire(id); });
}

void ReceiverDrivenEndpoint::linger_fire(net::FlowId id) {
  SenderFlow* flow = snd_.find(id);
  if (flow == nullptr) return;
  const sim::Duration window = rto_ * cfg_.sender_linger_rtos;
  // A responsive sender still holding unsent bytes is waiting on the
  // receiver's scheduler, not on a lost control packet: Homa parks
  // beyond-overcommitment messages in exactly this state for arbitrarily
  // long (SRPT starvation), so silence alone must not tear the flow down.
  // The countdown applies once every byte has been sent at least once;
  // unresponsive senders ignore credit and so are always eligible.
  if (cfg_.responsive && flow->next_new_seq < flow->total_pkts) {
    arm_linger(*flow, window);
    return;
  }
  const auto idle = sched_.now() - flow->last_heard;
  if (idle < window) {
    arm_linger(*flow, window - idle);
    return;
  }
  // The control plane has been silent for the whole linger window: the Done
  // was lost, the receiver abandoned the flow, or the fabric ate every
  // grant. The receiver's own backstops re-pull anything it still wants;
  // holding the sender record forever is a leak, so forget it.
  flow->rts_timer.cancel();
  snd_.erase(id);
}

void ReceiverDrivenEndpoint::send_new_packets(SenderFlow& flow, std::uint32_t count) {
  while (count > 0 && flow.next_new_seq < flow.total_pkts) {
    send_data_seq(flow, flow.next_new_seq);
    ++flow.next_new_seq;
    --count;
  }
}

void ReceiverDrivenEndpoint::send_data_seq(SenderFlow& flow, std::uint32_t seq) {
  Packet pkt;
  pkt.flow = flow.spec.id;
  pkt.seq = seq;
  // Blind first-window packets are tagged so Aeolus-style queues can prefer
  // dropping them over scheduled (granted) traffic.
  pkt.unscheduled =
      cfg_.unscheduled_start && seq < std::min<std::uint32_t>(cfg_.bdp_packets(), flow.total_pkts);
  pkt.type = PacketType::kData;
  pkt.payload_bytes = net::payload_of_seq(flow.spec.bytes, seq);
  pkt.wire_bytes = pkt.payload_bytes + net::kHeaderBytes;
  pkt.src = host_.id();
  pkt.dst = flow.spec.dst;
  pkt.flow_bytes = flow.spec.bytes;
  decorate_data(pkt, flow);
  ++flow.packets_sent;
  send(std::move(pkt));
}

void ReceiverDrivenEndpoint::handle_grant_packet(SenderFlow& flow, const Packet& grant) {
  if (grant.has_request_seq()) {
    if (grant.request_seq < flow.total_pkts) send_data_seq(flow, grant.request_seq);
    return;
  }
  send_new_packets(flow, grant.allowance);
}

void ReceiverDrivenEndpoint::on_grant(Packet&& pkt) {
  SenderFlow* flow = snd_.find(pkt.flow);
  if (flow == nullptr) return;  // flow already torn down
  // Any grant proves the receiver knows the flow: stop re-announcing and
  // refresh the linger clock. This happens even for unresponsive senders —
  // the control path working is separate from whether data follows.
  if (!flow->heard) {
    flow->heard = true;
    flow->rts_timer.cancel();
  }
  flow->last_heard = sched_.now();
  if (!cfg_.responsive) return;  // Fig. 14: unresponsive senders ignore credit
  flow->sched_priority = pkt.priority;
#ifdef AMRT_AUDIT
  const std::uint64_t sent_before = flow->packets_sent;
#endif
  handle_grant_packet(*flow, pkt);
#ifdef AMRT_AUDIT
  if (auto* a = sched_.auditor()) {
    // The sender must not overshoot the grant: one packet for a repair
    // request, at most `allowance` otherwise. Homa's offset grants (a
    // packet count in `seq`) authorize by position, not count — exempt.
    a->on_grant_response(pkt.flow, pkt.allowance, pkt.has_request_seq(),
                         flow->packets_sent - sent_before, pkt.seq > 0);
  }
#endif
}

void ReceiverDrivenEndpoint::on_done(Packet&& pkt) {
  SenderFlow* flow = snd_.find(pkt.flow);
  if (flow == nullptr) return;
  flow->rts_timer.cancel();
  flow->linger_timer.cancel();
  snd_.erase(pkt.flow);
}

// ---------------------------------------------------------------------------
// Receiver side
// ---------------------------------------------------------------------------

ReceiverDrivenEndpoint::ReceiverFlow* ReceiverDrivenEndpoint::ensure_registered(const Packet& pkt) {
  // Common case (every arrival after the first) resolves in this one probe;
  // the handle is then threaded through after_arrival/issue_credits, so the
  // whole arrival chain touches the flow table exactly once.
  if (ReceiverFlow* open = rcv_.find(pkt.flow)) return open;
  if (is_finished(pkt.flow)) return nullptr;
  auto [slot, inserted] = rcv_.try_emplace(pkt.flow);
  ReceiverFlow& flow = *slot;
  if (inserted) {
    flow.id = pkt.flow;
    flow.src = pkt.src;
    flow.bytes = pkt.flow_bytes;
    flow.total_pkts = net::packets_for_bytes(pkt.flow_bytes);
    flow.unscheduled_pkts =
        cfg_.unscheduled_start ? std::min<std::uint32_t>(cfg_.bdp_packets(), flow.total_pkts) : 0;
    flow.granted_bytes =
        static_cast<std::uint64_t>(flow.unscheduled_pkts) * net::kMssBytes;
    flow.seqs.resize(flow.total_pkts);
    flow.first_seen = sched_.now();
    flow.last_arrival = sched_.now();
    arm_recovery(flow, rto_);
  }
  return &flow;
}

net::Packet ReceiverDrivenEndpoint::make_grant(const ReceiverFlow& flow) const {
  Packet grant;
  grant.flow = flow.id;
  grant.type = PacketType::kGrant;
  grant.wire_bytes = net::kCtrlBytes;
  grant.src = host_.id();
  grant.dst = flow.src;
  return grant;
}

std::uint32_t ReceiverDrivenEndpoint::grant_new(ReceiverFlow& flow, std::uint32_t count, bool marked) {
  auto remaining = flow.remaining_ungranted();
  const auto credits = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(count, remaining));
  if (credits == 0) return 0;
  // The wire allowance field is 16 bits. A credit burst beyond 65535 (a
  // recovery nudge against a multi-GB flow) is chunked across several grant
  // packets; truncating the cast would wrap and silently strand the rest of
  // the flow. Marked AMRT grants carry at most amrt_marked_allowance (2)
  // credits, so they are always a single chunk.
  std::uint32_t left = credits;
  while (left > 0) {
    const auto chunk = std::min<std::uint32_t>(left, 65535U);
    flow.granted_new += chunk;
#ifdef AMRT_AUDIT
    if (auto* a = sched_.auditor()) {
      // A marked AMRT grant must carry exactly the configured allowance (the
      // paper's "send one more"), clamped only by what is left to grant.
      a->on_grant_sent(flow.id, marked, chunk,
                       static_cast<std::uint64_t>(flow.unscheduled_pkts) + flow.granted_new,
                       flow.total_pkts, remaining, marked ? cfg_.amrt_marked_allowance : 0);
    }
#endif
    remaining -= chunk;
    Packet grant = make_grant(flow);
    grant.allowance = static_cast<std::uint16_t>(chunk);
    grant.marked_grant = marked;
    send(std::move(grant));
    left -= chunk;
  }
  return credits;
}

void ReceiverDrivenEndpoint::on_data(Packet&& pkt) {
  ReceiverFlow* flow = ensure_registered(pkt);
  if (flow == nullptr) return;  // stale retransmission of a finished flow
  flow->last_arrival = sched_.now();

  bool fresh = false;
  if (pkt.seq < flow->total_pkts) {
    if (pkt.seq > flow->max_seen) flow->max_seen = pkt.seq;
    if (!pkt.trimmed && !flow->seqs.got(pkt.seq)) {
      flow->seqs.set_got(pkt.seq);
      ++flow->received_pkts;
      flow->received_bytes += pkt.payload_bytes;
      fresh = true;
      if (observer_ != nullptr) {
        observer_->on_flow_progress(flow->id, pkt.payload_bytes, sched_.now());
      }
    }
  }
  if (detect_holes()) detect_losses(*flow);

  after_arrival(*flow, pkt, fresh);

  if (flow->complete()) finish_receive(*flow);
}

// A sequence hole more than kReorderSlack behind the highest seq seen is a
// presumed drop (per-flow ECMP keeps paths in order; only losses make holes).
void ReceiverDrivenEndpoint::detect_losses(ReceiverFlow& flow) {
  constexpr std::uint32_t kReorderSlack = 2;
  const std::uint32_t horizon = flow.max_seen > kReorderSlack ? flow.max_seen - kReorderSlack : 0;
  for (std::uint32_t seq = flow.detect_cursor; seq < horizon; ++seq) {
    if (!flow.seqs.got(seq) && flow.seqs.mark_repair(seq)) {
      // Fresh detections are immediately eligible and jump the queue.
      flow.repair_q.push_front(RepairEntry{seq, sched_.now()});
    }
  }
  flow.detect_cursor = std::max(flow.detect_cursor, horizon);
}

std::optional<std::uint32_t> ReceiverDrivenEndpoint::pop_due_repair(ReceiverFlow& flow) {
  while (!flow.repair_q.empty()) {
    const RepairEntry e = flow.repair_q.front();
    if (flow.seqs.got(e.seq)) {  // repaired in the meantime
      flow.repair_q.pop_front();
      flow.seqs.clear_repair(e.seq);
      continue;
    }
    if (e.eligible_at > sched_.now()) return std::nullopt;  // retry window still open
    flow.repair_q.pop_front();
    // Leave the repair bit set and re-queue for another try in case the
    // retransmission is lost too.
    flow.repair_q.push_back(RepairEntry{e.seq, sched_.now() + rto_});
    return e.seq;
  }
  return std::nullopt;
}

std::optional<std::uint32_t> ReceiverDrivenEndpoint::pop_due_suspect(ReceiverFlow& flow) {
  while (!flow.suspect_q.empty()) {
    const RepairEntry e = flow.suspect_q.front();
    if (flow.seqs.got(e.seq)) {  // it was queued after all, not lost
      flow.suspect_q.pop_front();
      flow.seqs.clear_repair(e.seq);
      continue;
    }
    if (e.eligible_at > sched_.now()) return std::nullopt;
    flow.suspect_q.pop_front();
    flow.suspect_q.push_back(RepairEntry{e.seq, sched_.now() + rto_});
    return e.seq;
  }
  return std::nullopt;
}

std::uint32_t ReceiverDrivenEndpoint::grant_new_credits(ReceiverFlow& flow, std::uint32_t count,
                                                        bool marked) {
  return grant_new(flow, count, marked);
}

std::uint32_t ReceiverDrivenEndpoint::issue_credits(ReceiverFlow& flow, std::uint32_t count,
                                                    bool marked) {
  // New data first: while the flow has ungranted packets, a lost packet's
  // credit is simply gone — the circulation (and thus the rate) shrinks,
  // exactly the conservative behaviour the paper ascribes to receiver-driven
  // designs. Only once the grant clock has nothing new to trigger do
  // arrivals start pulling retransmissions of the presumed-lost packets.
  std::uint32_t issued = grant_new_credits(flow, count, marked);
  while (issued < count) {
    const auto repair = pop_due_repair(flow);
    if (!repair) break;
#ifdef AMRT_AUDIT
    if (auto* a = sched_.auditor()) a->on_repair_grant(flow.id, *repair, flow.total_pkts);
#endif
    Packet grant = make_grant(flow);
    grant.request_seq = *repair;
    grant.allowance = 0;
    send(std::move(grant));
    ++issued;
  }
  return issued;
}

bool ReceiverDrivenEndpoint::wants_credit(ReceiverFlow& flow) {
  if (flow.remaining_ungranted() > 0) return true;
  // Peek for a due repair without consuming it.
  while (!flow.repair_q.empty() && flow.seqs.got(flow.repair_q.front().seq)) {
    flow.seqs.clear_repair(flow.repair_q.front().seq);
    flow.repair_q.pop_front();
  }
  return !flow.repair_q.empty() && flow.repair_q.front().eligible_at <= sched_.now();
}

void ReceiverDrivenEndpoint::on_rts(Packet&& pkt) {
  ReceiverFlow* flow = ensure_registered(pkt);
  if (flow == nullptr) {
    // The flow already finished but the sender is still announcing it: the
    // Done was lost. Resend it so the sender's retry/linger backstops stand
    // down. Only an RTS triggers this — stale *data* duplicates are routine
    // in healthy runs and must not generate control traffic.
    Packet done;
    done.flow = pkt.flow;
    done.type = PacketType::kDone;
    done.wire_bytes = net::kCtrlBytes;
    done.src = host_.id();
    done.dst = pkt.src;
    send(std::move(done));
    return;
  }
  // An RTS is an announcement, not an arrival: it must not reset the
  // stall detector, or unresponsive senders would never look stalled.
  after_arrival(*flow, pkt, false);
}

void ReceiverDrivenEndpoint::finish_receive(ReceiverFlow& flow) {
  flow.recovery_timer.cancel();
#ifdef AMRT_AUDIT
  if (auto* a = sched_.auditor()) {
    // Bitmap consistency at completion: the received counter, the total and
    // the popcount of the got-bits must all agree. Also registers the flow
    // as finished so any later grant for it is flagged.
    a->on_flow_finished(flow.id, flow.total_pkts, flow.received_pkts, flow.seqs.count_got());
  }
#endif
  Packet done = make_grant(flow);
  done.type = PacketType::kDone;
  send(std::move(done));
  if (observer_ != nullptr) observer_->on_flow_completed(flow.id, sched_.now());
  remember_finished(flow.id);
  rcv_.erase(flow.id);
}

void ReceiverDrivenEndpoint::remember_finished(net::FlowId id) {
  // Two-generation compaction of the finished-id filter. Rotation is lazy
  // (on the insert path, no standing timer — runs must drain naturally):
  // once the current epoch is over, the current generation becomes the old
  // one and the previous old generation is dropped. An id therefore
  // survives between one and two epochs, long enough to outlast every
  // sender backstop (linger < epoch by config contract).
  const sim::Duration epoch = rto_ * std::max<std::uint32_t>(cfg_.finished_epoch_rtos, 1);
  if (finished_epoch_end_ == sim::TimePoint{}) {
    finished_epoch_end_ = sched_.now() + epoch;
  } else if (sched_.now() >= finished_epoch_end_) {
    std::swap(finished_prev_, finished_rcv_);
    finished_rcv_.clear();
    finished_epoch_end_ = sched_.now() + epoch;
  }
  finished_rcv_.insert(id);
}

// ---------------------------------------------------------------------------
// Loss recovery (Sec. 6: the receiver reissues grants for packets that fail
// to arrive within a timeout of being triggered).
// ---------------------------------------------------------------------------

std::uint32_t ReceiverDrivenEndpoint::expected_sent_pkts(const ReceiverFlow& flow) const {
  const std::uint64_t n = static_cast<std::uint64_t>(flow.unscheduled_pkts) + flow.granted_new;
  return static_cast<std::uint32_t>(std::min<std::uint64_t>(n, flow.total_pkts));
}

void ReceiverDrivenEndpoint::recovery_nudge(ReceiverFlow& flow) {
  grant_new(flow, cfg_.recovery_batch, /*marked=*/false);
}

void ReceiverDrivenEndpoint::arm_recovery(ReceiverFlow& flow, sim::Duration delay) {
  flow.recovery_timer = sched_.after(delay, [this, id = flow.id] { recovery_fire(id); });
}

// The liveness backstop (Sec. 6's timeout). Losses during an active flow
// are repaired in-band by issue_credits; this timer only acts when the flow
// has gone completely silent for an RTO — then the arrival clock is dead
// and nothing in-band can restart it. It re-requests missing packets
// directly (including tail losses the hole detector cannot see) and, if
// nothing is missing, pushes the grant clock with fresh credits.
void ReceiverDrivenEndpoint::recovery_fire(net::FlowId id) {
  ReceiverFlow* open = rcv_.find(id);
  if (open == nullptr) return;
  ReceiverFlow& flow = *open;

  const auto idle = sched_.now() - flow.last_arrival;
  if (idle < rto_) {
    flow.stall_backoff = 1;  // the flow is alive again
    arm_recovery(flow, rto_ - idle);
    return;
  }

  // Abandon: nothing has arrived for a long multiple of the timeout — the
  // sender is gone (crashed, reclaimed by its own linger backstop, or
  // unresponsive with the RTS budget spent). Dropping the record bounds
  // receiver state and lets the run drain; a late retransmission would
  // simply re-register the flow. Only flows the receiver is actually owed
  // packets on qualify: a flow whose every expected packet landed is merely
  // unscheduled (a Homa message parked outside the overcommitment set), and
  // abandoning it would strand a perfectly healthy sender.
  if (cfg_.receiver_abandon_rtos > 0 && idle >= rto_ * cfg_.receiver_abandon_rtos &&
      flow.received_pkts < expected_sent_pkts(flow)) {
    rcv_.erase(id);
    return;
  }

  // Feed every missing sequence below the expected horizon through the
  // shared repair bookkeeping (pending bit + suspect queue). mark_repair
  // dedupes: a seq the in-band path already re-requested keeps its single
  // repair_q entry and its retry window, instead of being re-requested in
  // parallel. Suspects carry no arrival-side evidence of loss — with the
  // AMRT timeout at a single base RTT, "expected but not arrived" is
  // routinely a queued packet — so they get an extra rto of grace to land,
  // and only this backstop (never the in-band credit path) requests them,
  // at most a batch per fire under the stall backoff.
  const std::uint32_t horizon = expected_sent_pkts(flow);
  for (std::uint32_t seq = flow.scan_cursor; seq < horizon; ++seq) {
    if (flow.seqs.got(seq)) {
      if (seq == flow.scan_cursor) ++flow.scan_cursor;  // advance past the received prefix
      continue;
    }
    if (flow.seqs.mark_repair(seq)) {
      flow.suspect_q.push_back(RepairEntry{seq, sched_.now() + rto_});
    }
  }
  std::uint32_t requested = 0;
  while (requested < cfg_.recovery_batch) {
    auto repair = pop_due_repair(flow);
    if (!repair) repair = pop_due_suspect(flow);
    if (!repair) break;
#ifdef AMRT_AUDIT
    if (auto* a = sched_.auditor()) a->on_repair_grant(flow.id, *repair, flow.total_pkts);
#endif
    Packet grant = make_grant(flow);
    grant.request_seq = *repair;
    grant.allowance = 0;
    send(std::move(grant));
    ++requested;
  }
  if (requested == 0 && flow.remaining_ungranted() > 0) {
    recovery_nudge(flow);
  }
  // Exponential backoff while the flow stays silent: with many flows
  // timing out in lockstep (incast), fixed-interval retries re-overload
  // the queue that dropped them in the first place.
  arm_recovery(flow, rto_ * flow.stall_backoff);
  flow.stall_backoff = std::min<std::uint32_t>(flow.stall_backoff * 2, 8);
}

}  // namespace amrt::transport
