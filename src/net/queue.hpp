// Egress queues.
//
// Every egress port owns one EgressQueue: a strict-priority *control band*
// (grants, tokens, pulls, RTS, and NDP's trimmed headers) that all
// receiver-driven designs rely on — credit packets must not starve behind
// data or the grant clock collapses — above 1..N FIFO data bands that share
// one packet limit. The disciplines the paper compares differ only in their
// band count and in what happens to a data packet that arrives at the limit:
//
//   drop_tail(cap)              — one band; the arrival is dropped (pHost,
//                                 AMRT, and every host NIC)
//   trimming(threshold)         — one band; NDP: the payload is cut and the
//                                 64B header is promoted into the control band
//   selective_drop(cap)         — one band; Aeolus: a scheduled arrival evicts
//                                 the youngest queued unscheduled packet
//   strict_priority(bands, cap) — N bands selected by Packet::priority
//                                 (Homa, PIAS); the arrival is dropped
//
// The set is closed: one concrete type with no vtable whose overflow policy
// is a private tag, so queues are plain values of one size.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "audit/hooks.hpp"
#include "net/packet.hpp"
#include "net/ring_deque.hpp"

namespace amrt::net {

struct QueueStats {
  std::uint64_t enqueued = 0;
  std::uint64_t dequeued = 0;
  std::uint64_t dropped = 0;
  std::uint64_t trimmed = 0;
  std::size_t max_data_pkts = 0;     // high-water mark of the data bands
  std::uint64_t data_bytes_in = 0;   // accepted data-band bytes
};

class EgressQueue {
 public:
  [[nodiscard]] static EgressQueue drop_tail(std::size_t capacity_pkts) {
    return EgressQueue{1, capacity_pkts, Overflow::kDrop};
  }
  // `threshold_pkts`: data packets held before trimming kicks in (NDP uses 8).
  [[nodiscard]] static EgressQueue trimming(std::size_t threshold_pkts) {
    return EgressQueue{1, threshold_pkts, Overflow::kTrim};
  }
  // Aeolus-style selective dropping (Hu et al., APNet'18 — cited as [11]):
  // when the data band is full, blind *unscheduled* packets are sacrificed
  // first so that granted (scheduled) traffic stays lossless. Combines with
  // AMRT's small-threshold discipline (Section 6) to protect the grant clock.
  [[nodiscard]] static EgressQueue selective_drop(std::size_t capacity_pkts) {
    return EgressQueue{1, capacity_pkts, Overflow::kEvictUnscheduled};
  }
  // `bands`: priority levels (0 is treated as 1); `capacity_pkts`: shared cap.
  [[nodiscard]] static EgressQueue strict_priority(std::size_t bands, std::size_t capacity_pkts) {
    return EgressQueue{std::max<std::size_t>(bands, 1), capacity_pkts, Overflow::kDrop};
  }

  // Consumes the packet: accepted into a band, trimmed, or dropped.
  inline void enqueue(Packet&& pkt);
  // Control band first, then the data bands in priority order.
  [[nodiscard]] inline std::optional<Packet> dequeue();

  [[nodiscard]] std::size_t control_pkts() const { return control_.size(); }
  [[nodiscard]] std::size_t data_pkts() const { return data_pkts_; }
  [[nodiscard]] std::size_t total_pkts() const { return control_.size() + data_pkts_; }
  [[nodiscard]] bool empty() const { return total_pkts() == 0; }
  [[nodiscard]] const QueueStats& stats() const { return stats_; }

  // Link failure (src/fault): every queued packet — control band included —
  // is discarded through the admitted-drop accounting, so the stats identity
  // and the audit shadow stay closed. Returns the number of packets flushed.
  std::size_t flush_faulted();

  // Attaches the run's invariant auditor under a dense shadow slot (Network
  // binds each queue with its port-pool slot; standalone tests pick any
  // small integer). A no-op in builds without AMRT_AUDIT.
  void audit_bind(audit::Auditor* a, std::uint32_t slot) {
#ifdef AMRT_AUDIT
    audit_ = a;
    audit_slot_ = slot;
#else
    (void)a;
    (void)slot;
#endif
  }

 private:
  // What a data packet that arrives at the limit does.
  enum class Overflow : std::uint8_t { kDrop, kTrim, kEvictUnscheduled };

  EgressQueue(std::size_t bands, std::size_t limit_pkts, Overflow overflow)
      : bands_(bands), limit_{limit_pkts}, overflow_{overflow} {}

  // Applies the overflow policy to an arrival at the limit. Returns true if
  // the packet was admitted into the data band (by eviction). Cold: the
  // eviction scan is the one O(depth) queue operation, so it stays in
  // queue.cpp.
  bool overflow(Packet&& pkt);

  // --- instrumented loss/trim choke points ---------------------------------
  // Every way a packet can leave a queue other than dequeue() goes through
  // exactly one of these three helpers, so the drop/trim statistics and the
  // audit build's byte accounting cannot drift apart per discipline.

  // Refuses an arriving packet at the data bands. Returns false so callers
  // can `return drop_data(...)` from overflow().
  bool drop_data(Packet&& pkt, audit::DropReason reason) {
    ++stats_.dropped;
#ifdef AMRT_AUDIT
    if (audit_ != nullptr) audit_->on_drop(audit::info_of(pkt), reason);
#endif
    (void)pkt;
    (void)reason;
    return false;
  }

  // Evicts a packet that was already admitted (selective drop, link-down
  // flush): the occupancy shadow must shrink too.
  void drop_admitted(Packet&& pkt, audit::DropReason reason) {
    ++stats_.dropped;
#ifdef AMRT_AUDIT
    if (audit_ != nullptr) {
      audit_->on_queue_unadmit(audit_slot_, pkt.wire_bytes);
      audit_->on_drop(audit::info_of(pkt), reason);
    }
#endif
    (void)pkt;
    (void)reason;
  }

  // NDP trim: cuts the payload and promotes the 64B header into the control
  // band. The byte shadow records the header at its post-trim size — the
  // 1500B payload leaves the accounting here, attributed as a trim.
  void trim_to_control(Packet&& pkt) {
    const std::uint32_t removed = pkt.payload_bytes;
    pkt.trimmed = true;
    pkt.payload_bytes = 0;
    pkt.wire_bytes = kCtrlBytes;
    ++stats_.trimmed;
#ifdef AMRT_AUDIT
    if (audit_ != nullptr) audit_->on_trim(audit::info_of(pkt), removed);
#endif
    (void)removed;
    push_control(std::move(pkt));
  }

  // Admission into the control band (direct control packets and trimmed
  // headers) — the control-band admit hook fires here.
  void push_control(Packet&& pkt) {
#ifdef AMRT_AUDIT
    const std::uint32_t wire = pkt.wire_bytes;
#endif
    control_.push_back(std::move(pkt));
#ifdef AMRT_AUDIT
    if (audit_ != nullptr) {
      audit_->on_queue_admit(audit_slot_, wire, total_pkts(), stats_.enqueued, stats_.dequeued,
                             stats_.dropped);
    }
#endif
  }

  // Admits a data packet, or applies the overflow policy at the limit.
  bool admit(Packet&& pkt) {
    if (data_pkts_ >= limit_) return overflow(std::move(pkt));
    bands_[std::min<std::size_t>(pkt.priority, bands_.size() - 1)].push_back(std::move(pkt));
    ++data_pkts_;
    return true;
  }

  [[nodiscard]] std::optional<Packet> pop_data() {
    for (auto& band : bands_) {
      if (!band.empty()) {
        --data_pkts_;
        return band.pop_front();
      }
    }
    return std::nullopt;
  }

  RingDeque<Packet> control_;
  std::vector<RingDeque<Packet>> bands_;  // data bands, highest priority first
  std::size_t limit_;                     // shared data-band packet limit
  std::size_t data_pkts_ = 0;
  QueueStats stats_;
  Overflow overflow_;
#ifdef AMRT_AUDIT
  audit::Auditor* audit_ = nullptr;
  std::uint32_t audit_slot_ = 0;
#endif
};

inline void EgressQueue::enqueue(Packet&& pkt) {
  ++stats_.enqueued;
  if (pkt.is_control()) {
    // Control packets are tiny and precious: strict priority, never dropped.
    push_control(std::move(pkt));
    return;
  }
  const auto bytes = pkt.wire_bytes;
  if (admit(std::move(pkt))) {
    stats_.data_bytes_in += bytes;
    if (data_pkts_ > stats_.max_data_pkts) stats_.max_data_pkts = data_pkts_;
#ifdef AMRT_AUDIT
    if (audit_ != nullptr) {
      audit_->on_queue_admit(audit_slot_, bytes, total_pkts(), stats_.enqueued, stats_.dequeued,
                             stats_.dropped);
    }
#endif
  }
}

inline std::optional<Packet> EgressQueue::dequeue() {
  std::optional<Packet> pkt =
      control_.empty() ? pop_data() : std::optional<Packet>{control_.pop_front()};
  if (pkt) {
    ++stats_.dequeued;
#ifdef AMRT_AUDIT
    if (audit_ != nullptr) {
      audit_->on_queue_dequeue(audit_slot_, pkt->wire_bytes, total_pkts(), stats_.enqueued,
                               stats_.dequeued, stats_.dropped);
    }
#endif
  }
  return pkt;
}

// Factory signature used by topology builders: experiments pick a discipline
// per protocol. `host_nic` distinguishes end-host NICs (which need room for
// the unscheduled first-BDP burst) from switch fabric ports.
using QueueFactory = std::function<EgressQueue(bool host_nic)>;

}  // namespace amrt::net
