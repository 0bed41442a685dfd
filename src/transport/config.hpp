// Per-endpoint transport configuration shared by all four protocols.
//
// A TransportConfig is constructed once per experiment (both ends of every
// flow must agree on `unscheduled_start` and the BDP so the receiver can
// reconstruct what the sender was allowed to send).
#pragma once

#include <cstdint>
#include <string>

#include "net/packet.hpp"
#include "sim/time.hpp"

namespace amrt::transport {

enum class Protocol : std::uint8_t { kAmrt, kPhost, kHoma, kNdp, kDctcp };

[[nodiscard]] const char* to_string(Protocol p);
[[nodiscard]] Protocol protocol_from_string(const std::string& name);

struct TransportConfig {
  sim::Bandwidth host_rate = sim::Bandwidth::gbps(10);
  // Minimum end-to-end RTT of the topology (data out + grant back); drives
  // the BDP window and every timeout.
  sim::Duration base_rtt = sim::Duration::microseconds(100);

  // Sec. 6: receiver-driven flows start blind with one BDP of data.
  bool unscheduled_start = true;
  // Fig. 14: unresponsive senders announce flows (RTS) but never send data.
  bool responsive = true;

  // Receiver-side loss detection: if a flow stalls this long with packets
  // outstanding, re-request specific sequence numbers. Zero means "use the
  // protocol default" (1xRTT for AMRT per Sec. 6, 3xRTT otherwise).
  sim::Duration loss_timeout = sim::Duration::zero();
  std::uint32_t recovery_batch = 8;  // max seqs re-requested per timeout

  // --- control-plane loss hardening (DESIGN.md §11) -----------------------
  // The paper assumes a lossless control plane; under fault injection RTS,
  // grant and Done packets can vanish, so each control dependency gets a
  // bounded backstop. All windows are multiples of the loss timeout (rto).
  //
  // Sender RTS backstop: until the first grant/Done arrives, the RTS is
  // resent with exponential backoff (first after 2x rto, doubling, capped at
  // 8x rto) up to this many times; 0 disables the retry. The cumulative
  // window (~54x rto) stays below the finished-id retention below so a
  // Done-less retry still finds the receiver's finished record.
  std::uint32_t rts_retry_limit = 8;
  // Sender teardown: once every byte has been sent at least once and no
  // grant has been heard for this many rtos, the sender forgets the flow (a
  // lost Done otherwise leaks the state forever).
  std::uint32_t sender_linger_rtos = 64;
  // Receiver abandon: a flow the receiver is owed packets on (granted or
  // announced, never arrived) with no arrival for this many rtos is dropped
  // (its sender is gone — crashed, torn down, or unresponsive with the
  // retry budget spent). Flows whose every expected packet landed are
  // exempt: they are merely unscheduled, which Homa's overcommitment makes
  // arbitrarily long. Must exceed sender_linger_rtos so a merely-idle
  // sender is not abandoned first.
  std::uint32_t receiver_abandon_rtos = 128;
  // Finished-flow ids are kept for two epochs of this many rtos each (see
  // the finished_rcv_ compaction in receiver_driven.cpp) before stale-
  // retransmission filtering forgets them.
  std::uint32_t finished_epoch_rtos = 64;

  // Homa: number of messages granted concurrently (degree of overcommitment)
  // and the number of switch priority levels.
  int homa_overcommit = 2;
  std::uint8_t homa_priority_levels = 8;

  // pHost: outstanding-token window per flow, as a multiple of BDP.
  double phost_token_window_bdp = 1.0;

  // AMRT: packets triggered by a marked grant (paper: 2 — "send one more").
  // Exposed for the ablation benches.
  std::uint16_t amrt_marked_allowance = 2;

  // --- DCTCP (sender-driven wing, DESIGN.md §13) --------------------------
  // The windowed sender is clocked by per-packet ACKs; switches mark CE when
  // the egress data backlog is at least `dctcp_ecn_threshold_pkts` (the K of
  // the DCTCP paper), and the sender cuts its window by the marked-fraction
  // EWMA (gain g). Windows are counted in packets, not bytes: every data
  // packet is one MSS on the wire except a flow's short tail.
  double dctcp_g = 1.0 / 16.0;
  std::uint32_t dctcp_init_cwnd_pkts = 10;
  std::size_t dctcp_ecn_threshold_pkts = 20;
  // Hard cap on cwnd; 0 = derive from BDP (see dctcp_cwnd_cap_pkts()).
  std::uint32_t dctcp_cwnd_cap = 0;

  // PIAS-style multi-level feedback: a flow's data starts at priority 0 and
  // is demoted one level each time its cumulative bytes sent cross the next
  // threshold T_l = pias_base_threshold_bytes << l. Rides the same
  // strict-priority egress bands Homa uses.
  std::uint64_t pias_base_threshold_bytes = 50'000;
  std::uint8_t pias_levels = 8;

  // --- derived quantities ---
  [[nodiscard]] std::uint32_t bdp_packets() const {
    const std::int64_t bytes = host_rate.bytes_in(base_rtt);
    const auto pkts = static_cast<std::uint32_t>((bytes + net::kMtuBytes - 1) / net::kMtuBytes);
    return pkts == 0 ? 1 : pkts;
  }
  [[nodiscard]] std::uint64_t bdp_payload_bytes() const {
    return static_cast<std::uint64_t>(bdp_packets()) * net::kMssBytes;
  }
  [[nodiscard]] sim::Duration default_loss_timeout(Protocol p) const {
    if (loss_timeout > sim::Duration::zero()) return loss_timeout;
    return p == Protocol::kAmrt ? base_rtt : base_rtt * 3;
  }
  [[nodiscard]] std::uint32_t dctcp_cwnd_cap_pkts() const {
    if (dctcp_cwnd_cap != 0) return dctcp_cwnd_cap;
    // Generous by design: the cap is a sanity bound (audited), not the
    // congestion control — 8x BDP leaves slow start room to overshoot.
    const std::uint32_t cap = bdp_packets() * 8;
    return cap < 64 ? 64 : cap;
  }
};

}  // namespace amrt::transport
