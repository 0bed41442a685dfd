// DCTCP: the sender-driven congestion-control wing (DESIGN.md §13).
//
// Everything else in this repo is receiver-driven — the receiver paces data
// with explicit credits. DCTCP is the conventional counterpoint the paper's
// fabrics would actually share switches with: a windowed sender, per-packet
// ACKs, and the marked-fraction EWMA of Alizadeh et al. (SIGCOMM'10):
//
//   per window:  F = #marked ACKs / #ACKs,   alpha <- (1 - g) alpha + g F
//   on marks:    cwnd <- max(1, cwnd * (1 - alpha / 2))
//
// Switches mark departing data packets when the egress backlog is >= K
// (core/threshold_ecn.hpp); the receiver echoes each packet's CE bit in its
// ACK (ECN-Echo). Growth is TCP-shaped: slow start (+1 per ACK) below
// ssthresh, congestion avoidance (+1/cwnd per ACK) above, and an RTO
// collapses the window to 1.
//
// PIAS (Bai et al., NSDI'15) rides along as the priority policy: data starts
// in the highest strict-priority band and is demoted as the flow's
// cumulative bytes sent cross geometric thresholds, approximating SJF
// without knowing flow sizes. The demotion function is pure
// (pias_priority()) so tests can pin the threshold crossings exactly.
//
// Wire mapping: data uses PacketType::kData; ACKs reuse PacketType::kGrant
// (seq = ACKed sequence, marked_grant = ECN-Echo, allowance = 0). Grants are
// control packets, so ACKs ride the lossless strict-priority control band —
// the standard "ACKs are never ECN-marked or dropped by DCTCP" assumption —
// and only injected faults can lose them, which the RTO path covers.
#pragma once

#include <cstdint>
#include <vector>

#include "net/ring_deque.hpp"
#include "transport/endpoint.hpp"
#include "util/flat_map.hpp"

namespace amrt::transport {

// The window state machine, separated from the endpoint so unit tests can
// drive it ACK by ACK against hand-computed sequences.
class DctcpCc {
 public:
  DctcpCc() = default;
  DctcpCc(double g, std::uint32_t init_cwnd_pkts, std::uint32_t cap_pkts)
      : g_{g}, cwnd_{static_cast<double>(init_cwnd_pkts < 1 ? 1 : init_cwnd_pkts)},
        cap_{static_cast<double>(cap_pkts < 1 ? 1 : cap_pkts)} {
    if (cwnd_ > cap_) cwnd_ = cap_;
  }

  // Feed one *fresh* ACK (duplicates must not clock the window). `marked` is
  // the ACK's ECN-Echo. Returns true when this ACK closed an observation
  // window (alpha was updated, and the window cut applied if marks arrived).
  bool on_ack(bool marked) {
    if (window_len_ == 0) open_window();
    // Growth first, cut at the window edge: one cut per window, as specified.
    if (cwnd_ < ssthresh_) {
      cwnd_ += 1.0;  // slow start
    } else {
      cwnd_ += 1.0 / cwnd_;  // congestion avoidance
    }
    if (cwnd_ > cap_) cwnd_ = cap_;
    ++acks_;
    if (marked) ++marks_;
    if (acks_ < window_len_) return false;

    const double f = static_cast<double>(marks_) / static_cast<double>(acks_);
    alpha_ = (1.0 - g_) * alpha_ + g_ * f;
    if (marks_ > 0) {
      cwnd_ *= 1.0 - alpha_ / 2.0;
      if (cwnd_ < 1.0) cwnd_ = 1.0;
      ssthresh_ = cwnd_;  // marks end slow start
      ++cuts_;
    }
    open_window();
    return true;
  }

  // Retransmission timeout: collapse to one packet, remember half the window
  // as the slow-start exit, and restart the observation window.
  void on_timeout() {
    ssthresh_ = cwnd_ / 2.0;
    if (ssthresh_ < 2.0) ssthresh_ = 2.0;
    cwnd_ = 1.0;
    window_len_ = acks_ = marks_ = 0;
    ++timeouts_;
  }

  [[nodiscard]] std::uint32_t cwnd_pkts() const {
    return cwnd_ < 1.0 ? 1u : static_cast<std::uint32_t>(cwnd_);
  }
  [[nodiscard]] double cwnd() const { return cwnd_; }
  [[nodiscard]] double alpha() const { return alpha_; }
  [[nodiscard]] double cap() const { return cap_; }
  [[nodiscard]] bool in_slow_start() const { return cwnd_ < ssthresh_; }
  [[nodiscard]] std::uint64_t cuts() const { return cuts_; }
  [[nodiscard]] std::uint64_t timeouts() const { return timeouts_; }

 private:
  void open_window() {
    window_len_ = cwnd_pkts();
    acks_ = marks_ = 0;
  }

  double g_ = 1.0 / 16.0;
  double alpha_ = 1.0;  // conservative start, per the DCTCP paper
  double cwnd_ = 10.0;
  double ssthresh_ = 1e18;  // slow start until the first cut or timeout
  double cap_ = 1e9;
  std::uint32_t window_len_ = 0;  // snapshot of cwnd when the window opened
  std::uint32_t acks_ = 0;
  std::uint32_t marks_ = 0;
  std::uint64_t cuts_ = 0;
  std::uint64_t timeouts_ = 0;
};

// PIAS demotion: the priority band for a packet sent after `bytes_sent`
// cumulative payload bytes, with thresholds T_l = base << l. Returns values
// in [0, levels); 0 is the highest band.
[[nodiscard]] std::uint8_t pias_priority(std::uint64_t bytes_sent, std::uint64_t base_threshold,
                                         std::uint8_t levels);

class DctcpEndpoint final : public TransportEndpoint {
 public:
  DctcpEndpoint(sim::Simulation& sim, net::Host& host, TransportConfig cfg,
                stats::FlowObserver* observer);

  void start_flow(const FlowSpec& spec) override;

  // --- introspection (tests/monitors) ---
  [[nodiscard]] std::size_t open_sender_flows() const { return snd_.size(); }
  [[nodiscard]] std::size_t open_receiver_flows() const { return rcv_.size(); }
  [[nodiscard]] const DctcpCc* sender_cc(net::FlowId id) const;
  [[nodiscard]] std::uint64_t timeouts() const { return timeouts_; }

 protected:
  void on_data(net::Packet&& pkt) override;
  void on_grant(net::Packet&& pkt) override;  // ACKs ride the kGrant type
  // DCTCP has no RTS/Done control plane; stray packets are ignored.
  void on_rts(net::Packet&& pkt) override { (void)pkt; }
  void on_done(net::Packet&& pkt) override { (void)pkt; }

 private:
  enum SeqState : std::uint8_t { kUnsent = 0, kInflight = 1, kLost = 2, kAcked = 3 };

  struct SenderFlow {
    FlowSpec spec;
    std::uint32_t total_pkts = 0;
    std::uint32_t next_new = 0;  // next never-sent sequence number
    std::uint32_t inflight = 0;
    std::uint32_t acked = 0;
    std::uint64_t bytes_sent = 0;  // cumulative payload, drives PIAS demotion
    std::vector<std::uint8_t> state;  // SeqState per sequence number
    net::RingDeque<std::uint32_t> lost_q;
    DctcpCc cc;
    sim::Scheduler::Handle rto_timer{};
  };

  struct ReceiverFlow {
    net::FlowId id = 0;
    std::uint64_t bytes = 0;
    std::uint32_t total_pkts = 0;
    std::uint32_t received = 0;
    std::vector<std::uint8_t> got;
  };

  // Fills the window: retransmissions first, then new data, never exceeding
  // floor(cwnd) packets in flight.
  void pump(SenderFlow& flow);
  void send_seq(SenderFlow& flow, std::uint32_t seq);
  void send_ack(const net::Packet& data);
  void arm_rto(SenderFlow& flow);
  void rto_fire(net::FlowId id);
  [[nodiscard]] static std::uint32_t flow_pkts(std::uint64_t bytes) {
    // A zero-byte flow still sends one (empty) packet so completion is
    // always signalled by the receiver.
    const std::uint32_t n = net::packets_for_bytes(bytes);
    return n == 0 ? 1 : n;
  }

  util::FlatMap<net::FlowId, SenderFlow> snd_;
  util::FlatMap<net::FlowId, ReceiverFlow> rcv_;
  // Completed receiver flows: stale retransmissions (the Done-equivalent ACK
  // was lost) are re-ACKed from here so the sender can finish. Small ids
  // accumulate for the run's lifetime — bounded by the flow count, same as
  // the FCT recorder.
  util::FlatSet<net::FlowId> finished_rcv_;
  sim::Duration rto_;
  std::uint64_t timeouts_ = 0;
};

}  // namespace amrt::transport
