// The on-wire unit of the simulator.
//
// One flat struct carries every protocol's fields; a given transport only
// reads/writes the subset it defines. This keeps the hot path allocation-free
// (packets move by value through ports and switches) at the cost of a few
// unused bytes per packet — the standard trade in packet-level simulators.
// Every packet is copied into a delivery event and sits in an egress ring,
// so its size is the per-packet memory cost: fields are as narrow as their
// range allows (byte counts never exceed the MTU), ordered widest first so
// the struct pads only its tail, and it is held to 48 bytes (DESIGN.md §8).
#pragma once

#include <compare>
#include <cstdint>
#include <string>

namespace amrt::net {

// Identifies a host or switch in a Network. Strongly typed so ports, flow
// ids and node ids cannot be mixed up.
struct NodeId {
  std::uint32_t value = 0;
  friend constexpr auto operator<=>(NodeId, NodeId) = default;
};

using FlowId = std::uint64_t;

enum class PacketType : std::uint8_t {
  kData,   // payload-carrying packet (possibly trimmed to a header by NDP queues)
  kRts,    // flow announcement: sender -> receiver, carries flow_bytes
  kGrant,  // receiver -> sender credit (AMRT grant, pHost token, Homa grant, NDP pull)
  kDone,   // receiver -> sender: flow fully received, release state
};

// Wire-size constants shared by all protocols (Section 3/4 of the paper:
// 1500B Ethernet MTU, ECN in the IP header, 64B minimum-size control frames).
inline constexpr std::uint32_t kMtuBytes = 1500;
inline constexpr std::uint32_t kHeaderBytes = 40;
inline constexpr std::uint32_t kMssBytes = kMtuBytes - kHeaderBytes;  // payload per full packet
inline constexpr std::uint32_t kCtrlBytes = 64;

// Grant field `request_seq` when the grant asks for new data rather than a
// retransmission. Packet sequence numbers stop below it: a flow's last
// packet index is packets_for_bytes(bytes) - 1 <= 2^32 - 2.
inline constexpr std::uint32_t kNoRequestSeq = UINT32_MAX;

struct Packet {
  FlowId flow = 0;
  std::uint64_t flow_bytes = 0;  // flow metadata (first packet / RTS advertising)
  // Data: packet index within the flow. Homa grant: the number of packets
  // the sender may have sent in all (the granted byte offset, in packets).
  std::uint32_t seq = 0;
  // Grant: retransmit exactly this sequence number (kNoRequestSeq: none).
  std::uint32_t request_seq = kNoRequestSeq;
  NodeId src{};
  NodeId dst{};
  std::uint16_t wire_bytes = 0;     // <= kMtuBytes
  std::uint16_t payload_bytes = 0;  // <= kMssBytes
  std::uint16_t allowance = 1;      // grant: number of new data packets it triggers
  PacketType type = PacketType::kData;

  // --- priority / ECN state (switch-visible header bits) ---
  std::uint8_t priority = 0;   // 0 = highest; selects a strict_priority band (Homa)
  bool ecn_capable = false;    // AMRT data packets participate in anti-ECN marking
  bool ce = false;             // anti-ECN: senders emit CE=1, switches AND it down (Eq. 3)
  // Conventional threshold ECN (DCTCP): senders emit CE=0, switches OR it up
  // when the egress backlog is deep. Mutually exclusive with the anti-ECN
  // interpretation above, so mixed fabrics carry both semantics side by side
  // and each marker acts only on its own packets.
  bool threshold_ecn = false;
  bool trimmed = false;        // NDP: payload removed by an overloaded queue
  bool unscheduled = false;    // sent blind in the first BDP (Aeolus-style drop preference)
  bool marked_grant = false;   // grant, AMRT: echo of the data packet's CE bit

#ifdef AMRT_AUDIT
  // Audit builds only: the AND of every hop's anti-ECN verdict, maintained
  // in parallel with `ce` so the auditor can verify Eq. 3 end to end. Lives
  // on the packet copy (not in the ledger) because a retransmission of the
  // same (flow, seq) may see different hop verdicts than the original.
  // It takes one of the two tail bytes the struct's alignment pads anyway.
  bool audit_ce_expected = false;
#endif

  [[nodiscard]] bool is_control() const { return type != PacketType::kData || trimmed; }
  [[nodiscard]] bool has_request_seq() const { return request_seq != kNoRequestSeq; }
  [[nodiscard]] std::string str() const;
};
static_assert(sizeof(Packet) <= 48, "a Packet rides in every delivery event and egress ring slot");

// Number of MSS-sized packets needed to carry `bytes` of payload.
[[nodiscard]] constexpr std::uint32_t packets_for_bytes(std::uint64_t bytes) {
  if (bytes == 0) return 0;
  return static_cast<std::uint32_t>((bytes + kMssBytes - 1) / kMssBytes);
}

// Payload carried by packet `seq` of a `total_bytes` flow (last one may be short).
[[nodiscard]] constexpr std::uint32_t payload_of_seq(std::uint64_t total_bytes, std::uint32_t seq) {
  const std::uint64_t offset = static_cast<std::uint64_t>(seq) * kMssBytes;
  if (offset >= total_bytes) return 0;
  const std::uint64_t left = total_bytes - offset;
  return static_cast<std::uint32_t>(left < kMssBytes ? left : kMssBytes);
}

}  // namespace amrt::net
