// Unit tests for packet layout helpers (src/net/packet.hpp).
#include <gtest/gtest.h>

#include "net/packet.hpp"

using namespace amrt::net;

TEST(Packet, PacketsForBytesRoundsUp) {
  EXPECT_EQ(packets_for_bytes(0), 0u);
  EXPECT_EQ(packets_for_bytes(1), 1u);
  EXPECT_EQ(packets_for_bytes(kMssBytes), 1u);
  EXPECT_EQ(packets_for_bytes(kMssBytes + 1), 2u);
  EXPECT_EQ(packets_for_bytes(10 * kMssBytes), 10u);
}

TEST(Packet, PayloadOfSeqFullPackets) {
  const std::uint64_t total = 3 * kMssBytes;
  EXPECT_EQ(payload_of_seq(total, 0), kMssBytes);
  EXPECT_EQ(payload_of_seq(total, 2), kMssBytes);
}

TEST(Packet, PayloadOfSeqShortTail) {
  const std::uint64_t total = 2 * kMssBytes + 100;
  EXPECT_EQ(payload_of_seq(total, 1), kMssBytes);
  EXPECT_EQ(payload_of_seq(total, 2), 100u);
  EXPECT_EQ(payload_of_seq(total, 3), 0u);  // past the end
}

TEST(Packet, PayloadsSumToFlowSize) {
  for (std::uint64_t total : {1ull, 1460ull, 1461ull, 99'999ull, 1'000'000ull}) {
    std::uint64_t sum = 0;
    for (std::uint32_t s = 0; s < packets_for_bytes(total); ++s) sum += payload_of_seq(total, s);
    EXPECT_EQ(sum, total) << total;
  }
}

TEST(Packet, WireConstantsAreEthernet) {
  EXPECT_EQ(kMtuBytes, 1500u);
  EXPECT_EQ(kMssBytes + kHeaderBytes, kMtuBytes);
  EXPECT_EQ(kCtrlBytes, 64u);
}

TEST(Packet, ControlClassification) {
  Packet p;
  p.type = PacketType::kData;
  EXPECT_FALSE(p.is_control());
  p.trimmed = true;
  EXPECT_TRUE(p.is_control());  // trimmed headers ride the control band
  p.trimmed = false;
  for (auto t : {PacketType::kRts, PacketType::kGrant, PacketType::kDone}) {
    p.type = t;
    EXPECT_TRUE(p.is_control());
  }
}

TEST(Packet, DefaultsAreSane) {
  Packet p;
  EXPECT_FALSE(p.ce);
  EXPECT_FALSE(p.ecn_capable);
  EXPECT_EQ(p.allowance, 1);
  EXPECT_EQ(p.request_seq, kNoRequestSeq);
  EXPECT_FALSE(p.has_request_seq());
  EXPECT_EQ(p.priority, 0);
}

TEST(Packet, NodeIdComparable) {
  EXPECT_EQ(NodeId{3}, NodeId{3});
  EXPECT_LT(NodeId{2}, NodeId{3});
}

TEST(Packet, StrMentionsTypeAndFlow) {
  Packet p;
  p.flow = 42;
  p.type = PacketType::kGrant;
  const auto s = p.str();
  EXPECT_NE(s.find("GRANT"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
}
