// Tests for the harness utilities (tables, options) and the multipath modes
// used by the ablation benches.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <vector>

#include "harness/csv.hpp"
#include "harness/options.hpp"
#include "net/routing.hpp"

using namespace amrt;

TEST(Table, AlignedPrintContainsHeaderAndRows) {
  harness::Table t{{"a", "long_column", "c"}};
  t.add_row({"1", "2", "3"});
  t.add_row({"x", "y", "z"});
  std::ostringstream os;
  t.print(os);
  const auto s = os.str();
  EXPECT_NE(s.find("long_column"), std::string::npos);
  EXPECT_NE(s.find("x"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CsvIsCommaSeparated) {
  harness::Table t{{"a", "b"}};
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, ShortRowsArePadded) {
  harness::Table t{{"a", "b", "c"}};
  t.add_row({"1"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b,c\n1,,\n");
}

TEST(Fmt, NumberFormatting) {
  EXPECT_EQ(harness::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(harness::fmt(3.0, 0), "3");
  EXPECT_EQ(harness::fmt_pct(0.368), "36.8%");
  EXPECT_EQ(harness::fmt_pct(1.0, 0), "100%");
}

TEST(BenchOptions, DefaultsAreSane) {
  char prog[] = "bench";
  char* argv[] = {prog};
  const auto o = harness::parse_bench_options(1, argv);
  EXPECT_FALSE(o.paper_scale);
  EXPECT_FALSE(o.csv);
  EXPECT_FALSE(o.flows.has_value());
  EXPECT_EQ(o.seed, 1u);
}

TEST(BenchOptions, ParsesEveryFlag) {
  char prog[] = "bench";
  char a1[] = "--paper-scale";
  char a2[] = "--csv";
  char a3[] = "--flows=123";
  char a4[] = "--seed=9";
  char a5[] = "--loads=0.1,0.5,0.7";
  char a6[] = "--scale=0.5";
  char* argv[] = {prog, a1, a2, a3, a4, a5, a6};
  const auto o = harness::parse_bench_options(7, argv);
  EXPECT_TRUE(o.paper_scale);
  EXPECT_TRUE(o.csv);
  EXPECT_EQ(*o.flows, 123u);
  EXPECT_EQ(o.seed, 9u);
  ASSERT_EQ(o.loads.size(), 3u);
  EXPECT_DOUBLE_EQ(o.loads[1], 0.5);
  EXPECT_DOUBLE_EQ(o.scale, 0.5);
}

TEST(BenchOptions, ScaledAppliesMultiplierAndFloor) {
  harness::BenchOptions o;
  o.scale = 0.5;
  EXPECT_EQ(o.scaled(100), 50u);
  EXPECT_EQ(o.scaled(10), 20u);  // floor
  o.flows = 7;
  EXPECT_EQ(o.scaled(100), 7u);  // explicit override wins
}

TEST(BenchOptions, UnknownFlagsIgnored) {
  char prog[] = "bench";
  char a1[] = "--benchmark_filter=foo";
  char* argv[] = {prog, a1};
  EXPECT_NO_THROW((void)harness::parse_bench_options(2, argv));
}

TEST(BenchOptions, HelpExitsZeroAndMalformedValuesExitTwo) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  char prog[] = "bench";
  char help[] = "--help";
  char* help_argv[] = {prog, help};
  EXPECT_EXIT((void)harness::parse_bench_options(2, help_argv), ::testing::ExitedWithCode(0), "");
  for (const char* bad : {"--flows=abc", "--flows=12x", "--seed=-1", "--threads=", "--scale=fast",
                          "--loads=0.5,,0.7"}) {
    std::string arg = bad;
    char* argv[] = {prog, arg.data()};
    const std::string flag = arg.substr(0, arg.find('='));
    EXPECT_EXIT((void)harness::parse_bench_options(2, argv), ::testing::ExitedWithCode(2),
                flag + ": malformed value")
        << bad;
  }
}

// --- multipath modes -------------------------------------------------------

namespace {
net::Packet data_to(net::NodeId dst, net::FlowId flow) {
  net::Packet p;
  p.flow = flow;
  p.dst = dst;
  p.type = net::PacketType::kData;
  return p;
}
}  // namespace

TEST(Multipath, SprayRoundRobinsDataPackets) {
  net::RoutingTable rt;
  rt.set_routes(net::NodeId{1}, std::vector<net::PortId>{0, 1, 2, 3});
  rt.set_mode(net::MultipathMode::kPacketSpray);
  std::set<int> used;
  for (int i = 0; i < 4; ++i) used.insert(rt.select(data_to(net::NodeId{1}, 7)));
  EXPECT_EQ(used.size(), 4u) << "four consecutive packets of one flow hit four paths";
}

TEST(Multipath, SprayKeepsControlOnHashedPath) {
  net::RoutingTable rt;
  rt.set_routes(net::NodeId{1}, std::vector<net::PortId>{0, 1, 2, 3});
  rt.set_mode(net::MultipathMode::kPacketSpray);
  net::Packet grant;
  grant.flow = 7;
  grant.dst = net::NodeId{1};
  grant.type = net::PacketType::kGrant;
  const int first = rt.select(grant);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(rt.select(grant), first);
}

TEST(Multipath, PerFlowModeIsDefaultAndStable) {
  net::RoutingTable rt;
  rt.set_routes(net::NodeId{1}, std::vector<net::PortId>{0, 1, 2, 3});
  EXPECT_EQ(rt.mode(), net::MultipathMode::kPerFlowEcmp);
  const int first = rt.select(data_to(net::NodeId{1}, 7));
  for (int i = 0; i < 8; ++i) EXPECT_EQ(rt.select(data_to(net::NodeId{1}, 7)), first);
}
