// Unit tests for the flow-level fast path (src/flowsim): fabric link layout
// and path resolution, max-min water-filling, the AMRT/DCTCP/traditional
// rate ramps, usage recording, observer accounting, component-local
// recomputes and the flow-fidelity golden fixture.
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "flowsim/fabric.hpp"
#include "flowsim/flowsim.hpp"
#include "golden_runs.hpp"
#include "stats/fct.hpp"

using namespace amrt;
using namespace amrt::flowsim;
using namespace amrt::sim::literals;
using amrt::sim::Bandwidth;
using amrt::sim::Duration;
using amrt::sim::TimePoint;

namespace {

constexpr double kCapBps = 10e9;

Fabric small_ls() { return Fabric::leaf_spine(2, 2, 2, Bandwidth::gbps(10)); }

FlowSimConfig quiet_config() {
  FlowSimConfig cfg;
  cfg.rtt = 100_us;
  cfg.payload_fraction = 1460.0 / 1500.0;
  cfg.prop_delay = 10_us;
  cfg.mtu_tx = Duration::nanoseconds(1200);
  return cfg;
}

// Payload bytes/sec a 10G link carries under the MSS/MTU derate.
double payload_Bps(const FlowSimConfig& cfg) { return kCapBps / 8.0 * cfg.payload_fraction; }

}  // namespace

// ---------------------------------------------------------------------------
// Fabric: layout and path resolution.

TEST(FlowFabric, LeafSpineLinkLayout) {
  const Fabric f = small_ls();
  EXPECT_EQ(f.n_hosts(), 4u);
  // [4 host up][4 host down][2*2 leaf up][2*2 spine down].
  EXPECT_EQ(f.link_count(), 16u);
  EXPECT_EQ(f.host_up(0), 0u);
  EXPECT_EQ(f.host_down(0), 4u);
  EXPECT_EQ(f.leaf_up(0, 0), 8u);
  EXPECT_EQ(f.leaf_up(1, 1), 11u);
  EXPECT_EQ(f.spine_down(0, 0), 12u);
  EXPECT_EQ(f.spine_down(1, 1), 15u);
  for (LinkId l = 0; l < f.link_count(); ++l) EXPECT_DOUBLE_EQ(f.capacity_bps(l), kCapBps);
}

TEST(FlowFabric, IntraLeafPathSkipsTheFabric) {
  const Fabric f = small_ls();
  std::vector<LinkId> path;
  f.path(7, 0, 1, path);  // hosts 0,1 share leaf 0
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(path[0], f.host_up(0));
  EXPECT_EQ(path[1], f.host_down(1));
}

TEST(FlowFabric, InterLeafPathIsDeterministicPerFlow) {
  const Fabric f = small_ls();
  std::vector<LinkId> a, b;
  f.path(42, 0, 2, a);  // leaf 0 -> leaf 1
  f.path(42, 0, 2, b);
  ASSERT_EQ(a.size(), 4u);
  EXPECT_EQ(a, b);  // the ECMP choice is a pure function of the flow id
  const int spine = static_cast<int>(path_hash(42) % 2);
  EXPECT_EQ(a[1], f.leaf_up(0, spine));
  EXPECT_EQ(a[2], f.spine_down(spine, 1));
}

TEST(FlowFabric, FatTreePathLengthsByLocality) {
  const Fabric f = Fabric::fat_tree(4, Bandwidth::gbps(10));
  EXPECT_EQ(f.n_hosts(), 16u);  // k^3/4
  std::vector<LinkId> path;
  f.path(1, 0, 1, path);  // same edge switch
  EXPECT_EQ(path.size(), 2u);
  path.clear();
  f.path(1, 0, 2, path);  // same pod, different edge
  EXPECT_EQ(path.size(), 4u);
  path.clear();
  f.path(1, 0, 15, path);  // inter-pod: up to a core and back down
  EXPECT_EQ(path.size(), 6u);
}

TEST(FlowFabric, RejectsBadHostPairs) {
  const Fabric f = small_ls();
  std::vector<LinkId> path;
  EXPECT_THROW(f.path(1, 0, 0, path), std::invalid_argument);
  EXPECT_THROW(f.path(1, 0, 99, path), std::invalid_argument);
  EXPECT_THROW(Fabric::fat_tree(3, Bandwidth::gbps(10)), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// FlowSim: draining, sharing, ramps.

TEST(FlowSim, SingleFlowDrainsAtPayloadRate) {
  const Fabric f = small_ls();
  const FlowSimConfig cfg = quiet_config();
  FlowSim fs{f, cfg};
  const std::uint64_t bytes = 1'460'000;
  fs.add_flow(1, 0, 1, bytes, TimePoint::zero(), RateModel::kInstant);

  stats::FctRecorder rec{Bandwidth::gbps(10), 100_us};
  const FlowSimResult r = fs.run(&rec);
  EXPECT_EQ(r.started, 1u);
  EXPECT_EQ(r.completed, 1u);
  ASSERT_EQ(rec.completed().size(), 1u);

  // Drain time at the payload-derated line rate, plus the 2-link pipeline
  // latency (2 props + 1 store-and-forward MTU).
  const double drain_s = static_cast<double>(bytes) / payload_Bps(cfg);
  const double want_us = drain_s * 1e6 + 2 * 10.0 + 1.2;
  EXPECT_NEAR(rec.completed()[0].fct().to_micros(), want_us, 1.0);
  EXPECT_EQ(rec.bytes_delivered(), bytes);
}

TEST(FlowSim, EqualSharingDoublesTheDrainTime) {
  const Fabric f = small_ls();
  const FlowSimConfig cfg = quiet_config();
  FlowSim fs{f, cfg};
  const std::uint64_t bytes = 1'460'000;
  // Both flows bottleneck on host 0's downlink.
  fs.add_flow(1, 1, 0, bytes, TimePoint::zero(), RateModel::kInstant);
  fs.add_flow(2, 2, 0, bytes, TimePoint::zero(), RateModel::kInstant);

  stats::FctRecorder rec{Bandwidth::gbps(10), 100_us};
  fs.run(&rec);
  ASSERT_EQ(rec.completed().size(), 2u);
  const double drain_us = static_cast<double>(bytes) / payload_Bps(cfg) * 1e6;
  for (const auto& flow : rec.completed()) {
    EXPECT_NEAR(flow.fct().to_micros(), 2 * drain_us, 2 * drain_us * 0.02 + 50.0);
  }
}

TEST(FlowSim, MaxMinWaterFillingPropagatesResidualShares) {
  const Fabric f = Fabric::leaf_spine(1, 1, 4, Bandwidth::gbps(10));
  const FlowSimConfig cfg = quiet_config();
  FlowSim fs{f, cfg};
  const std::uint64_t bytes = 1'460'000;
  // A and B share host 0's uplink (half rate each); C owns its own path.
  fs.add_flow(1, 0, 1, bytes, TimePoint::zero(), RateModel::kInstant);
  fs.add_flow(2, 0, 2, bytes, TimePoint::zero(), RateModel::kInstant);
  fs.add_flow(3, 3, 2, bytes, TimePoint::zero(), RateModel::kInstant);

  // C shares host 2's downlink with B (B frozen at half by the uplink), so
  // max-min gives C the remaining half plus the slack: C = cap - cap/2.
  stats::FctRecorder rec{Bandwidth::gbps(10), 100_us};
  fs.run(&rec);
  ASSERT_EQ(rec.completed().size(), 3u);
  const double drain_us = static_cast<double>(bytes) / payload_Bps(cfg) * 1e6;
  const auto fct_us = [&](std::uint64_t id) {
    for (const auto& flow : rec.completed()) {
      if (flow.flow == id) return flow.fct().to_micros();
    }
    return -1.0;
  };
  EXPECT_NEAR(fct_us(1), 2 * drain_us, 2 * drain_us * 0.02 + 50.0);
  EXPECT_NEAR(fct_us(2), 2 * drain_us, 2 * drain_us * 0.02 + 50.0);
  EXPECT_NEAR(fct_us(3), 2 * drain_us, 2 * drain_us * 0.02 + 50.0);
}

namespace {

// One long foreground flow disturbed by a short burst: returns the long
// flow's FCT under `model`. The burst halves the long flow's share; after it
// drains, the model decides how fast the rate comes back.
double disturbed_fct_us(RateModel model, bool ramp_latest) {
  const Fabric f = Fabric::leaf_spine(1, 1, 4, Bandwidth::gbps(10));
  FlowSimConfig cfg = quiet_config();
  cfg.amrt_ramp_latest = ramp_latest;
  FlowSim fs{f, cfg};
  const std::uint64_t long_bytes = 12'166'666;  // ~10ms at the payload rate
  const std::uint64_t burst_bytes = 1'216'666;  // ~2ms at half rate
  fs.add_flow(1, 0, 1, long_bytes, TimePoint::zero(), model);
  fs.add_flow(2, 2, 1, burst_bytes, TimePoint::zero() + 1_ms, RateModel::kInstant);

  stats::FctRecorder rec{Bandwidth::gbps(10), 100_us};
  fs.run(&rec);
  for (const auto& flow : rec.completed()) {
    if (flow.flow == 1) return flow.fct().to_micros();
  }
  return -1.0;
}

}  // namespace

TEST(FlowSim, RampModelsOrderRecoverySpeed) {
  const double instant = disturbed_fct_us(RateModel::kInstant, false);
  const double amrt_early = disturbed_fct_us(RateModel::kAmrtGrantClock, false);
  const double amrt_late = disturbed_fct_us(RateModel::kAmrtGrantClock, true);
  const double dctcp = disturbed_fct_us(RateModel::kDctcpThreshold, false);
  const double traditional = disturbed_fct_us(RateModel::kTraditional, false);
  ASSERT_GT(instant, 0.0);

  // Eq. 4 vs Eq. 5 vs Eq. 6 ordering: the earliest AMRT ramp recovers within
  // about one RTT of instant; the latest bound is slower; DCTCP's one-MSS
  // additive increase is slower still; traditional never recovers at all.
  EXPECT_GE(amrt_early, instant - 1.0);
  EXPECT_LE(amrt_early, instant + 2 * 100.0);  // within ~2 RTTs of ideal
  EXPECT_GT(amrt_late, amrt_early);
  EXPECT_GT(dctcp, amrt_late);
  EXPECT_GT(traditional, dctcp);

  // Traditional is pinned at half rate for its remaining ~9/10 of the bytes:
  // analytically fct ~ 1ms at full + ~11.17ms/0.5... just bound it hard.
  EXPECT_GT(traditional, instant * 1.5);
}

TEST(FlowSim, TraditionalRateNeverRecovers) {
  // Direct check of the Eq. 6 semantics: after the burst departs, a
  // traditional flow's completion matches the no-recovery prediction.
  const Fabric f = Fabric::leaf_spine(1, 1, 4, Bandwidth::gbps(10));
  const FlowSimConfig cfg = quiet_config();
  FlowSim fs{f, cfg};
  const double cap = payload_Bps(cfg);
  const std::uint64_t long_bytes = static_cast<std::uint64_t>(cap * 0.010);  // 10ms of bytes
  const std::uint64_t burst_bytes = static_cast<std::uint64_t>(cap * 0.001);
  fs.add_flow(1, 0, 1, long_bytes, TimePoint::zero(), RateModel::kTraditional);
  fs.add_flow(2, 2, 1, burst_bytes, TimePoint::zero() + 1_ms, RateModel::kInstant);

  stats::FctRecorder rec{Bandwidth::gbps(10), 100_us};
  fs.run(&rec);
  double fct_us = -1.0;
  for (const auto& flow : rec.completed()) {
    if (flow.flow == 1) fct_us = flow.fct().to_micros();
  }
  // 1ms at full rate, then cap/2 forever: remaining 9ms of bytes take 18ms.
  EXPECT_NEAR(fct_us, 1'000.0 + 18'000.0, 250.0);
}

TEST(FlowSim, UsageRecordingConservesBytes) {
  const Fabric f = small_ls();
  const FlowSimConfig cfg = quiet_config();
  FlowSim fs{f, cfg};
  const std::uint64_t bytes = 2'920'000;
  fs.add_flow(1, 0, 1, bytes, TimePoint::zero(), RateModel::kInstant);
  fs.record_link_usage(500_us);
  fs.run(nullptr);

  const LinkId up = f.host_up(0);
  EXPECT_NEAR(fs.link_bytes(up), static_cast<double>(bytes), 1.0);
  EXPECT_EQ(fs.link_first_busy(up), TimePoint::zero());
  // usage_[link][bin] is a mean rate over the bin: integrate it back.
  double integrated = 0.0;
  for (const double mean_rate : fs.link_usage()[up]) integrated += mean_rate * 500e-6;
  EXPECT_NEAR(integrated, static_cast<double>(bytes), static_cast<double>(bytes) * 1e-6);
  // An untouched link recorded nothing.
  EXPECT_DOUBLE_EQ(fs.link_bytes(f.host_up(3)), 0.0);
}

TEST(FlowSim, ObserverSeesEveryByteExactlyOnce) {
  const Fabric f = small_ls();
  FlowSim fs{f, quiet_config()};
  const std::uint64_t sizes[] = {1460, 73'000, 1'460'000};
  std::uint64_t total = 0;
  for (std::uint64_t i = 0; i < 3; ++i) {
    fs.add_flow(i + 1, i % 2, 2 + (i % 2), sizes[i],
                TimePoint::zero() + Duration::microseconds(static_cast<std::int64_t>(i * 50)),
                RateModel::kAmrtGrantClock);
    total += sizes[i];
  }
  stats::FctRecorder rec{Bandwidth::gbps(10), 100_us};
  const FlowSimResult r = fs.run(&rec);
  EXPECT_EQ(r.started, 3u);
  EXPECT_EQ(r.completed, 3u);
  EXPECT_EQ(rec.bytes_delivered(), total);
  EXPECT_EQ(rec.incomplete_count(), 0u);
  EXPECT_GT(r.events, 0u);
  EXPECT_GT(r.recomputes, 0u);
}

TEST(FlowSim, MaxTimeLeavesFlowsIncomplete) {
  const Fabric f = small_ls();
  FlowSimConfig cfg = quiet_config();
  cfg.max_time = TimePoint::zero() + 1_ms;
  FlowSim fs{f, cfg};
  // ~12ms of bytes cannot finish inside a 1ms horizon.
  fs.add_flow(1, 0, 1, 14'600'000, TimePoint::zero(), RateModel::kInstant);
  stats::FctRecorder rec{Bandwidth::gbps(10), 100_us};
  const FlowSimResult r = fs.run(&rec);
  EXPECT_EQ(r.completed, 0u);
  EXPECT_EQ(rec.incomplete_count(), 1u);
  EXPECT_EQ(r.end_time, cfg.max_time);
}

TEST(FlowSim, RejectsBadConfigAndFlows) {
  const Fabric f = small_ls();
  FlowSimConfig bad_rtt = quiet_config();
  bad_rtt.rtt = Duration::zero();
  EXPECT_THROW((FlowSim{f, bad_rtt}), std::invalid_argument);

  FlowSimConfig bad_frac = quiet_config();
  bad_frac.payload_fraction = 0.0;
  EXPECT_THROW((FlowSim{f, bad_frac}), std::invalid_argument);

  FlowSim fs{f, quiet_config()};
  EXPECT_THROW(fs.add_flow(1, 0, 1, 0, TimePoint::zero(), RateModel::kInstant),
               std::invalid_argument);
  EXPECT_THROW(fs.record_link_usage(Duration::zero()), std::invalid_argument);

  Fabric g = small_ls();
  EXPECT_THROW(g.set_capacity_bps(static_cast<LinkId>(g.link_count()), kCapBps),
               std::invalid_argument);
  EXPECT_THROW(g.set_capacity_bps(0, 0.0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Water-filling edge cases, derived by hand and compared exactly.

namespace {

// Payload equals raw capacity and completions carry no pipeline latency, so
// a flow of B bytes at share r ends exactly B/r after its rate last changed.
FlowSimConfig exact_config() {
  FlowSimConfig cfg = quiet_config();
  cfg.payload_fraction = 1.0;
  cfg.prop_delay = Duration::zero();
  cfg.mtu_tx = Duration::zero();
  return cfg;
}

constexpr double kC = 1e9;  // payload bytes/sec of an 8 Gb/s link

// One leaf of `hosts` hosts, every link at 4C: a flow from host s to host d
// crosses exactly host_up(s) then host_down(d).
Fabric one_leaf(int hosts) { return Fabric::leaf_spine(1, 1, hosts, Bandwidth::gbps(32)); }

void set_payload(Fabric& f, LinkId l, double bytes_per_sec) {
  f.set_capacity_bps(l, bytes_per_sec * 8.0);
}

struct Spec {
  std::uint64_t id;
  std::size_t src;
  std::size_t dst;
  std::uint64_t bytes;
  std::int64_t start_ns = 0;
  RateModel model = RateModel::kInstant;
};

struct Outcome {
  std::map<std::uint64_t, std::int64_t> end_ns;  // by flow id
  FlowSimResult result;
};

Outcome run_specs(const Fabric& f, const std::vector<Spec>& flows) {
  FlowSim fs{f, exact_config()};
  for (const Spec& s : flows) {
    fs.add_flow(s.id, s.src, s.dst, s.bytes, TimePoint::zero() + Duration::nanoseconds(s.start_ns),
                s.model);
  }
  stats::FctRecorder rec{Bandwidth::gbps(10), 100_us};
  Outcome out;
  out.result = fs.run(&rec);
  for (const auto& r : rec.completed()) out.end_ns[r.flow] = r.end.ns();
  EXPECT_EQ(out.end_ns.size(), flows.size());
  return out;
}

std::map<std::uint64_t, std::int64_t> end_ns(const Fabric& f, const std::vector<Spec>& flows) {
  return run_specs(f, flows).end_ns;
}

}  // namespace

TEST(FlowSimWaterFill, TiedBottlenecksGiveTheSameSharesInEitherFirstUseOrder) {
  // host_down(0) (2C, flows a b) and host_up(3) (2C, flows c d) tie at C.
  // Freezing either first leaves e (on host_up(1) and host_down(4), 4C
  // each) 3C on both, a second tie: a=b=c=d=C, e=3C. At 1 ms a..d drain;
  // e has 3e6 of 6e6 left and runs alone at 4C for 0.75 ms more.
  Fabric f = one_leaf(6);
  set_payload(f, f.host_down(0), 2 * kC);
  set_payload(f, f.host_up(3), 2 * kC);
  const auto run = [&](std::uint64_t a, std::uint64_t b, std::uint64_t c, std::uint64_t d) {
    return end_ns(f, {{a, 1, 0, 1'000'000},
                      {b, 2, 0, 1'000'000},
                      {c, 3, 4, 1'000'000},
                      {d, 3, 5, 1'000'000},
                      {5, 1, 4, 6'000'000}});
  };
  // Ids order arrivals, and arrival order is first-use order: host_down(0)
  // is listed before host_up(3) in the first run and after it in the second.
  for (const auto& ends : {run(1, 2, 3, 4), run(3, 4, 1, 2)}) {
    for (std::uint64_t id = 1; id <= 4; ++id) EXPECT_EQ(ends.at(id), 1'000'000) << id;
    EXPECT_EQ(ends.at(5), 1'750'000);
  }
}

TEST(FlowSimWaterFill, IsolatedFlowsTakeTheirPathMinimumBesideSharedFlows) {
  // iso1 (0->1) and iso2 (2->3) share no link with anyone: each runs at the
  // smaller capacity on its path, 1.5C and 0.5C. s1 (4->6) and s2 (5->6)
  // share host_down(6) (2C); s2's 0.5C uplink freezes it first, so s1 gets
  // the 1.5C left, then the whole 2C once s2 drains at 1 ms.
  Fabric f = one_leaf(8);
  set_payload(f, f.host_up(0), 3 * kC);
  set_payload(f, f.host_down(1), 1.5 * kC);
  set_payload(f, f.host_up(2), 0.5 * kC);
  set_payload(f, f.host_up(5), 0.5 * kC);
  set_payload(f, f.host_down(6), 2 * kC);
  const auto ends = end_ns(f, {{1, 0, 1, 4'500'000},    // iso1: 4.5e6 / 1.5C = 3 ms
                               {2, 4, 6, 3'500'000},    // s1: 1.5e6 by 1 ms, 2e6 at 2C
                               {3, 2, 3, 750'000},      // iso2: 7.5e5 / 0.5C = 1.5 ms
                               {4, 5, 6, 500'000}});    // s2: 5e5 / 0.5C = 1 ms
  EXPECT_EQ(ends.at(1), 3'000'000);
  EXPECT_EQ(ends.at(2), 2'000'000);
  EXPECT_EQ(ends.at(3), 1'500'000);
  EXPECT_EQ(ends.at(4), 1'000'000);
}

TEST(FlowSimWaterFill, ResidualRoundingBelowZeroIsClamped) {
  // Three flows from leaf 0 into host 4 share leaf_up, spine_down and
  // host_down(4) at 10 Gb/s = 1.25e9 B/s: a three-way tie at C10/3. d
  // (0->1) shares a's uplink and gets the 2*C10/3 left there, then the
  // whole link once the three drain at 3 ms.
  const double c10 = 1.25e9;
  const double third = c10 / 3.0;
  // Subtracting the rounded third three times overshoots zero, so these
  // residuals go through the max(0, ...) clamp.
  ASSERT_LT(c10 - third - third - third, 0.0);
  const Fabric f = Fabric::leaf_spine(2, 1, 4, Bandwidth::gbps(10));
  const auto ends = end_ns(f, {{1, 0, 4, 1'250'000},    // 1.25e6 / (C10/3) = 3 ms
                               {2, 1, 4, 1'250'000},
                               {3, 2, 4, 1'250'000},
                               {4, 0, 1, 5'000'000}});  // 2.5e6 by 3 ms, 2.5e6 at C10
  for (std::uint64_t id = 1; id <= 3; ++id) EXPECT_EQ(ends.at(id), 3'000'000) << id;
  EXPECT_EQ(ends.at(4), 5'000'000);
}

TEST(FlowSimWaterFill, ChainOfThreeSuccessiveBottlenecks) {
  // host_down(0) (C, a b) freezes first at 0.5C; that leaves host_up(2)
  // (1.25C, b c) 0.75C for c; that leaves host_down(3) (3C, c d e) 2.25C
  // for d and e, 1.125C each. At 2 ms all but e drain; e has 2.25e6 left
  // and runs alone at 3C for 0.75 ms.
  Fabric f = one_leaf(6);
  set_payload(f, f.host_down(0), kC);
  set_payload(f, f.host_up(2), 1.25 * kC);
  set_payload(f, f.host_down(3), 3 * kC);
  const auto ends = end_ns(f, {{1, 1, 0, 1'000'000},    // a
                               {2, 2, 0, 1'000'000},    // b
                               {3, 2, 3, 1'500'000},    // c
                               {4, 4, 3, 2'250'000},    // d
                               {5, 5, 3, 4'500'000}});  // e
  for (std::uint64_t id = 1; id <= 4; ++id) EXPECT_EQ(ends.at(id), 2'000'000) << id;
  EXPECT_EQ(ends.at(5), 2'750'000);
}

TEST(FlowSimWaterFill, CoBottleneckRoundingOnInexactCapacities) {
  // host_up(1) and host_down(0) carry C/3 over seven flows each, one flow
  // (1->0) on both: a tie at s = (C/3)/7, broken toward host_up(1), which
  // 1->0 lists first. Freezing its seven flows leaves host_down(0)
  // (C/3 - s)/6, an ulp *below* s, so host_down(0)'s other six freeze just
  // under the first seven. host_up(2) (C/14) carries only 2->0, so once
  // that freezes it is empty yet keyed below what is left. host_down(8)
  // (C/7: 1->8 and 9->8) rises from C/14 to C/7 - s once 1->8 freezes, so
  // 9->8 is held by host_up(9) (0.6 C/7) instead. The sizes stagger the
  // completions, and every one re-water-fills what is left.
  const double third = kC / 3.0;
  const double seventh = kC / 7.0;
  ASSERT_LT((third - third / 7.0) / 6.0, third / 7.0);  // the rounding this case is about
  Fabric f = one_leaf(10);
  set_payload(f, f.host_up(1), third);
  set_payload(f, f.host_down(0), third);
  set_payload(f, f.host_up(2), seventh / 2.0);
  set_payload(f, f.host_down(8), seventh);
  set_payload(f, f.host_up(9), seventh * 0.6);
  std::vector<Spec> flows;
  std::uint64_t id = 0;
  for (const std::size_t dst : {0, 2, 3, 4, 5, 6, 8}) {
    ++id;
    flows.push_back({id, 1, dst, 100'000 * id});
  }
  for (std::size_t src = 2; src <= 7; ++src) {
    ++id;
    flows.push_back({id, src, 0, 150'000 + 70'000 * src});
  }
  flows.push_back({++id, 9, 8, 900'000});
  const std::map<std::uint64_t, std::int64_t> expected = {
      {1, 2'100'000},  {2, 3'900'000},  {3, 5'400'000},  {4, 6'545'455},  {5, 7'309'092},
      {6, 7'690'910},  {7, 11'000'000}, {8, 5'520'000},  {9, 6'570'000},  {10, 7'410'000},
      {11, 8'040'000}, {12, 8'460'000}, {13, 8'670'000}, {14, 11'600'000}};
  EXPECT_EQ(end_ns(f, flows), expected);
}

TEST(FlowSim, BusyWindowsSpanEachLinksFirstAndLastStreamedInstant) {
  // Every one_leaf() link carries 4C. a (0->1, 2e6) and b (0->2, 6e6)
  // share host_up(0) at 2C: a drains at 1 ms, then b runs alone at 4C and
  // drains its last 4e6 at 2 ms. c (3->4, 2e6) arrives at 0.5 ms on idle
  // links and drains at 4C by 1 ms. host_up(5) carries nothing.
  const Fabric f = one_leaf(6);
  {
    FlowSim fs{f, exact_config()};
    fs.add_flow(1, 0, 1, 2'000'000, TimePoint::zero(), RateModel::kInstant);
    fs.add_flow(2, 0, 2, 6'000'000, TimePoint::zero(), RateModel::kInstant);
    fs.add_flow(3, 3, 4, 2'000'000, TimePoint::zero() + 500_us, RateModel::kInstant);
    ASSERT_EQ(fs.run(nullptr).completed, 3u);
    const auto window = [&](LinkId l) {
      return std::pair{fs.link_first_busy(l).ns(), fs.link_last_busy(l).ns()};
    };
    using W = std::pair<std::int64_t, std::int64_t>;
    EXPECT_EQ(window(f.host_up(0)), (W{0, 2'000'000}));
    EXPECT_EQ(window(f.host_down(1)), (W{0, 1'000'000}));
    EXPECT_EQ(window(f.host_down(2)), (W{0, 2'000'000}));
    EXPECT_EQ(window(f.host_up(3)), (W{500'000, 1'000'000}));
    EXPECT_EQ(window(f.host_down(4)), (W{500'000, 1'000'000}));
    EXPECT_EQ(fs.link_first_busy(f.host_up(5)), TimePoint::max());
    EXPECT_EQ(fs.link_last_busy(f.host_up(5)), TimePoint::zero());
  }
  // Cut by the horizon: a (0->1, 8e6 at 4C, 2 ms) has streamed to 1.5 ms,
  // and b (2->3, 2e6) drained at 0.5 ms.
  {
    FlowSimConfig cfg = exact_config();
    cfg.max_time = TimePoint::zero() + 1500_us;
    FlowSim fs{f, cfg};
    fs.add_flow(1, 0, 1, 8'000'000, TimePoint::zero(), RateModel::kInstant);
    fs.add_flow(2, 2, 3, 2'000'000, TimePoint::zero(), RateModel::kInstant);
    const FlowSimResult r = fs.run(nullptr);
    EXPECT_EQ(r.completed, 1u);
    EXPECT_EQ(r.end_time, cfg.max_time);
    EXPECT_EQ(fs.link_first_busy(f.host_up(0)), TimePoint::zero());
    EXPECT_EQ(fs.link_last_busy(f.host_up(0)), cfg.max_time);
    EXPECT_EQ(fs.link_last_busy(f.host_down(1)), cfg.max_time);
    EXPECT_EQ(fs.link_last_busy(f.host_up(2)), TimePoint::zero() + 500_us);
  }
}

// ---------------------------------------------------------------------------
// Component-local recomputes: only the flows that share a link, transitively,
// with an arrival or a completion are water-filled again. Every link of
// one_leaf() carries 4C; flows_refilled counts the flows each recompute
// water-filled.

TEST(FlowSimIncremental, ArrivalLeavesADisjointPairUntouched) {
  // a (0->1) and b (2->1) split host_down(1) at 2C and drain their 4e6 in
  // 2 ms. c (3->4) arrives alone at 0.5 ms and drains 2e6 at 4C by 1 ms.
  // Recomputes: t=0 {a, b}; 0.5 ms {c}; 1 ms (c leaves, no survivors) {};
  // 2 ms {}. Re-water-filling everyone would count 2 + 3 + 2 + 0.
  const Outcome out = run_specs(one_leaf(6), {{1, 0, 1, 4'000'000},
                                              {2, 2, 1, 4'000'000},
                                              {3, 3, 4, 2'000'000, 500'000}});
  EXPECT_EQ(out.end_ns.at(1), 2'000'000);
  EXPECT_EQ(out.end_ns.at(2), 2'000'000);
  EXPECT_EQ(out.end_ns.at(3), 1'000'000);
  EXPECT_EQ(out.result.recomputes, 4u);
  EXPECT_EQ(out.result.flows_refilled, 3u);
}

TEST(FlowSimIncremental, DepartureSplitsAChainAndBothEndsRiseToFullShare) {
  // A (0->1) and B (0->2) share host_up(0); B and C (3->2) share
  // host_down(2). Both links tie at 2C, so A = B = C = 2C. B drains 2e6 at
  // 1 ms; A and C are then alone on every link and rise to 4C: C's last
  // 2e6 take 0.5 ms, A's last 4e6 take 1 ms. Recomputes: t=0 {A, B, C};
  // 1 ms {A, C}; 1.5 ms {}; 2 ms {}.
  const Outcome out = run_specs(one_leaf(4), {{1, 0, 1, 6'000'000},
                                              {2, 0, 2, 2'000'000},
                                              {3, 3, 2, 4'000'000}});
  EXPECT_EQ(out.end_ns.at(1), 2'000'000);
  EXPECT_EQ(out.end_ns.at(2), 1'000'000);
  EXPECT_EQ(out.end_ns.at(3), 1'500'000);
  EXPECT_EQ(out.result.recomputes, 4u);
  EXPECT_EQ(out.result.flows_refilled, 5u);
}

TEST(FlowSimIncremental, UntouchedTraditionalFlowKeepsItsCutRate) {
  // T (0->1, traditional) runs alone at 4C until x (2->1) joins at 0.5 ms
  // and cuts it to 2C. x drains 1e6 by 1 ms; T's target goes back to 4C,
  // but a traditional rate never recovers. y (3->4) arrives at 1.5 ms in
  // a disjoint component and drains 2e6 at 4C by 2 ms, outside T's
  // component, so T keeps 2C: 2e6 + 1e6 by 1 ms, the last 3e6 by 2.5 ms.
  // Recomputes: {T}; {T, x}; {T}; {y}; {}; {}.
  const Outcome out = run_specs(one_leaf(5),
                                {{1, 0, 1, 6'000'000, 0, RateModel::kTraditional},
                                 {2, 2, 1, 1'000'000, 500'000},
                                 {3, 3, 4, 2'000'000, 1'500'000}});
  EXPECT_EQ(out.end_ns.at(1), 2'500'000);
  EXPECT_EQ(out.end_ns.at(2), 1'000'000);
  EXPECT_EQ(out.end_ns.at(3), 2'000'000);
  EXPECT_EQ(out.result.recomputes, 6u);
  EXPECT_EQ(out.result.flows_refilled, 5u);
}

TEST(FlowSimIncremental, SimultaneousCompletionAndArrivalInDifferentComponents) {
  // p (0->1) runs alone at 4C and drains 4e6 at 1 ms, the instant r
  // (5->6) arrives in another component; r drains 1e6 at 4C by 1.25 ms.
  // q1 (2->3) and q2 (4->3) split host_down(3) at 2C until q2 drains 3e6
  // at 1.5 ms; q1 has 3e6 left and takes 0.75 ms more at 4C. Recomputes:
  // t=0 {p, q1, q2}; 1 ms {r}; 1.25 ms {}; 1.5 ms {q1}; 2.25 ms {}.
  const Outcome out = run_specs(one_leaf(7), {{1, 0, 1, 4'000'000},
                                              {2, 2, 3, 6'000'000},
                                              {3, 4, 3, 3'000'000},
                                              {4, 5, 6, 1'000'000, 1'000'000}});
  EXPECT_EQ(out.end_ns.at(1), 1'000'000);
  EXPECT_EQ(out.end_ns.at(2), 2'250'000);
  EXPECT_EQ(out.end_ns.at(3), 1'500'000);
  EXPECT_EQ(out.end_ns.at(4), 1'250'000);
  EXPECT_EQ(out.result.recomputes, 5u);
  EXPECT_EQ(out.result.flows_refilled, 5u);
}

// ---------------------------------------------------------------------------
// Golden fixture: the water-filling pinned to the nanosecond.

namespace {

using golden::GoldenRecord;
#include "golden_flow_fct.inc"

void expect_golden(const std::vector<stats::FlowRecord>& got, const GoldenRecord* golden,
                   std::size_t count) {
  ASSERT_EQ(got.size(), count);
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_EQ(got[i].flow, golden[i].flow) << "record " << i;
    EXPECT_EQ(got[i].bytes, golden[i].bytes) << "record " << i;
    EXPECT_EQ(got[i].start.ns(), golden[i].start_ns) << "record " << i;
    EXPECT_EQ(got[i].end.ns(), golden[i].end_ns) << "record " << i;
  }
}

}  // namespace

TEST(FlowSimGolden, FlowFidelityFctFixtureUnchanged) {
  // Any change to the order in which the water-filling freezes flows or
  // subtracts shares moves a target by an ulp and a completion by a
  // nanosecond somewhere in these runs. Regenerate golden_flow_fct.inc
  // (tools/regen_golden.sh) only for a change that is *supposed* to alter
  // flow-level results, and say so in the commit.
  {
    SCOPED_TRACE("oversubscribed leaf-spine");
    expect_golden(harness::run_experiment(golden::flow_golden_cfg()).flow_records,
                  kGoldenFlowLeafSpine, std::size(kGoldenFlowLeafSpine));
  }
  // The k=8 runs at load 0.3 keep many small link-disjoint components
  // splitting and merging; kTraditional keeps rate < target forever.
  using transport::Protocol;
  const struct {
    int k;
    std::optional<Protocol> proto;
    std::size_t flows;
    double load;
    const GoldenRecord* golden;
    std::size_t count;
  } fat_trees[] = {
      {4, Protocol::kPhost, 200, 0.6, kGoldenFlowFatTreeInstant,
       std::size(kGoldenFlowFatTreeInstant)},
      {4, Protocol::kAmrt, 200, 0.6, kGoldenFlowFatTreeAmrt,
       std::size(kGoldenFlowFatTreeAmrt)},
      {4, Protocol::kDctcp, 200, 0.6, kGoldenFlowFatTreeDctcp,
       std::size(kGoldenFlowFatTreeDctcp)},
      {4, std::nullopt, 200, 0.6, kGoldenFlowFatTreeTraditional,
       std::size(kGoldenFlowFatTreeTraditional)},
      {8, Protocol::kAmrt, 400, 0.3, kGoldenFlowFatTree8Amrt,
       std::size(kGoldenFlowFatTree8Amrt)},
      {8, std::nullopt, 400, 0.3, kGoldenFlowFatTree8Traditional,
       std::size(kGoldenFlowFatTree8Traditional)},
  };
  for (const auto& t : fat_trees) {
    SCOPED_TRACE(std::string{"k="} + std::to_string(t.k) + " " +
                 (t.proto ? transport::to_string(*t.proto) : "traditional"));
    expect_golden(golden::fat_tree_records(t.k, t.proto, t.flows, t.load), t.golden, t.count);
  }
}
