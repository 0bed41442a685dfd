// Integration tests of the full experiment pipeline on a leaf-spine and a
// fat-tree (workload generation -> fabric -> transports -> metrics).
#include <gtest/gtest.h>

#include <algorithm>

#include "harness/experiment.hpp"

using namespace amrt;
using namespace amrt::sim::literals;
using harness::ExperimentConfig;
using transport::Protocol;

namespace {
ExperimentConfig tiny(Protocol proto) {
  ExperimentConfig cfg;
  cfg.run.proto = proto;
  cfg.workload = workload::Kind::kWebServer;
  cfg.run.fabric.leaves = 2;
  cfg.run.fabric.spines = 2;
  cfg.run.fabric.hosts_per_leaf = 4;
  cfg.n_flows = 60;
  cfg.load = 0.5;
  cfg.run.fabric.link_delay = 5_us;
  return cfg;
}

std::string proto_name(const ::testing::TestParamInfo<Protocol>& info) {
  return transport::to_string(info.param);
}
}  // namespace

class Fabric : public ::testing::TestWithParam<Protocol> {};

TEST_P(Fabric, AllFlowsComplete) {
  const auto r = harness::run_experiment(tiny(GetParam()));
  EXPECT_EQ(r.flows_completed, 60u);
  EXPECT_EQ(r.flows_started, 60u);
  EXPECT_GT(r.fct_all.afct_us, 0.0);
}

TEST_P(Fabric, GoodputConservation) {
  // Delivered payload equals the sum of generated flow sizes: regenerate the
  // same flow list and compare.
  auto cfg = tiny(GetParam());
  const auto r = harness::run_experiment(cfg);
  std::uint64_t expected = 0;
  for (const auto& f : harness::draw_schedule(cfg)) expected += f.bytes;
  EXPECT_EQ(r.bytes_delivered, expected);
}

TEST(FatTreeExperiment, CompletesEveryFlowInEveryMode) {
  // A k=4 fat-tree runs through the same experiment runner as a leaf-spine:
  // serial, sharded, faulted and at flow fidelity, with one downlink
  // utilization per host.
  ExperimentConfig base;
  base.run.fabric.topology = harness::Topology::kFatTree;
  base.run.fabric.fat_k = 4;
  base.run.fabric.link_delay = 5_us;
  base.n_flows = 60;
  const struct {
    const char* name;
    void (*apply)(ExperimentConfig&);
  } modes[] = {
      {"packet", [](ExperimentConfig&) {}},
      {"shards=2", [](ExperimentConfig& c) { c.run.shards = 2; }},
      {"fault_incidents=2", [](ExperimentConfig& c) { c.fault_incidents = 2; }},
      {"flow fidelity", [](ExperimentConfig& c) { c.fidelity = harness::Fidelity::kFlow; }},
  };
  for (const auto& mode : modes) {
    ExperimentConfig cfg = base;
    mode.apply(cfg);
    const auto r = harness::run_experiment(cfg);
    EXPECT_EQ(r.flows_started, 60u) << mode.name;
    EXPECT_EQ(r.flows_completed, r.flows_started) << mode.name;
    EXPECT_EQ(r.downlink_utilization.size(), 16u) << mode.name;
    EXPECT_GT(r.mean_utilization, 0.0) << mode.name;
  }
}

TEST(FabricHorizon, UnfinishedFlowsReportAsIncomplete) {
  // A horizon shorter than the schedule: flows cut off before they finish,
  // or before they even start, count against completion in both executors.
  for (const unsigned shards : {1u, 2u}) {
    auto cfg = tiny(Protocol::kAmrt);
    cfg.run.shards = shards;
    cfg.run.horizon = sim::TimePoint::zero() + 200_us;
    const auto r = harness::run_experiment(cfg);
    EXPECT_EQ(r.flows_started, 60u) << shards << " shards";
    EXPECT_LT(r.flows_completed, r.flows_started) << shards << " shards";
    EXPECT_EQ(r.flow_records.size(), r.flows_completed) << shards << " shards";
  }
}

TEST(FabricHorizon, DrainedRunReportsItsLastEventTime) {
  // Both executors drain once the last flow completes and report the clock
  // at their last fired event: past the last completion, far short of the
  // 30 s horizon.
  for (const unsigned shards : {1u, 2u}) {
    auto cfg = tiny(Protocol::kAmrt);
    cfg.run.shards = shards;
    const auto r = harness::run_experiment(cfg);
    ASSERT_EQ(r.flows_completed, r.flows_started) << shards << " shards";
    sim::TimePoint last_end = sim::TimePoint::zero();
    for (const auto& rec : r.flow_records) last_end = std::max(last_end, rec.end);
    EXPECT_GE(r.sim_seconds, last_end.to_seconds()) << shards << " shards";
    EXPECT_LT(r.sim_seconds, last_end.to_seconds() + 0.01) << shards << " shards";
  }
}

TEST_P(Fabric, DeterministicAcrossRuns) {
  const auto a = harness::run_experiment(tiny(GetParam()));
  const auto b = harness::run_experiment(tiny(GetParam()));
  EXPECT_DOUBLE_EQ(a.fct_all.afct_us, b.fct_all.afct_us);
  EXPECT_DOUBLE_EQ(a.fct_all.p99_us, b.fct_all.p99_us);
  EXPECT_EQ(a.events, b.events);
}

TEST_P(Fabric, SeedChangesOutcome) {
  auto cfg = tiny(GetParam());
  const auto a = harness::run_experiment(cfg);
  cfg.run.seed = 999;
  const auto b = harness::run_experiment(cfg);
  EXPECT_NE(a.fct_all.afct_us, b.fct_all.afct_us);
}

TEST_P(Fabric, MetricsWithinPhysicalBounds) {
  const auto r = harness::run_experiment(tiny(GetParam()));
  EXPECT_GE(r.mean_utilization, 0.0);
  EXPECT_LE(r.mean_utilization, 1.0);
  EXPECT_LE(r.fct_all.p50_us, r.fct_all.p99_us);
  EXPECT_LE(r.fct_all.p99_us, r.fct_all.max_fct_us + 1e-9);
  EXPECT_GT(r.sim_seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, Fabric,
                         ::testing::Values(Protocol::kAmrt, Protocol::kPhost, Protocol::kHoma,
                                           Protocol::kNdp),
                         proto_name);

TEST(FabricLoad, HigherLoadSlowsFlows) {
  auto lo = tiny(Protocol::kAmrt);
  lo.load = 0.2;
  lo.n_flows = 120;
  auto hi = lo;
  hi.load = 0.9;
  const auto rl = harness::run_experiment(lo);
  const auto rh = harness::run_experiment(hi);
  EXPECT_EQ(rl.flows_completed, 120u);
  EXPECT_EQ(rh.flows_completed, 120u);
  // Temporal compression at 0.9 load must hurt tail latency.
  EXPECT_GT(rh.fct_all.p99_us, rl.fct_all.p99_us);
}

TEST(FabricQueues, HomaGetsPriorityQueuesNdpTrims) {
  auto cfg = tiny(Protocol::kNdp);
  cfg.n_flows = 100;
  cfg.load = 0.9;
  const auto ndp = harness::run_experiment(cfg);
  EXPECT_EQ(ndp.drops, 0u) << "NDP data is trimmed, not dropped";
  auto cfg2 = tiny(Protocol::kHoma);
  cfg2.n_flows = 100;
  cfg2.load = 0.9;
  const auto homa = harness::run_experiment(cfg2);
  EXPECT_EQ(homa.trims, 0u);
}

TEST(FabricWorkloads, EveryWorkloadRunsEndToEnd) {
  for (auto wk : workload::kAllKinds) {
    auto cfg = tiny(Protocol::kAmrt);
    cfg.workload = wk;
    cfg.n_flows = 25;
    const auto r = harness::run_experiment(cfg);
    EXPECT_EQ(r.flows_completed, 25u) << workload::name(wk);
  }
}
