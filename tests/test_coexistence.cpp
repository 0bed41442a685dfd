// Mixed-transport coexistence regression (DESIGN.md §13): an AMRT foreground
// sharing a small leaf-spine with a DCTCP background population must stay
// close to its solo behaviour — PIAS keeps the background demoted and the
// threshold/anti-ECN markers act on disjoint packet populations, so adding
// background flows must not collapse foreground utilization or blow up its
// tail FCT beyond the stated tolerances.
#include <gtest/gtest.h>

#include <stdexcept>

#include "harness/experiment.hpp"

using namespace amrt;

namespace {

harness::ExperimentConfig small_leaf_spine(double background_fraction) {
  harness::ExperimentConfig cfg;
  cfg.proto = transport::Protocol::kAmrt;
  cfg.workload = workload::Kind::kWebSearch;
  cfg.load = 0.5;
  cfg.n_flows = 60;
  cfg.leaves = 2;
  cfg.spines = 2;
  cfg.hosts_per_leaf = 4;
  cfg.seed = 7;
  cfg.background_dctcp_fraction = background_fraction;
  return cfg;
}

}  // namespace

TEST(Coexistence, BackgroundFlowRuleIsPureAndMatchesTheFraction) {
  // The dispatch rule is the contract between sender, receiver and the
  // post-processing split: pure in the id, fraction via residues mod 100.
  EXPECT_FALSE(harness::is_background_flow(1, 0.0));
  EXPECT_TRUE(harness::is_background_flow(1, 1.0));
  int bg = 0;
  for (net::FlowId id = 0; id < 100; ++id) bg += harness::is_background_flow(id, 0.25) ? 1 : 0;
  EXPECT_EQ(bg, 25);
}

TEST(Coexistence, MixedRunCompletesBothPopulations) {
  const auto r = harness::run_leaf_spine(small_leaf_spine(0.25));
  EXPECT_EQ(r.flows_completed, r.flows_started);
  EXPECT_GT(r.fct_foreground.completed, 0u);
  EXPECT_GT(r.fct_background.completed, 0u);
  EXPECT_EQ(r.fct_foreground.completed + r.fct_background.completed, r.fct_all.completed);
  // The split must follow the id rule exactly.
  std::size_t bg = 0;
  for (const auto& rec : r.flow_records) {
    bg += harness::is_background_flow(rec.flow, 0.25) ? 1 : 0;
  }
  EXPECT_EQ(bg, r.fct_background.completed);
  // Both sides of the split report slowdown like the recorder's own summary.
  EXPECT_GT(r.fct_foreground.mean_slowdown, 1.0);
  EXPECT_GT(r.fct_background.mean_slowdown, 1.0);
  // Downlink utilization is reported per receiver downlink, leaf-major.
  EXPECT_EQ(r.downlink_utilization.size(), 2u * 4u);
}

TEST(Coexistence, ForegroundStaysWithinToleranceOfSolo) {
  const auto solo = harness::run_leaf_spine(small_leaf_spine(0.0));
  const auto mixed = harness::run_leaf_spine(small_leaf_spine(0.25));
  ASSERT_EQ(solo.flows_completed, solo.flows_started);
  ASSERT_EQ(mixed.flows_completed, mixed.flows_started);

  // Utilization: the mixed fabric serves the same offered load (the flow
  // schedule is identical; only 25% of ids switched transport), so the
  // byte-weighted downlink utilization must stay in the same regime. The
  // fabric itself changes (strict-priority queues, threshold marking), so
  // this is an absolute-band check, not exact equality.
  EXPECT_GT(mixed.mean_utilization, 0.0);
  EXPECT_NEAR(mixed.mean_utilization, solo.mean_utilization, 0.25);

  // Foreground tail: AMRT keeps priority band 0, above every demoted DCTCP
  // packet, so its p99 must not explode. 3x is deliberately loose — the
  // foreground population in the mixed run is a 45-flow subset of the solo
  // 60, so the quantiles move for composition reasons alone; this test
  // exists to catch order-of-magnitude regressions (e.g. background ACKs
  // starving grants), not to pin queueing noise.
  ASSERT_GT(solo.fct_all.p99_us, 0.0);
  EXPECT_LT(mixed.fct_foreground.p99_us, solo.fct_all.p99_us * 3.0);
  // And the foreground average must stay in the same decade.
  EXPECT_LT(mixed.fct_foreground.afct_us, solo.fct_all.afct_us * 3.0);
}

TEST(Coexistence, ZeroFractionIsByteIdenticalToSolo) {
  // background_dctcp_fraction = 0 must take the single-transport code path
  // exactly: same records, same utilization, same event count.
  auto cfg = small_leaf_spine(0.0);
  const auto a = harness::run_leaf_spine(cfg);
  cfg.background_dctcp_fraction = 0.0;
  const auto b = harness::run_leaf_spine(cfg);
  ASSERT_EQ(a.flow_records.size(), b.flow_records.size());
  for (std::size_t i = 0; i < a.flow_records.size(); ++i) {
    EXPECT_EQ(a.flow_records[i].flow, b.flow_records[i].flow);
    EXPECT_EQ(a.flow_records[i].end.ns(), b.flow_records[i].end.ns());
  }
  EXPECT_EQ(a.events, b.events);
}

TEST(Coexistence, MixedRunIsDeterministic) {
  const auto a = harness::run_leaf_spine(small_leaf_spine(0.25));
  const auto b = harness::run_leaf_spine(small_leaf_spine(0.25));
  ASSERT_EQ(a.flow_records.size(), b.flow_records.size());
  for (std::size_t i = 0; i < a.flow_records.size(); ++i) {
    EXPECT_EQ(a.flow_records[i].flow, b.flow_records[i].flow);
    EXPECT_EQ(a.flow_records[i].start.ns(), b.flow_records[i].start.ns());
    EXPECT_EQ(a.flow_records[i].end.ns(), b.flow_records[i].end.ns());
  }
  EXPECT_EQ(a.events, b.events);
}

TEST(Coexistence, MixedModeRejectsUnsupportedCombinations) {
  // One table for every combination harness::validate rejects; run_leaf_spine
  // must refuse each one before building anything.
  const struct {
    const char* name;
    void (*apply)(harness::ExperimentConfig&);
  } rejected[] = {
      {"mixed transports need AMRT",
       [](harness::ExperimentConfig& c) { c.proto = transport::Protocol::kNdp; }},
      {"mixed transports x shards", [](harness::ExperimentConfig& c) { c.shards = 2; }},
      {"shards x faults",
       [](harness::ExperimentConfig& c) {
         c.background_dctcp_fraction = 0.0;
         c.shards = 2;
         c.fault_incidents = 1;
       }},
      {"trace engine without a path",
       [](harness::ExperimentConfig& c) { c.engine.engine = workload::Engine::kTrace; }},
      {"flow fidelity x shards",
       [](harness::ExperimentConfig& c) {
         c.background_dctcp_fraction = 0.0;
         c.fidelity = harness::Fidelity::kFlow;
         c.shards = 2;
       }},
      {"mixed fidelity x shards",
       [](harness::ExperimentConfig& c) {
         c.background_dctcp_fraction = 0.0;
         c.fidelity = harness::Fidelity::kMixed;
         c.shards = 2;
       }},
      {"flow fidelity x faults",
       [](harness::ExperimentConfig& c) {
         c.fidelity = harness::Fidelity::kFlow;
         c.fault_incidents = 1;
       }},
      {"mixed fidelity x mixed transports",
       [](harness::ExperimentConfig& c) { c.fidelity = harness::Fidelity::kMixed; }},
      {"mixed fidelity needs a fraction in (0, 1)",
       [](harness::ExperimentConfig& c) {
         c.background_dctcp_fraction = 0.0;
         c.fidelity = harness::Fidelity::kMixed;
         c.flow_background_fraction = 1.0;
       }},
  };
  EXPECT_NO_THROW(harness::validate(small_leaf_spine(0.25)));
  for (const auto& row : rejected) {
    auto cfg = small_leaf_spine(0.25);
    row.apply(cfg);
    EXPECT_THROW(harness::validate(cfg), std::invalid_argument) << row.name;
    EXPECT_THROW((void)harness::run_leaf_spine(cfg), std::invalid_argument) << row.name;
  }
}
