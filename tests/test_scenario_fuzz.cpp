// ctest smoke for the deterministic scenario fuzzer (src/harness/fuzz.hpp).
//
// Built in every configuration: the completion/physics/queue-accounting
// oracles run everywhere, and under -DAMRT_AUDIT=ON the same cases also run
// with the full invariant auditor live. The seed budget here is deliberately
// modest (ctest must stay fast); the scenario_fuzz CLI runs the deep sweeps.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "audit/auditor.hpp"
#include "harness/fuzz.hpp"

using namespace amrt;
using harness::fuzz::CaseConfig;
using harness::fuzz::CaseResult;
using harness::fuzz::FuzzOptions;
using harness::fuzz::Topo;

namespace {

// Collect-don't-abort so a violation surfaces as a readable test failure
// with its repro line instead of a process abort.
struct NoFailFast : ::testing::Test {
  void SetUp() override { audit::set_fail_fast(false); }
  void TearDown() override { audit::set_fail_fast(true); }
};

using FuzzSmoke = NoFailFast;
using FuzzDeterminism = NoFailFast;

}  // namespace

TEST_F(FuzzSmoke, SeedBudgetAllOraclesHold) {
  // 5 seeds x 4 topologies x 4 transports = 80 cases; every failure prints
  // the standalone one-line repro.
  FuzzOptions opts;
  opts.first_seed = 1;
  opts.seeds = 5;
  const auto report = harness::fuzz::run_fuzz(opts);
  EXPECT_EQ(report.cases, 80u);
  EXPECT_EQ(report.failures, 0u);
  for (const auto& line : report.failure_lines) ADD_FAILURE() << line;
}

TEST_F(FuzzDeterminism, SameCaseReplaysBitIdentically) {
  for (const auto topo : harness::fuzz::kAllTopos) {
    const CaseConfig cfg{42, topo, transport::Protocol::kAmrt};
    const auto r1 = harness::fuzz::run_case(cfg);
    const auto r2 = harness::fuzz::run_case(cfg);
    ASSERT_TRUE(r1.ok) << harness::fuzz::repro_line(cfg) << ": " << r1.failure;
    EXPECT_EQ(r1.hash, r2.hash) << harness::fuzz::repro_line(cfg);
    EXPECT_EQ(r1.events, r2.events);
    EXPECT_EQ(r1.drops, r2.drops);
    EXPECT_EQ(r1.trims, r2.trims);
    EXPECT_EQ(r1.completed, r2.completed);
  }
}

TEST_F(FuzzDeterminism, DifferentSeedsDiverge) {
  const auto r1 = harness::fuzz::run_case({1, Topo::kLeafSpine, transport::Protocol::kAmrt});
  const auto r2 = harness::fuzz::run_case({2, Topo::kLeafSpine, transport::Protocol::kAmrt});
  EXPECT_NE(r1.hash, r2.hash);  // the seed must actually reach the case
}

TEST_F(FuzzDeterminism, SerialAndParallelSweepsIdentical) {
  using Key = std::tuple<std::uint64_t, int, int>;
  auto sweep = [](unsigned threads) {
    FuzzOptions opts;
    opts.first_seed = 1;
    opts.seeds = 3;
    opts.threads = threads;
    std::map<Key, std::uint64_t> hashes;
    opts.on_case = [&hashes](const CaseConfig& c, const CaseResult& r) {
      hashes[{c.seed, static_cast<int>(c.topo), static_cast<int>(c.proto)}] = r.hash;
    };
    const auto report = harness::fuzz::run_fuzz(opts);
    EXPECT_EQ(report.failures, 0u);
    return hashes;
  };
  const auto serial = sweep(1);
  const auto parallel = sweep(4);
  ASSERT_EQ(serial.size(), 48u);
  EXPECT_EQ(serial, parallel);
}

TEST(FuzzRepro, LineNamesSeedTopoAndTransport) {
  const CaseConfig cfg{7, Topo::kDumbbell, transport::Protocol::kNdp};
  const auto line = harness::fuzz::repro_line(cfg);
  EXPECT_NE(line.find("scenario_fuzz"), std::string::npos);
  EXPECT_NE(line.find("--seed 7"), std::string::npos);
  EXPECT_NE(line.find("--topo dumbbell"), std::string::npos);
  EXPECT_NE(line.find("--transport"), std::string::npos);
  // And the names round-trip back into a config.
  EXPECT_EQ(harness::fuzz::topo_from_string("dumbbell"), Topo::kDumbbell);
  EXPECT_EQ(harness::fuzz::topo_from_string("leaf-spine"), Topo::kLeafSpine);
  EXPECT_EQ(harness::fuzz::topo_from_string("fat-tree"), Topo::kFatTree);
  EXPECT_THROW(static_cast<void>(harness::fuzz::topo_from_string("torus")),
               std::invalid_argument);
}

TEST(FuzzRepro, FailFastAbortPrintsTheReplayLine) {
  // The CI contract: when a fuzz case trips an invariant in fail-fast mode,
  // the abort names the exact repro command. Exercised with a synthetic
  // violation so it works on a healthy tree; audit-only because without
  // AMRT_AUDIT the hooks are stubs and nothing can trip.
  if (!audit::Auditor::enabled()) {
    GTEST_SKIP() << "requires -DAMRT_AUDIT=ON (the audit preset)";
  }
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const CaseConfig cfg{7, Topo::kDumbbell, transport::Protocol::kNdp};
  EXPECT_DEATH(
      {
        audit::set_fail_fast(true);
        audit::set_context(harness::fuzz::repro_line(cfg));
        audit::Auditor a;
        audit::PacketInfo p;
        p.flow = 1;
        a.on_inject(p);
        a.on_deliver(p);
        a.on_deliver(p);
      },
      "replay: scenario_fuzz --seed 7 --topo dumbbell");
}
