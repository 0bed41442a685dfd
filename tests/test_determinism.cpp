// Determinism guarantees: a fixed seed must give byte-identical results
// across repeated serial runs, and `harness::SweepRunner` must give the
// same bytes whether points run on one thread or many. These invariants are
// what make every figure in the repository reproducible and what licenses
// the parallel sweep runner in the first place.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <iterator>
#include <sstream>
#include <vector>

#include "golden_runs.hpp"
#include "harness/sweep.hpp"

using namespace amrt;
using harness::ExperimentConfig;
using harness::ExperimentResult;

namespace {

ExperimentConfig small_cfg(transport::Protocol proto, std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.run.proto = proto;
  cfg.workload = workload::Kind::kWebSearch;
  cfg.load = 0.5;
  cfg.n_flows = 60;
  cfg.run.fabric.leaves = 2;
  cfg.run.fabric.spines = 2;
  cfg.run.fabric.hosts_per_leaf = 4;
  cfg.run.seed = seed;
  return cfg;
}

// Exact (bitwise, for the doubles) equality on everything except wall-clock.
void expect_identical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.sim_seconds, b.sim_seconds);
  EXPECT_EQ(a.bytes_delivered, b.bytes_delivered);
  EXPECT_EQ(a.flows_started, b.flows_started);
  EXPECT_EQ(a.flows_completed, b.flows_completed);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.trims, b.trims);
  EXPECT_EQ(a.max_queue_pkts, b.max_queue_pkts);
  EXPECT_EQ(a.fct_all.afct_us, b.fct_all.afct_us);
  EXPECT_EQ(a.fct_all.p99_us, b.fct_all.p99_us);
  EXPECT_EQ(a.fct_all.mean_slowdown, b.fct_all.mean_slowdown);
  EXPECT_EQ(a.fct_small.afct_us, b.fct_small.afct_us);
  EXPECT_EQ(a.fct_large.afct_us, b.fct_large.afct_us);
  EXPECT_EQ(a.mean_utilization, b.mean_utilization);
  ASSERT_EQ(a.flow_records.size(), b.flow_records.size());
  for (std::size_t i = 0; i < a.flow_records.size(); ++i) {
    EXPECT_EQ(a.flow_records[i].flow, b.flow_records[i].flow);
    EXPECT_EQ(a.flow_records[i].bytes, b.flow_records[i].bytes);
    EXPECT_EQ(a.flow_records[i].start.ns(), b.flow_records[i].start.ns());
    EXPECT_EQ(a.flow_records[i].end.ns(), b.flow_records[i].end.ns());
  }
}

std::vector<ExperimentConfig> grid() {
  std::vector<ExperimentConfig> points;
  for (auto proto : {transport::Protocol::kAmrt, transport::Protocol::kHoma}) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      points.push_back(small_cfg(proto, seed));
    }
  }
  return points;
}

}  // namespace

TEST(Determinism, SameSeedSameBytesAcrossSerialRuns) {
  const auto cfg = small_cfg(transport::Protocol::kAmrt, 7);
  const auto r1 = harness::run_experiment(cfg);
  const auto r2 = harness::run_experiment(cfg);
  ASSERT_GT(r1.flows_completed, 0u);
  expect_identical(r1, r2);
}

TEST(Determinism, DifferentSeedsDiverge) {
  const auto r1 = harness::run_experiment(small_cfg(transport::Protocol::kAmrt, 1));
  const auto r2 = harness::run_experiment(small_cfg(transport::Protocol::kAmrt, 2));
  EXPECT_NE(r1.events, r2.events);  // the seed must actually reach the run
}

TEST(Determinism, SerialAndParallelSweepIdentical) {
  const auto points = grid();

  harness::SweepOptions serial;
  serial.threads = 1;
  auto serial_results = harness::SweepRunner{serial}.run(points);

  harness::SweepOptions parallel;
  parallel.threads = 4;
  auto parallel_results = harness::SweepRunner{parallel}.run(points);

  ASSERT_EQ(serial_results.size(), parallel_results.size());
  for (std::size_t i = 0; i < serial_results.size(); ++i) {
    expect_identical(serial_results[i], parallel_results[i]);
  }

  // The JSON export (what plotting scripts consume) must also be
  // byte-identical once the wall-clock field is neutralized.
  for (auto* results : {&serial_results, &parallel_results}) {
    for (auto& r : *results) r.wall_seconds = 0.0;
  }
  std::ostringstream js, jp;
  harness::write_results_json(js, points, serial_results);
  harness::write_results_json(jp, points, parallel_results);
  EXPECT_EQ(js.str(), jp.str());
}

TEST(Determinism, Fig13StyleSweepSerialVsThreadsByteIdentical) {
  // The shape of bench/fig13_utilization: all four protocols across several
  // flow counts at load 0.6, exported as JSON. The export must be
  // byte-identical between a serial run and a --threads=N run — this is the
  // exact property that licenses running the figure sweeps in parallel.
  std::vector<ExperimentConfig> points;
  for (auto proto : {transport::Protocol::kPhost, transport::Protocol::kHoma,
                     transport::Protocol::kNdp, transport::Protocol::kAmrt}) {
    for (std::size_t n : {40u, 80u}) {
      ExperimentConfig cfg;
      cfg.run.proto = proto;
      cfg.workload = workload::Kind::kDataMining;
      cfg.load = 0.6;
      cfg.n_flows = n;
      cfg.run.fabric.leaves = 2;
      cfg.run.fabric.spines = 2;
      cfg.run.fabric.hosts_per_leaf = 4;
      cfg.run.seed = 13;
      points.push_back(cfg);
    }
  }

  harness::SweepOptions serial;
  serial.threads = 1;
  auto serial_results = harness::SweepRunner{serial}.run(points);
  harness::SweepOptions parallel;
  parallel.threads = 4;
  auto parallel_results = harness::SweepRunner{parallel}.run(points);

  for (auto* results : {&serial_results, &parallel_results}) {
    for (auto& r : *results) r.wall_seconds = 0.0;  // only non-deterministic field
  }
  std::ostringstream js, jp;
  harness::write_results_json(js, points, serial_results);
  harness::write_results_json(jp, points, parallel_results);
  ASSERT_GT(js.str().size(), 0u);
  EXPECT_EQ(js.str(), jp.str());
}

namespace {
using golden::GoldenRecord;
#include "golden_fct.inc"
}  // namespace

TEST(Determinism, GoldenSeedFctFixtureUnchanged) {
  // Pinned scenario under every transport. The AMRT fixture was generated
  // before the data-plane fast-path refactor (flat flow tables, dense
  // routing + route cache, timing-wheel event queue) and has been
  // bit-identical since; the other three were pinned when the audit
  // subsystem landed, locking all protocol behaviour against accidental
  // drift. If this fails, an "optimization" changed observable behaviour.
  // Regenerate golden_fct.inc (tools/regen_golden.sh) only for a change
  // that is *supposed* to alter results, and say so in the commit.
  struct Fixture {
    transport::Protocol proto;
    const GoldenRecord* golden;
    std::size_t count;
  };
  const Fixture fixtures[] = {
      {transport::Protocol::kAmrt, kGoldenFctAmrt, std::size(kGoldenFctAmrt)},
      {transport::Protocol::kPhost, kGoldenFctPhost, std::size(kGoldenFctPhost)},
      {transport::Protocol::kHoma, kGoldenFctHoma, std::size(kGoldenFctHoma)},
      {transport::Protocol::kNdp, kGoldenFctNdp, std::size(kGoldenFctNdp)},
      {transport::Protocol::kDctcp, kGoldenFctDctcp, std::size(kGoldenFctDctcp)},
  };
  for (const auto& fixture : fixtures) {
    SCOPED_TRACE(transport::to_string(fixture.proto));
    const auto r = harness::run_experiment(golden::golden_cfg(fixture.proto));

    ASSERT_EQ(r.flow_records.size(), fixture.count);
    for (std::size_t i = 0; i < fixture.count; ++i) {
      EXPECT_EQ(r.flow_records[i].flow, fixture.golden[i].flow) << "record " << i;
      EXPECT_EQ(r.flow_records[i].bytes, fixture.golden[i].bytes) << "record " << i;
      EXPECT_EQ(r.flow_records[i].start.ns(), fixture.golden[i].start_ns) << "record " << i;
      EXPECT_EQ(r.flow_records[i].end.ns(), fixture.golden[i].end_ns) << "record " << i;
    }
  }
}

TEST(SweepRunner, ForEachRunsEveryIndexExactlyOnce) {
  harness::SweepOptions opts;
  opts.threads = 4;
  harness::SweepRunner runner{opts};
  constexpr std::size_t kN = 100;
  std::vector<std::atomic<int>> hits(kN);
  runner.for_each(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(SweepRunner, MapPreservesInputOrder) {
  harness::SweepOptions opts;
  opts.threads = 3;
  harness::SweepRunner runner{opts};
  const auto out = runner.map<std::size_t>(50, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 50u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(SweepRunner, FirstExceptionPropagates) {
  harness::SweepOptions opts;
  opts.threads = 2;
  harness::SweepRunner runner{opts};
  EXPECT_THROW(
      runner.for_each(8,
                      [](std::size_t i) {
                        if (i == 3) throw std::runtime_error("boom");
                      }),
      std::runtime_error);
}

TEST(SweepRunner, ProgressCallbackReachesTotal) {
  harness::SweepOptions opts;
  opts.threads = 2;
  std::atomic<std::size_t> last_done{0};
  std::atomic<std::size_t> calls{0};
  opts.on_progress = [&](std::size_t done, std::size_t total) {
    EXPECT_LE(done, total);
    last_done = done;
    calls.fetch_add(1);
  };
  harness::SweepRunner runner{opts};
  runner.for_each(10, [](std::size_t) {});
  EXPECT_EQ(calls.load(), 10u);
  EXPECT_EQ(last_done.load(), 10u);
}

TEST(SweepRunner, ThreadsResolveFromEnv) {
  ::setenv("AMRT_SWEEP_THREADS", "3", 1);
  harness::SweepRunner from_env{};
  EXPECT_EQ(from_env.threads(), 3u);
  // An explicit request wins over the environment.
  harness::SweepOptions opts;
  opts.threads = 5;
  harness::SweepRunner explicit_threads{opts};
  EXPECT_EQ(explicit_threads.threads(), 5u);
  ::unsetenv("AMRT_SWEEP_THREADS");
}
