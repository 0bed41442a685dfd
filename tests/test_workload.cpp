// Unit + property tests for the workload machinery (src/workload/).
#include <gtest/gtest.h>

#include "workload/traffic.hpp"
#include "workload/workloads.hpp"

using namespace amrt::workload;
using amrt::sim::Rng;

TEST(Cdf, RejectsMalformedKnots) {
  using P = EmpiricalCdf::Point;
  EXPECT_THROW(EmpiricalCdf({P{100, 1.0}}), std::invalid_argument);                 // too few
  EXPECT_THROW(EmpiricalCdf({P{100, 0.5}, P{50, 1.0}}), std::invalid_argument);     // bytes down
  EXPECT_THROW(EmpiricalCdf({P{100, 0.5}, P{200, 0.4}}), std::invalid_argument);    // cum down
  EXPECT_THROW(EmpiricalCdf({P{100, 0.5}, P{200, 0.9}}), std::invalid_argument);    // cum != 1
}

TEST(Cdf, QuantileInterpolatesLinearly) {
  EmpiricalCdf cdf{{{100, 0.5}, {200, 1.0}}};
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 100.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.75), 150.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 200.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.1), 100.0);  // point mass at the first knot
}

TEST(Cdf, MeanMatchesPiecewiseModel) {
  EmpiricalCdf cdf{{{100, 0.5}, {200, 1.0}}};
  // 50% point mass at 100 + 50% uniform [100,200]: 50 + 75 = 125.
  EXPECT_DOUBLE_EQ(cdf.mean_bytes(), 125.0);
}

TEST(Cdf, FractionBelowInterpolates) {
  EmpiricalCdf cdf{{{100, 0.5}, {200, 1.0}}};
  EXPECT_DOUBLE_EQ(cdf.fraction_below(50), 0.5);
  EXPECT_DOUBLE_EQ(cdf.fraction_below(150), 0.75);
  EXPECT_DOUBLE_EQ(cdf.fraction_below(500), 1.0);
}

TEST(Cdf, SamplesWithinSupport) {
  EmpiricalCdf cdf{{{100, 0.3}, {1000, 1.0}}};
  Rng rng{3};
  for (int i = 0; i < 1000; ++i) {
    const auto v = cdf.sample(rng);
    EXPECT_GE(v, 100u);
    EXPECT_LE(v, 1000u);
  }
}

TEST(Workloads, NamesAndAbbrevsRoundTrip) {
  for (Kind k : kAllKinds) {
    EXPECT_EQ(kind_from_string(name(k)), k);
    EXPECT_EQ(kind_from_string(abbrev(k)), k);
  }
  EXPECT_THROW((void)kind_from_string("bogus"), std::invalid_argument);
}

TEST(Workloads, WebServerHasSmallestMean) {
  const double wsv = cdf(Kind::kWebServer).mean_bytes();
  for (Kind k : kAllKinds) {
    if (k == Kind::kWebServer) continue;
    EXPECT_LT(wsv, cdf(k).mean_bytes()) << name(k);
  }
}

TEST(Workloads, DataMiningHasLargestMean) {
  const double dm = cdf(Kind::kDataMining).mean_bytes();
  for (Kind k : kAllKinds) {
    if (k == Kind::kDataMining) continue;
    EXPECT_GT(dm, cdf(k).mean_bytes()) << name(k);
  }
  // Section 8.1: average flow sizes range from ~64KB to ~7.41MB.
  EXPECT_NEAR(cdf(Kind::kWebServer).mean_bytes(), 64e3, 30e3);
  EXPECT_NEAR(dm, 7.41e6, 3e6);
}

TEST(Workloads, MajorityOfFlowsAreTiny) {
  // "more than half of the flows are less than 10KB" (Section 8.1).
  for (Kind k : {Kind::kWebServer, Kind::kCacheFollower, Kind::kHadoop, Kind::kDataMining}) {
    EXPECT_GT(cdf(k).fraction_below(10'000), 0.5) << name(k);
  }
}

// Property: sampling converges to the analytic mean for every workload.
class WorkloadSampling : public ::testing::TestWithParam<Kind> {};

TEST_P(WorkloadSampling, SampledMeanMatchesAnalytic) {
  const auto& dist = cdf(GetParam());
  Rng rng{12345};
  double sum = 0;
  constexpr int kN = 200'000;
  for (int i = 0; i < kN; ++i) sum += static_cast<double>(dist.sample(rng));
  EXPECT_NEAR(sum / kN, dist.mean_bytes(), dist.mean_bytes() * 0.05);
}

TEST_P(WorkloadSampling, SampledTinyFractionMatchesCdf) {
  const auto& dist = cdf(GetParam());
  Rng rng{777};
  int tiny = 0;
  constexpr int kN = 50'000;
  for (int i = 0; i < kN; ++i) tiny += dist.sample(rng) <= 10'000 ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(tiny) / kN, dist.fraction_below(10'000), 0.02);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadSampling, ::testing::ValuesIn(kAllKinds),
                         [](const auto& pinfo) { return abbrev(pinfo.param); });

// The Generator suite drives the default (legacy) traffic engine, which is
// the original Poisson generator draw for draw.
namespace {
std::vector<GeneratedFlow> generate(Kind kind, const TrafficConfig& cfg, Rng& rng) {
  return generate_traffic(WorkloadSpec{}, &cdf(kind), cfg, rng);
}
amrt::sim::Duration mean_gap(Kind kind, const TrafficConfig& cfg) {
  return mean_interarrival(cfg, cdf(kind).mean_bytes());
}
}  // namespace

TEST(Generator, MeanInterarrivalMatchesLoadFormula) {
  TrafficConfig cfg;
  cfg.load = 0.5;
  cfg.n_hosts = 10;
  cfg.host_rate = amrt::sim::Bandwidth::gbps(10);
  // lambda = 0.5 * 10 * 10e9 / (mean*8).
  const double mean_bits = cdf(Kind::kWebSearch).mean_bytes() * 8;
  const double expect_s = mean_bits / (0.5 * 10 * 10e9);
  // The generator rounds the interval to a whole nanosecond.
  EXPECT_NEAR(mean_gap(Kind::kWebSearch, cfg).to_seconds(), expect_s, 1e-9);
}

TEST(Generator, HigherLoadArrivesFaster) {
  TrafficConfig lo, hi;
  lo.load = 0.1;
  hi.load = 0.7;
  EXPECT_GT(mean_gap(Kind::kWebSearch, lo), mean_gap(Kind::kWebSearch, hi));
}

TEST(Generator, FlowsSortedUniqueIdsDistinctEndpoints) {
  Rng rng{5};
  TrafficConfig cfg;
  cfg.n_flows = 500;
  cfg.n_hosts = 8;
  const auto flows = generate(Kind::kWebServer, cfg, rng);
  ASSERT_EQ(flows.size(), 500u);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    EXPECT_EQ(flows[i].id, i + 1);
    EXPECT_NE(flows[i].src_host, flows[i].dst_host);
    EXPECT_LT(flows[i].src_host, 8u);
    EXPECT_GT(flows[i].bytes, 0u);
    if (i > 0) {
      EXPECT_GE(flows[i].start, flows[i - 1].start);
    }
  }
}

TEST(Generator, EmpiricalArrivalRateNearTarget) {
  Rng rng{9};
  TrafficConfig cfg;
  cfg.n_flows = 5000;
  cfg.n_hosts = 16;
  cfg.load = 0.6;
  const auto flows = generate(Kind::kWebSearch, cfg, rng);
  const double span_s = (flows.back().start - flows.front().start).to_seconds();
  const double measured_rate = static_cast<double>(flows.size() - 1) / span_s;
  const double target_rate = 1.0 / mean_gap(Kind::kWebSearch, cfg).to_seconds();
  EXPECT_NEAR(measured_rate, target_rate, target_rate * 0.1);
}

TEST(Generator, RejectsDegenerateConfigs) {
  Rng rng{5};
  TrafficConfig cfg;
  cfg.n_hosts = 1;
  EXPECT_THROW((void)generate(Kind::kWebServer, cfg, rng), std::invalid_argument);
  cfg.n_hosts = 4;
  cfg.load = 0.0;
  EXPECT_THROW((void)generate(Kind::kWebServer, cfg, rng), std::invalid_argument);
}

TEST(Generator, DeterministicForSeed) {
  Rng a{42}, b{42};
  TrafficConfig cfg;
  cfg.n_flows = 50;
  cfg.n_hosts = 6;
  const auto fa = generate(Kind::kHadoop, cfg, a);
  const auto fb = generate(Kind::kHadoop, cfg, b);
  for (std::size_t i = 0; i < fa.size(); ++i) {
    EXPECT_EQ(fa[i].bytes, fb[i].bytes);
    EXPECT_EQ(fa[i].start, fb[i].start);
    EXPECT_EQ(fa[i].src_host, fb[i].src_host);
  }
}
