// Traffic-engine layer tests (DESIGN.md §14): the legacy-engine byte-identity
// contract, trace round trips and diagnostics, skew-matrix marginals, group
// structure, and the dump→replay FCT identity through the harness.
#include <cstdint>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/experiment.hpp"
#include "stats/group.hpp"
#include "workload/flow_trace.hpp"
#include "flow_generator.hpp"
#include "workload/traffic.hpp"
#include "workload/workloads.hpp"

using namespace amrt;
using workload::ArrivalModel;
using workload::Engine;
using workload::GeneratedFlow;
using workload::PairModel;
using workload::TrafficConfig;
using workload::WorkloadSpec;

namespace {

TrafficConfig small_config(std::size_t n_hosts = 16, std::size_t n_flows = 200) {
  TrafficConfig cfg;
  cfg.load = 0.6;
  cfg.n_flows = n_flows;
  cfg.n_hosts = n_hosts;
  return cfg;
}

std::vector<GeneratedFlow> run_engine(const WorkloadSpec& spec, const TrafficConfig& cfg,
                                      std::uint64_t seed,
                                      workload::Kind kind = workload::Kind::kWebSearch) {
  sim::Rng rng{seed};
  return workload::generate_traffic(spec, &workload::cdf(kind), cfg, rng);
}

// ---------------------------------------------------------------------------
// The byte-identity contract: the default (legacy) engine is draw-for-draw
// the old FlowGenerator.
// ---------------------------------------------------------------------------

TEST(TrafficEngine, LegacyEngineMatchesFlowGeneratorExactly) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL, 31337ULL}) {
    for (const workload::Kind kind : workload::kAllKinds) {
      const TrafficConfig cfg = small_config();

      sim::Rng rng_old{seed};
      workload::FlowGenerator gen{workload::cdf(kind), rng_old};
      const auto want = gen.generate(cfg);

      sim::Rng rng_new{seed};
      const auto got = workload::generate_traffic(WorkloadSpec{}, &workload::cdf(kind), cfg, rng_new);

      ASSERT_EQ(want.size(), got.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(want[i].id, got[i].id);
        EXPECT_EQ(want[i].src_host, got[i].src_host);
        EXPECT_EQ(want[i].dst_host, got[i].dst_host);
        EXPECT_EQ(want[i].bytes, got[i].bytes);
        EXPECT_EQ(want[i].start.ns(), got[i].start.ns());
        EXPECT_EQ(got[i].group_id, 0u);
        EXPECT_EQ(got[i].request_id, 0u);
      }
    }
  }
}

TEST(TrafficEngine, LegacyIgnoresNonDefaultKnobsInSpec) {
  // The contract holds whatever else sits in the spec: kLegacy forces
  // uniform + Poisson + no structure.
  WorkloadSpec spec;
  spec.engine = Engine::kLegacy;
  spec.pairs = PairModel::kHotRack;
  spec.arrivals = ArrivalModel::kFixedRate;
  spec.coflow_fraction = 0.5;

  const TrafficConfig cfg = small_config();
  sim::Rng rng_old{42};
  workload::FlowGenerator gen{workload::cdf(workload::Kind::kWebSearch), rng_old};
  const auto want = gen.generate(cfg);
  const auto got = run_engine(spec, cfg, 42);
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].src_host, got[i].src_host);
    EXPECT_EQ(want[i].start.ns(), got[i].start.ns());
  }
}

TEST(TrafficEngine, ThrowsLikeTheLegacyGenerator) {
  WorkloadSpec spec;
  TrafficConfig cfg = small_config();
  cfg.n_hosts = 1;
  sim::Rng rng{1};
  EXPECT_THROW(
      (void)workload::generate_traffic(spec, &workload::cdf(workload::Kind::kWebSearch), cfg, rng),
      std::invalid_argument);
  cfg = small_config();
  cfg.load = 0.0;
  EXPECT_THROW(
      (void)workload::generate_traffic(spec, &workload::cdf(workload::Kind::kWebSearch), cfg, rng),
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Pair models.
// ---------------------------------------------------------------------------

TEST(TrafficEngine, HotRackSourceMarginalTracksHotWeight) {
  WorkloadSpec spec;
  spec.engine = Engine::kSkewed;
  spec.pairs = PairModel::kHotRack;
  spec.skew.hosts_per_rack = 8;
  spec.skew.hot_rack_fraction = 0.25;  // 1 hot rack of 4
  spec.skew.hot_weight = 0.7;
  spec.skew.locality = 0.3;

  const auto flows = run_engine(spec, small_config(32, 3000), 5);
  std::size_t hot_srcs = 0;
  for (const auto& f : flows) {
    ASSERT_LT(f.src_host, 32u);
    ASSERT_NE(f.src_host, f.dst_host);
    if (f.src_host < 8) ++hot_srcs;
  }
  const double frac = static_cast<double>(hot_srcs) / static_cast<double>(flows.size());
  EXPECT_NEAR(frac, 0.7, 0.05);
}

TEST(TrafficEngine, LocalityKnobMovesSameRackFraction) {
  auto same_rack_fraction = [](double locality) {
    WorkloadSpec spec;
    spec.engine = Engine::kSkewed;
    spec.pairs = PairModel::kHotRack;
    spec.skew.hosts_per_rack = 8;
    spec.skew.hot_rack_fraction = 0.5;
    spec.skew.hot_weight = 0.5;  // uniform over racks: isolates the locality term
    spec.skew.locality = locality;
    const auto flows = run_engine(spec, small_config(32, 3000), 11);
    std::size_t same = 0;
    for (const auto& f : flows) {
      if (f.src_host / 8 == f.dst_host / 8) ++same;
    }
    return static_cast<double>(same) / static_cast<double>(flows.size());
  };
  const double low = same_rack_fraction(0.0);
  const double high = same_rack_fraction(0.8);
  // With locality 0, same-rack happens only when the skewed marginal lands
  // back on the source's rack (~1/4 here with hot_weight 0.5 over 2+2
  // racks); with 0.8 the local draw dominates.
  EXPECT_LT(low, 0.40);
  EXPECT_GT(high, 0.65);
  EXPECT_GT(high, low + 0.3);
}

TEST(TrafficEngine, PermutationIsAFixedDerangement) {
  WorkloadSpec spec;
  spec.engine = Engine::kSkewed;
  spec.pairs = PairModel::kPermutation;

  const auto flows = run_engine(spec, small_config(16, 2000), 3);
  std::vector<std::size_t> dst_of(16, SIZE_MAX);
  for (const auto& f : flows) {
    ASSERT_NE(f.src_host, f.dst_host);
    if (dst_of[f.src_host] == SIZE_MAX) {
      dst_of[f.src_host] = f.dst_host;
    } else {
      EXPECT_EQ(dst_of[f.src_host], f.dst_host) << "src " << f.src_host << " changed receiver";
    }
  }
  // Injective where observed: no two sources share a receiver.
  std::set<std::size_t> seen;
  for (const std::size_t d : dst_of) {
    if (d == SIZE_MAX) continue;
    EXPECT_TRUE(seen.insert(d).second);
  }
}

// ---------------------------------------------------------------------------
// Arrival models and structure.
// ---------------------------------------------------------------------------

TEST(TrafficEngine, FixedRateArrivalsAreEquallySpaced) {
  WorkloadSpec spec;
  spec.engine = Engine::kSkewed;
  spec.arrivals = ArrivalModel::kFixedRate;

  const auto flows = run_engine(spec, small_config(16, 50), 9);
  ASSERT_GE(flows.size(), 3u);
  const std::int64_t gap = flows[1].start.ns() - flows[0].start.ns();
  EXPECT_GT(gap, 0);
  for (std::size_t i = 2; i < flows.size(); ++i) {
    EXPECT_EQ(flows[i].start.ns() - flows[i - 1].start.ns(), gap);
  }
}

TEST(TrafficEngine, CoflowGroupsAreIncastsWithSharedGroupId) {
  WorkloadSpec spec;
  spec.engine = Engine::kSkewed;
  spec.coflow_fraction = 0.5;
  spec.coflow_width = 4;

  const auto flows = run_engine(spec, small_config(16, 400), 21);
  std::size_t grouped = 0;
  std::map<std::uint64_t, std::vector<const GeneratedFlow*>> groups;
  for (const auto& f : flows) {
    EXPECT_EQ(f.request_id, 0u);  // coflows are not requests
    if (f.group_id != 0) {
      ++grouped;
      groups[f.group_id].push_back(&f);
    }
  }
  EXPECT_GT(grouped, 0u);
  EXPECT_LT(grouped, flows.size());
  for (const auto& [id, members] : groups) {
    // Full groups have the configured width (the last may be truncated to
    // the n_flows budget); every member converges on one receiver at one
    // start time, from distinct senders.
    EXPECT_LE(members.size(), 4u);
    EXPECT_GE(members.size(), 1u);
    std::set<std::size_t> senders;
    for (const auto* m : members) {
      EXPECT_EQ(m->dst_host, members.front()->dst_host);
      EXPECT_EQ(m->start.ns(), members.front()->start.ns());
      EXPECT_NE(m->src_host, m->dst_host);
      EXPECT_TRUE(senders.insert(m->src_host).second);
    }
  }
}

TEST(TrafficEngine, FanoutRequestsConvergeOnOneFrontend) {
  WorkloadSpec spec;
  spec.engine = Engine::kFanout;
  spec.fanout = 5;
  spec.response_bytes = 20'000;

  const auto flows = run_engine(spec, small_config(16, 200), 13);
  ASSERT_EQ(flows.size(), 200u);
  std::map<std::uint64_t, std::vector<const GeneratedFlow*>> requests;
  for (const auto& f : flows) {
    EXPECT_NE(f.group_id, 0u);
    EXPECT_EQ(f.group_id, f.request_id);  // fan-out: group == request
    EXPECT_EQ(f.bytes, 20'000u);
    requests[f.request_id].push_back(&f);
  }
  ASSERT_EQ(requests.size(), 40u);  // 200 flows / fanout 5
  for (const auto& [id, members] : requests) {
    EXPECT_EQ(members.size(), 5u);
    std::set<std::size_t> backends;
    for (const auto* m : members) {
      EXPECT_EQ(m->dst_host, members.front()->dst_host);  // one front end
      EXPECT_NE(m->src_host, m->dst_host);
      EXPECT_TRUE(backends.insert(m->src_host).second);  // distinct backends
    }
  }
}

TEST(TrafficEngine, EnumStringsRoundTrip) {
  for (const Engine e : {Engine::kLegacy, Engine::kSkewed, Engine::kFanout, Engine::kTrace}) {
    EXPECT_EQ(workload::engine_from_string(workload::to_string(e)), e);
  }
  for (const PairModel p :
       {PairModel::kUniform, PairModel::kHotRack, PairModel::kPermutation}) {
    EXPECT_EQ(workload::pair_model_from_string(workload::to_string(p)), p);
  }
  for (const ArrivalModel a : {ArrivalModel::kPoisson, ArrivalModel::kFixedRate}) {
    EXPECT_EQ(workload::arrival_model_from_string(workload::to_string(a)), a);
  }
  EXPECT_THROW((void)workload::engine_from_string("warp"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Trace format.
// ---------------------------------------------------------------------------

TEST(FlowTrace, WriteReadRoundTripIsExact) {
  WorkloadSpec spec;
  spec.engine = Engine::kFanout;
  spec.fanout = 3;
  const auto want = run_engine(spec, small_config(16, 60), 17);

  std::stringstream buf;
  workload::write_trace(buf, want);
  const auto got = workload::read_trace(buf, "<memory>");

  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].id, i + 1);  // ids are implicit row order
    EXPECT_EQ(want[i].src_host, got[i].src_host);
    EXPECT_EQ(want[i].dst_host, got[i].dst_host);
    EXPECT_EQ(want[i].bytes, got[i].bytes);
    EXPECT_EQ(want[i].start.ns(), got[i].start.ns());
    EXPECT_EQ(want[i].group_id, got[i].group_id);
    EXPECT_EQ(want[i].request_id, got[i].request_id);
  }
}

TEST(FlowTrace, FiveFieldRowsDefaultRequestToZero) {
  std::stringstream in{"100,0,1,5000,7\n200,1,2,6000,0\n"};
  const auto flows = workload::read_trace(in, "t");
  ASSERT_EQ(flows.size(), 2u);
  EXPECT_EQ(flows[0].group_id, 7u);
  EXPECT_EQ(flows[0].request_id, 0u);
}

TEST(FlowTrace, MalformedLinesNameFileAndLine) {
  auto expect_error = [](const std::string& text, const std::string& needle) {
    std::stringstream in{text};
    try {
      (void)workload::read_trace(in, "bad.csv");
      FAIL() << "expected TraceError for: " << text;
    } catch (const workload::TraceError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(needle), std::string::npos) << what;
    }
  };
  // Wrong field count, line 2 (line 1 is a comment).
  expect_error("# header\n1,2,3\n", "bad.csv:2");
  expect_error("# header\n1,2,3\n", "expected 5 or 6 fields");
  // Non-numeric field names the column.
  expect_error("10,0,x,100,0\n", "bad.csv:1");
  expect_error("10,0,x,100,0\n", "malformed dst");
  // Self-loop and zero bytes.
  expect_error("10,3,3,100,0\n", "src == dst");
  expect_error("10,0,1,0,0\n", "zero-byte");
  // Empty trace.
  expect_error("# only comments\n", "no flows");
}

// Table-driven robustness sweep over line-ending and banner variants. Unix,
// CRLF, and missing-trailing-newline dumps must parse identically; a matching
// magic prefix with an unknown version must be rejected with a clear error
// (before the fix it was skipped as an ordinary comment and the body silently
// misread under v1 rules).
TEST(FlowTrace, LineEndingAndBannerTable) {
  struct Case {
    const char* name;
    std::string text;
    bool ok;
    const char* needle;  // substring of the error for !ok; ignored for ok
  };
  const Case kCases[] = {
      {"unix", "# amrt-flow-trace v1\n100,0,1,5000,0\n200,1,2,6000,0\n", true, ""},
      {"crlf", "# amrt-flow-trace v1\r\n100,0,1,5000,0\r\n200,1,2,6000,0\r\n", true, ""},
      {"no_trailing_newline", "# amrt-flow-trace v1\n100,0,1,5000,0\n200,1,2,6000,0", true, ""},
      {"crlf_no_trailing_newline", "# amrt-flow-trace v1\r\n100,0,1,5000,0", true, ""},
      {"bannerless_body", "100,0,1,5000,0\n", true, ""},
      {"v2_banner", "# amrt-flow-trace v2\n100,0,1,5000,0\n", false, "unsupported trace format"},
      {"v2_banner_crlf", "# amrt-flow-trace v2\r\n100,0,1,5000,0\r\n", false,
       "unsupported trace format"},
      {"versionless_banner", "# amrt-flow-trace\n100,0,1,5000,0\n", false,
       "unsupported trace format"},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.name);
    std::stringstream in{c.text};
    if (c.ok) {
      const auto flows = workload::read_trace(in, c.name);
      ASSERT_FALSE(flows.empty());
      EXPECT_EQ(flows[0].bytes, 5000u);
      EXPECT_EQ(flows[0].start.ns(), 100);
    } else {
      try {
        (void)workload::read_trace(in, c.name);
        FAIL() << "expected TraceError";
      } catch (const workload::TraceError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(c.needle), std::string::npos) << what;
        // The message must also say what the reader *does* understand.
        EXPECT_NE(what.find("amrt-flow-trace v1"), std::string::npos) << what;
      }
    }
  }
}

TEST(FlowTrace, RejectsNonMonotonicTimestamps) {
  std::stringstream in{"200,0,1,5000,0\n100,1,2,6000,0\n"};
  try {
    (void)workload::read_trace(in, "unsorted.csv");
    FAIL() << "expected TraceError";
  } catch (const workload::TraceError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unsorted.csv:2"), std::string::npos) << what;
    EXPECT_NE(what.find("non-monotonic"), std::string::npos) << what;
  }
}

TEST(FlowTrace, TraceEngineRejectsOutOfRangeHosts) {
  const std::string path = testing::TempDir() + "oob_trace.csv";
  {
    std::ofstream out{path};
    out << "100,0,99,5000,0\n";
  }
  WorkloadSpec spec;
  spec.engine = Engine::kTrace;
  spec.trace_path = path;
  TrafficConfig cfg = small_config(16, 10);
  sim::Rng rng{1};
  EXPECT_THROW((void)workload::generate_traffic(spec, nullptr, cfg, rng), workload::TraceError);
}

// ---------------------------------------------------------------------------
// Group accounting.
// ---------------------------------------------------------------------------

TEST(GroupBook, CollectiveCompletionTimeSpansFirstStartToLastEnd) {
  stats::GroupBook book;
  book.note(1, 10, 0);
  book.note(2, 10, 0);
  book.note(3, 0, 5);
  book.note(4, 0, 0);  // ungrouped: ignored entirely

  auto rec = [](std::uint64_t flow, std::int64_t start_us, std::int64_t end_us) {
    stats::FlowRecord r;
    r.flow = flow;
    r.bytes = 1000;
    r.start = sim::TimePoint::from_ns(start_us * 1000);
    r.end = sim::TimePoint::from_ns(end_us * 1000);
    return r;
  };

  std::vector<stats::FlowRecord> records{rec(1, 0, 10), rec(2, 5, 30), rec(3, 2, 9), rec(4, 0, 1)};
  book.annotate(records);
  EXPECT_EQ(records[0].group, 10u);
  EXPECT_EQ(records[1].group, 10u);
  EXPECT_EQ(records[2].request, 5u);
  EXPECT_EQ(records[3].group, 0u);

  const auto gs = book.group_stats(records);
  EXPECT_EQ(gs.groups, 1u);
  EXPECT_EQ(gs.complete, 1u);
  EXPECT_DOUBLE_EQ(gs.max_us, 30.0);  // first start 0, last end 30
  EXPECT_DOUBLE_EQ(gs.p99_us, 30.0);

  const auto qs = book.request_stats(records);
  EXPECT_EQ(qs.groups, 1u);
  EXPECT_EQ(qs.complete, 1u);
  EXPECT_DOUBLE_EQ(qs.max_us, 7.0);
}

TEST(GroupBook, PartialGroupsDoNotCountAsComplete) {
  stats::GroupBook book;
  book.note(1, 10, 0);
  book.note(2, 10, 0);
  stats::FlowRecord only_one;
  only_one.flow = 1;
  only_one.start = sim::TimePoint::zero();
  only_one.end = sim::TimePoint::from_ns(1000);
  const auto gs = book.group_stats({only_one});
  EXPECT_EQ(gs.groups, 1u);
  EXPECT_EQ(gs.complete, 0u);
  EXPECT_DOUBLE_EQ(gs.p99_us, 0.0);
}

// ---------------------------------------------------------------------------
// Harness integration: fan-out metrics and the dump→replay FCT identity.
// ---------------------------------------------------------------------------

harness::ExperimentConfig tiny_fabric() {
  harness::ExperimentConfig cfg;
  cfg.run.proto = transport::Protocol::kAmrt;
  cfg.run.fabric.leaves = 2;
  cfg.run.fabric.spines = 2;
  cfg.run.fabric.hosts_per_leaf = 4;
  cfg.load = 0.6;
  cfg.n_flows = 48;
  cfg.run.seed = 42;
  return cfg;
}

TEST(HarnessEngine, FanoutRunReportsRequestStats) {
  auto cfg = tiny_fabric();
  cfg.engine.engine = Engine::kFanout;
  cfg.engine.fanout = 4;
  cfg.engine.response_bytes = 20'000;

  const auto r = harness::run_experiment(cfg);
  EXPECT_EQ(r.flows_completed, r.flows_started);
  EXPECT_EQ(r.request_stats.groups, 12u);  // 48 flows / fanout 4
  EXPECT_EQ(r.request_stats.complete, 12u);
  EXPECT_GT(r.request_stats.p99_us, 0.0);
  EXPECT_GE(r.request_stats.max_us, r.request_stats.p99_us - 1e-9);

  // Records carry membership, and the CSV exposes it.
  std::stringstream csv;
  harness::write_fct_csv(csv, r.flow_records);
  const std::string head = csv.str().substr(0, csv.str().find('\n'));
  EXPECT_EQ(head, "flow,bytes,start_us,end_us,fct_us,group_id,request_id");
  bool any_grouped = false;
  for (const auto& rec : r.flow_records) any_grouped = any_grouped || rec.request != 0;
  EXPECT_TRUE(any_grouped);
}

TEST(HarnessEngine, LegacyRunsLeaveGroupColumnsEmpty) {
  const auto r = harness::run_experiment(tiny_fabric());
  std::stringstream csv;
  harness::write_fct_csv(csv, r.flow_records);
  std::string line;
  std::getline(csv, line);  // header
  while (std::getline(csv, line)) {
    EXPECT_EQ(line.substr(line.size() - 2), ",,") << line;
  }
  EXPECT_EQ(r.group_stats.groups, 0u);
  EXPECT_EQ(r.request_stats.groups, 0u);
}

TEST(HarnessEngine, TraceDumpReplaysWithIdenticalFctRecords) {
  const std::string path = testing::TempDir() + "dump_replay_trace.csv";
  auto cfg = tiny_fabric();
  cfg.trace_out = path;
  const auto original = harness::run_experiment(cfg);
  ASSERT_EQ(original.flows_completed, original.flows_started);

  auto replay_cfg = tiny_fabric();
  replay_cfg.engine.engine = Engine::kTrace;
  replay_cfg.engine.trace_path = path;
  const auto replay = harness::run_experiment(replay_cfg);

  ASSERT_EQ(original.flow_records.size(), replay.flow_records.size());
  for (std::size_t i = 0; i < original.flow_records.size(); ++i) {
    const auto& a = original.flow_records[i];
    const auto& b = replay.flow_records[i];
    EXPECT_EQ(a.flow, b.flow);
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_EQ(a.start.ns(), b.start.ns());
    EXPECT_EQ(a.end.ns(), b.end.ns());
  }
}

TEST(HarnessEngine, TraceReplayComposesWithShards) {
  const std::string path = testing::TempDir() + "shard_replay_trace.csv";
  auto cfg = tiny_fabric();
  cfg.trace_out = path;
  cfg.run.shards = 2;
  const auto serial = harness::run_experiment(cfg);
  ASSERT_EQ(serial.flows_started, serial.flows_completed);

  auto replay_cfg = tiny_fabric();
  replay_cfg.engine.engine = Engine::kTrace;
  replay_cfg.engine.trace_path = path;
  replay_cfg.run.shards = 2;
  const auto replay = harness::run_experiment(replay_cfg);
  EXPECT_EQ(replay.flows_started, serial.flows_started);
  EXPECT_EQ(replay.flows_completed, replay.flows_started);
}

}  // namespace
