// End-to-end gates for partitioned execution (net/partition.hpp +
// harness/sharded.hpp, driven through harness/run.hpp): a k=4 fat-tree under the web-search workload must
// complete every flow at every shard count, a fixed shard count must
// reproduce bit-identically run-to-run, and the sharded FCT distribution
// must stay within a stated tolerance of the serial one — the serial path
// itself is pinned byte-for-byte by the golden fixtures, so this file only
// owns the sharded side of the contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "harness/run.hpp"
#include "stats/fct.hpp"

using namespace amrt;
using transport::Protocol;

namespace {

constexpr std::uint64_t kSeed = 11;
constexpr std::size_t kFlows = 120;
constexpr double kLoad = 0.5;

struct RunOutput {
  std::size_t flows = 0;
  std::vector<stats::FlowRecord> records;
  stats::FctSummary summary;
};

// One k=4 fat-tree web-search run through the harness run object. shards ==
// 1 uses the plain serial scheduler; shards > 1 the windowed multi-threaded
// runner. The schedule is drawn from the seed before the fabric is built,
// so topology, workload draws and flow schedule agree across shard counts.
RunOutput run_fat_tree(unsigned shards, Protocol proto = Protocol::kAmrt) {
  harness::RunSpec spec;
  spec.fabric.topology = harness::Topology::kFatTree;
  spec.fabric.fat_k = 4;
  spec.fabric.link_delay = sim::Duration::microseconds(5);
  spec.proto = proto;
  spec.seed = kSeed;
  spec.shards = shards;

  const auto flows = harness::draw_websearch(spec, kFlows, kLoad);

  harness::PacketRun run{spec, flows};
  run.run();

  RunOutput out;
  out.flows = flows.size();
  out.records = run.recorder().completed();
  out.summary = run.recorder().summarize();
  return out;
}

}  // namespace

TEST(Sharded, AllFlowsCompleteAtEveryShardCount) {
  for (const unsigned n : {1u, 2u, 4u}) {
    const RunOutput out = run_fat_tree(n);
    EXPECT_EQ(out.records.size(), out.flows) << n << " shards";
    EXPECT_EQ(out.flows, kFlows);
  }
}

TEST(Sharded, FixedShardCountIsReproducible) {
  const RunOutput a = run_fat_tree(4);
  const RunOutput b = run_fat_tree(4);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].flow, b.records[i].flow) << "slot " << i;
    EXPECT_EQ(a.records[i].bytes, b.records[i].bytes) << "slot " << i;
    EXPECT_EQ(a.records[i].start.ns(), b.records[i].start.ns()) << "slot " << i;
    EXPECT_EQ(a.records[i].end.ns(), b.records[i].end.ns()) << "slot " << i;
  }
}

TEST(Sharded, FctDistributionTracksSerialWithinTolerance) {
  // Sharding reorders same-timestamp ties across shards, so FCTs differ in
  // the tail of scheduling noise, not in protocol behavior. Observed on this
  // scenario (seed 11, 120 flows): avg within well under 1%, p99 within a
  // few percent. The gate allows 5% on the average and 15% on the p99 —
  // wide enough to not flake on tie-break drift, tight enough that a broken
  // window protocol (lost packets, stalled grants, duplicated deliveries)
  // blows through it.
  const RunOutput serial = run_fat_tree(1);
  ASSERT_EQ(serial.records.size(), serial.flows);
  for (const unsigned n : {2u, 4u}) {
    const RunOutput sharded = run_fat_tree(n);
    ASSERT_EQ(sharded.records.size(), sharded.flows) << n << " shards";
    EXPECT_NEAR(sharded.summary.afct_us, serial.summary.afct_us,
                serial.summary.afct_us * 0.05)
        << n << " shards";
    EXPECT_NEAR(sharded.summary.p99_us, serial.summary.p99_us, serial.summary.p99_us * 0.15)
        << n << " shards";
  }
}

TEST(Sharded, SerialAndShardedSeeTheSameFlowSet) {
  // Same seed -> same flow ids and sizes; only completion times may differ.
  const RunOutput serial = run_fat_tree(1);
  const RunOutput sharded = run_fat_tree(4);
  auto key = [](const stats::FlowRecord& r) { return std::make_pair(r.flow, r.bytes); };
  auto collect = [&key](const RunOutput& o) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> v;
    v.reserve(o.records.size());
    for (const auto& r : o.records) v.push_back(key(r));
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(collect(serial), collect(sharded));
}
