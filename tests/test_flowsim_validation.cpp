// Packet-for-packet validation of the flow-level fast path (DESIGN.md §15):
// for every workload engine, the same seeded schedule is run through the
// per-packet simulator and through the fluid flowsim, and the FCT summaries
// must agree within avg ±10% / p99 ±25%. Also checks the mixed fidelity and
// the fat-tree flow path, and that the fluid side's event count gives the
// >=10x headroom the fast path exists for.
//
// Protocol scope: AMRT, pHost and Homa have faithful fluid analogues. NDP's
// trim/retransmit overhead and DCTCP's window dynamics are modelled
// optimistically (the fluid side under-predicts their FCTs by ~12-19% on
// these fabrics; see DESIGN.md §15), so they are exercised by the unit tests
// but not held to the ±10% gate here.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "harness/experiment.hpp"
#include "harness/run.hpp"
#include "stats/fct.hpp"

using namespace amrt;
using namespace amrt::harness;
using namespace amrt::sim::literals;

namespace {

ExperimentConfig base_cfg(transport::Protocol proto, std::size_t n_flows, std::uint64_t seed) {
  ExperimentConfig cfg;  // default 4x4x8 leaf-spine, 10G links, 10us delay
  cfg.run.proto = proto;
  cfg.n_flows = n_flows;
  cfg.load = 0.5;
  cfg.run.seed = seed;
  return cfg;
}

// The standard agreement bands: fluid average FCT within 10% of the packet
// run's, p99 within 25%.
constexpr double kAvgTol = 0.10;
constexpr double kP99Tol = 0.25;

// Runs `cfg` at both fidelities and checks the flow-level summary against
// the packet-level truth.

void expect_fidelities_agree(ExperimentConfig cfg, const char* what, double avg_tol = kAvgTol,
                             double p99_tol = kP99Tol) {
  cfg.fidelity = Fidelity::kPacket;
  const ExperimentResult packet = run_experiment(cfg);
  cfg.fidelity = Fidelity::kFlow;
  const ExperimentResult flow = run_experiment(cfg);

  // Identical seeded workload on both sides: same flow count, same bytes.
  ASSERT_EQ(packet.flows_started, flow.flows_started) << what;
  EXPECT_EQ(packet.bytes_delivered, flow.bytes_delivered) << what;
  EXPECT_EQ(packet.flows_completed, packet.flows_started) << what;
  EXPECT_EQ(flow.flows_completed, flow.flows_started) << what;

  ASSERT_GT(packet.fct_all.afct_us, 0.0) << what;
  ASSERT_GT(packet.fct_all.p99_us, 0.0) << what;
  const double avg_err = flow.fct_all.afct_us / packet.fct_all.afct_us - 1.0;
  const double p99_err = flow.fct_all.p99_us / packet.fct_all.p99_us - 1.0;
  EXPECT_LE(std::abs(avg_err), avg_tol)
      << what << ": avg FCT flow=" << flow.fct_all.afct_us
      << "us packet=" << packet.fct_all.afct_us << "us";
  EXPECT_LE(std::abs(p99_err), p99_tol)
      << what << ": p99 FCT flow=" << flow.fct_all.p99_us
      << "us packet=" << packet.fct_all.p99_us << "us";

  // The point of the fast path: the fluid run spends orders of magnitude
  // fewer events on the same schedule.
  EXPECT_GE(packet.events, 10 * flow.events) << what;
}

}  // namespace

TEST(FlowsimValidation, LegacyEngineAmrt) {
  expect_fidelities_agree(base_cfg(transport::Protocol::kAmrt, 200, 3), "amrt/legacy");
}

TEST(FlowsimValidation, LegacyEnginePhost) {
  expect_fidelities_agree(base_cfg(transport::Protocol::kPhost, 200, 3), "phost/legacy");
}

TEST(FlowsimValidation, LegacyEngineHoma) {
  expect_fidelities_agree(base_cfg(transport::Protocol::kHoma, 200, 3), "homa/legacy");
}

TEST(FlowsimValidation, SkewedCoflowEngine) {
  ExperimentConfig cfg = base_cfg(transport::Protocol::kAmrt, 300, 5);
  cfg.engine.engine = workload::Engine::kSkewed;
  cfg.engine.pairs = workload::PairModel::kHotRack;
  cfg.engine.coflow_fraction = 0.2;
  cfg.engine.coflow_width = 4;
  expect_fidelities_agree(cfg, "amrt/skewed+coflow");

  // Coflow completion times ride the same records; spot-check the group
  // tail agrees too (same ±25% band as the flow tail).
  cfg.fidelity = Fidelity::kPacket;
  const ExperimentResult packet = run_experiment(cfg);
  cfg.fidelity = Fidelity::kFlow;
  const ExperimentResult flow = run_experiment(cfg);
  ASSERT_GT(packet.group_stats.complete, 0u);
  ASSERT_EQ(packet.group_stats.complete, flow.group_stats.complete);
  EXPECT_LE(std::abs(flow.group_stats.p99_us / packet.group_stats.p99_us - 1.0), 0.25);
}

TEST(FlowsimValidation, FanoutEngine) {
  ExperimentConfig cfg = base_cfg(transport::Protocol::kAmrt, 300, 5);
  cfg.engine.engine = workload::Engine::kFanout;
  cfg.engine.fanout = 4;
  expect_fidelities_agree(cfg, "amrt/fanout");
}

TEST(FlowsimValidation, TraceEngineReplay) {
  // Dump a legacy schedule, then validate the trace engine's replay at both
  // fidelities: the replayed schedule is the original one, so the packet
  // result of the original run is the truth for the flow-level replay.
  const std::string path = testing::TempDir() + "flowsim_validation_trace.csv";
  ExperimentConfig cfg = base_cfg(transport::Protocol::kAmrt, 150, 11);
  cfg.trace_out = path;
  cfg.fidelity = Fidelity::kPacket;
  const ExperimentResult packet = run_experiment(cfg);
  ASSERT_EQ(packet.flows_completed, packet.flows_started);

  ExperimentConfig replay = base_cfg(transport::Protocol::kAmrt, 150, 11);
  replay.engine.engine = workload::Engine::kTrace;
  replay.engine.trace_path = path;
  replay.fidelity = Fidelity::kFlow;
  const ExperimentResult flow = run_experiment(replay);
  std::remove(path.c_str());

  ASSERT_EQ(flow.flows_started, packet.flows_started);
  EXPECT_EQ(flow.flows_completed, flow.flows_started);
  EXPECT_EQ(flow.bytes_delivered, packet.bytes_delivered);
  EXPECT_LE(std::abs(flow.fct_all.afct_us / packet.fct_all.afct_us - 1.0), 0.10);
  EXPECT_LE(std::abs(flow.fct_all.p99_us / packet.fct_all.p99_us - 1.0), 0.25);
}

TEST(FlowsimValidation, MixedFidelityTracksPacket) {
  // Mixed mode: background half fluid, foreground half packet-level under
  // the fluid side's bandwidth reservations. The merged summary must stay
  // close to the all-packet truth.
  ExperimentConfig cfg = base_cfg(transport::Protocol::kAmrt, 300, 7);
  cfg.fidelity = Fidelity::kPacket;
  const ExperimentResult packet = run_experiment(cfg);
  cfg.fidelity = Fidelity::kMixed;
  cfg.flow_background_fraction = 0.5;
  const ExperimentResult mixed = run_experiment(cfg);

  ASSERT_EQ(mixed.flows_started, packet.flows_started);
  EXPECT_EQ(mixed.flows_completed, mixed.flows_started);
  EXPECT_EQ(mixed.bytes_delivered, packet.bytes_delivered);
  // Mixed is a one-way coupling approximation (DESIGN.md §15): the fluid
  // side's reservations throttle the packet fabric without modelling the
  // background's real burst structure, which costs extra drops on the
  // foreground. Its band is therefore wider than the pure flow fidelity's
  // ±10%/±25% gate.
  EXPECT_LE(std::abs(mixed.fct_all.afct_us / packet.fct_all.afct_us - 1.0), 0.20);
  EXPECT_LE(std::abs(mixed.fct_all.p99_us / packet.fct_all.p99_us - 1.0), 0.30);
  // Both populations actually ran and completed.
  EXPECT_GT(mixed.fct_foreground.completed, 0u);
  EXPECT_GT(mixed.fct_background.completed, 0u);
  // The merged summaries report slowdown like a recorder's own.
  EXPECT_GT(mixed.fct_all.mean_slowdown, 1.0);
  for (const stats::FctSummary* f : {&mixed.fct_small, &mixed.fct_large, &mixed.fct_background}) {
    EXPECT_GT(f->mean_slowdown, 0.5);
  }
}

TEST(FlowsimValidation, FatTreeFlowMatchesPacket) {
  // k=4 fat-tree, websearch workload: one spec and one schedule, run by
  // PacketRun for the truth and by FlowRun for the fluid side, each feeding
  // its own FctRecorder. Links use the scaled-down 10us delay of the
  // leaf-spine experiment fabric: at the stock 100us fat-tree delay the mean
  // websearch flow is about one BDP and FCTs are latency-dominated, which the
  // fluid model (built for bandwidth sharing) intentionally does not
  // capture — see DESIGN.md §15.
  ExperimentConfig cfg;
  RunSpec& spec = cfg.run;
  spec.fabric.topology = Topology::kFatTree;
  spec.fabric.fat_k = 4;
  spec.fabric.link_delay = 10_us;
  spec.seed = 1;
  cfg.n_flows = 300;
  cfg.load = 0.5;
  const auto flows = draw_schedule(cfg);

  PacketRun packet{spec, flows};
  packet.run();
  const stats::FctRecorder& packet_rec = packet.recorder();
  ASSERT_EQ(packet_rec.completed().size(), flows.size());

  FlowRun fluid{spec, flows};
  fluid.run();
  const stats::FctRecorder& flow_rec = fluid.recorder();
  ASSERT_EQ(fluid.result().completed, flows.size());

  const auto ps = packet_rec.summarize();
  const auto fsum = flow_rec.summarize();
  EXPECT_EQ(flow_rec.bytes_delivered(), packet_rec.bytes_delivered());
  EXPECT_LE(std::abs(fsum.afct_us / ps.afct_us - 1.0), kAvgTol)
      << "fat-tree avg: flow=" << fsum.afct_us << " packet=" << ps.afct_us;
  EXPECT_LE(std::abs(fsum.p99_us / ps.p99_us - 1.0), kP99Tol)
      << "fat-tree p99: flow=" << fsum.p99_us << " packet=" << ps.p99_us;
  EXPECT_GE(packet.events(), 10 * fluid.result().events);
}

TEST(FlowsimValidation, FlowRunRejectsWhatTheFlowLevelCannotRun) {
  RunSpec line;
  line.fabric.topology = Topology::kLine;
  line.fabric.host_switch = {0, 1};
  EXPECT_THROW((FlowRun{line, {}}), std::invalid_argument);

  RunSpec sharded;
  sharded.shards = 2;
  EXPECT_THROW((FlowRun{sharded, {}}), std::invalid_argument);
}
