// Regenerates tests/golden_pins.inc: run fingerprints that the FCT fixtures
// do not cover. Seven families:
//
//   * scenario_fuzz case hashes (FNV over records, drops, trims, events and
//     faulted packets) for seeds 1-3 x every topology x the four default
//     transports, in every case class: plain, --faults, --shards 2,
//     --shards 3, --mixed, --mixed --shards 2 and --workload-engine;
//   * FNV digests (records + events + drops + trims + faulted) of
//     run_experiment on the golden leaf-spine config
//     (tools/regen_golden_fct.cpp) in each execution mode: serial, shards=2, fault_incidents=3,
//     background_dctcp_fraction=0.3 and fidelity=kMixed;
//   * records-only FNV digests (records + drops + trims + faulted; no
//     events, utilization or sim time) of the same run serial under AMRT,
//     pHost, Homa, NDP and DCTCP, and at fault_incidents=3,
//     background_dctcp_fraction=0.3 and fidelity=kMixed: what a change to how
//     a run is observed must leave alone;
//   * FNV digests over every field of the figure scenarios' results
//     (harness/scenarios.hpp; doubles bit-cast) for AMRT, pHost, Homa and
//     NDP: a chain using all three paths, dynamic traffic with 4 staggered
//     flows, many-to-many at responsive_ratio 0.5 and a 16-sender incast;
//   * FNV digests over every ExperimentResult field but wall_seconds of
//     run_experiment on the golden config at flow fidelity (with and
//     without background_dctcp_fraction=0.25) and at mixed fidelity, and of
//     the k=4, 200-flow fat-tree flow run (records, events, recomputes,
//     refills, bytes) under AMRT, pHost and DCTCP;
//   * FNV digests (records + events + drops + trims + faulted) of
//     run_experiment on the k=4, 200-flow fat-tree, serial and at shards=2,
//     under AMRT and NDP; first generated from PacketRun directly;
//   * records-only FNV digests (records, recomputes, refills, bytes; no
//     events, utilization or sim time) of the same k=4 fat-tree flow runs
//     and of the two leaf-spine flow-fidelity runs: what a change to how the
//     fluid loop steps through time must leave alone.
//
// The leaf-spine pins keep their "run_leaf_spine golden ..." labels from
// before run_experiment served every topology, so the fixture lines stay
// byte for byte.
//
//   build/tools/golden_pins > tests/golden_pins.inc    (or tools/regen_golden.sh)
//
// tools/regen_golden.sh --check diffs a fresh run against the fixture, so a
// refactor of the run pipeline cannot move a single event in any mode.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "golden_runs.hpp"
#include "harness/fuzz.hpp"
#include "harness/experiment.hpp"
#include "harness/run.hpp"
#include "harness/scenarios.hpp"

using namespace amrt;

namespace {

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xFFu;
      h *= 1099511628211ULL;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(const std::vector<double>& xs) {
    add(static_cast<std::uint64_t>(xs.size()));
    for (const double x : xs) add(x);
  }
  void add(const stats::FctSummary& f) {
    add_all(f.completed, f.started, f.afct_us, f.p50_us, f.p99_us, f.mean_slowdown, f.max_fct_us);
  }
  void add(const stats::GroupStats& g) {
    add_all(g.groups, g.complete, g.mean_us, g.p50_us, g.p99_us, g.max_us);
  }
  void add(const std::vector<stats::FlowRecord>& records) {
    for (const auto& rec : records) {
      add_all(rec.flow, rec.bytes, static_cast<std::uint64_t>(rec.start.ns()),
              static_cast<std::uint64_t>(rec.end.ns()));
    }
  }
  template <class... Ts>
  void add_all(const Ts&... vs) {
    (add(vs), ...);
  }
};

void emit_fuzz_class(harness::fuzz::FuzzOptions opts) {
  opts.seeds = 3;
  opts.on_case = [](const harness::fuzz::CaseConfig& c, const harness::fuzz::CaseResult& r) {
    std::printf("    {\"%s\", %d, 0x%016llxULL},\n", harness::fuzz::repro_line(c).c_str(),
                r.ok ? 1 : 0, static_cast<unsigned long long>(r.hash));
  };
  (void)harness::fuzz::run_fuzz(opts);
}

void emit_pin(const std::string& name, bool ok, const Fnv& fnv) {
  std::printf("    {\"%s\", %d, 0x%016llxULL},\n", name.c_str(), ok ? 1 : 0,
              static_cast<unsigned long long>(fnv.h));
}

// Records, events, drops, trims and faulted packets. `label` names the run:
// the leaf-spine pins keep their historical "run_leaf_spine golden" labels.
void emit_run(const std::string& label, const harness::ExperimentConfig& cfg) {
  const harness::ExperimentResult r = harness::run_experiment(cfg);
  Fnv fnv;
  fnv.add_all(r.flow_records, r.events, r.drops, r.trims, r.faulted);
  emit_pin(label, r.flows_completed == r.flows_started, fnv);
}

// What the fabric did, not how the run observed it: records, drops, trims
// and faulted packets.
void emit_run_records(const std::string& mode, const harness::ExperimentConfig& cfg) {
  const harness::ExperimentResult r = harness::run_experiment(cfg);
  Fnv fnv;
  fnv.add_all(r.flow_records, r.drops, r.trims, r.faulted);
  emit_pin("run_leaf_spine golden records " + mode, r.flows_completed == r.flows_started, fnv);
}

// Every field of the result but wall_seconds, doubles bit-cast.
void emit_run_all_fields(const char* mode, const harness::ExperimentConfig& cfg) {
  const harness::ExperimentResult r = harness::run_experiment(cfg);
  Fnv fnv;
  fnv.add_all(r.fct_all, r.fct_small, r.fct_large, r.fct_foreground, r.fct_background,
              r.mean_utilization, r.downlink_utilization, r.max_queue_pkts, r.drops, r.trims,
              r.faulted, r.bytes_delivered, r.events, r.sim_seconds, r.flows_started,
              r.flows_completed, r.flow_records, r.group_stats, r.request_stats);
  emit_pin(std::string{"run_leaf_spine golden every field "} + mode,
           r.flows_completed == r.flows_started, fnv);
}

// The k=4, 200-flow fat-tree flow run of the flow golden fixture under one
// transport's rate model: records, events, recomputes, refills and bytes.
void emit_fat_tree_flow(transport::Protocol proto) {
  harness::ExperimentConfig cfg = golden::fat_tree_cfg(4, 200, 0.6);
  cfg.run.proto = proto;
  const auto flows = harness::draw_schedule(cfg);
  harness::FlowRun run{cfg.run, flows};
  run.run();
  const flowsim::FlowSimResult& r = run.result();
  Fnv fnv;
  fnv.add_all(run.recorder().completed(), r.events, r.recomputes, r.flows_refilled,
              run.recorder().bytes_delivered());
  emit_pin(std::string{"fat-tree flow k=4 flows=200 "} + transport::to_string(proto),
           run.recorder().completed().size() == flows.size(), fnv);
}

// What a flow-level run computed, not how many events it took: records,
// recomputes, refills and bytes (no events, utilization or sim time), on
// the FlowRun that run_experiment builds at flow fidelity.
void emit_flow_records(const std::string& label, const harness::ExperimentConfig& cfg) {
  const auto flows = harness::draw_schedule(cfg);
  harness::FlowRun run{cfg.run, flows};
  run.run();
  const flowsim::FlowSimResult& r = run.result();
  Fnv fnv;
  fnv.add_all(run.recorder().completed(), r.recomputes, r.flows_refilled,
              run.recorder().bytes_delivered());
  emit_pin(label, run.recorder().completed().size() == flows.size(), fnv);
}

// The k=4, 200-flow fat-tree packet run under one transport, serial or
// sharded, hashed as emit_run hashes the leaf-spine runs.
void emit_fat_tree_packet(transport::Protocol proto, unsigned shards) {
  harness::ExperimentConfig cfg = golden::fat_tree_cfg(4, 200, 0.6);
  cfg.run.proto = proto;
  cfg.run.shards = shards;
  emit_run(std::string{"fat-tree packet k=4 flows=200 "} + transport::to_string(proto) +
               (shards > 1 ? " shards=" + std::to_string(shards) : std::string{" serial"}),
           cfg);
}

void emit_timeline(const std::string& name, const harness::TimelineResult& r) {
  Fnv fnv;
  fnv.add_all(static_cast<std::uint64_t>(r.bin.ns()), r.flow_gbps.size());
  for (const auto& series : r.flow_gbps) fnv.add(series);
  fnv.add_all(r.bottleneck1_util, r.bottleneck2_util, r.flow_fct_ms, r.max_queue_pkts,
              r.mean_util_b1, r.mean_util_b2);
  bool complete = true;
  for (const double fct : r.flow_fct_ms) complete = complete && fct >= 0.0;
  emit_pin(name, complete, fnv);
}

// One fixed config per figure scenario, under each of the four transports.
void emit_scenarios() {
  using sim::Duration;
  using harness::ChainPath;
  for (const transport::Protocol proto :
       {transport::Protocol::kAmrt, transport::Protocol::kPhost, transport::Protocol::kHoma,
        transport::Protocol::kNdp}) {
    const std::string p = transport::to_string(proto);

    harness::ChainConfig chain;
    chain.proto = proto;
    chain.flows = {{ChainPath::kBoth, 3'000'000, Duration::zero()},
                   {ChainPath::kFirst, 2'000'000, Duration::zero()},
                   {ChainPath::kSecond, 2'000'000, Duration::milliseconds(1)}};
    chain.duration = Duration::milliseconds(10);
    chain.bin = Duration::microseconds(250);
    emit_timeline("run_chain " + p + " three paths", harness::run_chain(chain));

    harness::DynamicConfig dynamic;
    dynamic.proto = proto;
    dynamic.flows = {{1'000'000, Duration::zero()},
                     {2'000'000, Duration::microseconds(500)},
                     {3'000'000, Duration::milliseconds(1)},
                     {4'000'000, Duration::microseconds(1500)}};
    dynamic.duration = Duration::milliseconds(12);
    dynamic.bin = Duration::microseconds(250);
    emit_timeline("run_dynamic " + p + " four staggered flows", harness::run_dynamic(dynamic));

    harness::ManyToManyConfig m2m;
    m2m.proto = proto;
    m2m.responsive_ratio = 0.5;
    const harness::ManyToManyResult mr = harness::run_many_to_many(m2m);
    Fnv mf;
    mf.add_all(mr.mean_downlink_util, mr.max_queue_pkts, mr.mean_queue_pkts, mr.responsive_senders);
    emit_pin("run_many_to_many " + p + " responsive_ratio=0.5", true, mf);

    harness::IncastConfig incast;
    incast.proto = proto;
    incast.senders = 16;
    const harness::IncastResult ir = harness::run_incast(incast);
    Fnv inf;
    inf.add_all(ir.fct, ir.max_queue_pkts, ir.drops, ir.trims, ir.goodput_gbps);
    emit_pin("run_incast " + p + " senders=16",
             ir.fct.completed == static_cast<std::size_t>(incast.senders), inf);
  }
}

}  // namespace

int main() {
  std::printf(
      "// Run-pipeline pins: scenario_fuzz case hashes (seeds 1-3, every\n"
      "// topology, AMRT/pHost/Homa/NDP, every case class) and FNV digests of\n"
      "// run_leaf_spine on the golden config in each execution mode. Fields:\n"
      "// case, all flows complete, fingerprint. Regenerate with\n"
      "// tools/regen_golden.sh only for a change that is *supposed* to alter\n"
      "// results, and say so in the commit.\n"
      "inline constexpr GoldenPin kGoldenPins[] = {\n");
  harness::fuzz::FuzzOptions plain;
  emit_fuzz_class(plain);
  harness::fuzz::FuzzOptions faults;
  faults.faults = true;
  emit_fuzz_class(faults);
  for (const unsigned shards : {2u, 3u}) {
    harness::fuzz::FuzzOptions sharded;
    sharded.shards = shards;
    emit_fuzz_class(sharded);
  }
  harness::fuzz::FuzzOptions mixed;
  mixed.mixed = true;
  emit_fuzz_class(mixed);
  mixed.shards = 2;
  emit_fuzz_class(mixed);
  harness::fuzz::FuzzOptions engine;
  engine.engine = true;
  emit_fuzz_class(engine);

  // The golden config with one change.
  auto golden_with = [](auto change) {
    harness::ExperimentConfig cfg = golden::golden_cfg(transport::Protocol::kAmrt);
    change(cfg);
    return cfg;
  };
  using Cfg = harness::ExperimentConfig;
  auto emit_leaf_spine = [](const std::string& mode, const Cfg& cfg) {
    emit_run("run_leaf_spine golden " + mode, cfg);
  };
  emit_leaf_spine("serial", golden_with([](Cfg&) {}));
  emit_leaf_spine("shards=2", golden_with([](Cfg& c) { c.run.shards = 2; }));
  emit_leaf_spine("fault_incidents=3", golden_with([](Cfg& c) { c.fault_incidents = 3; }));
  emit_leaf_spine("background_dctcp_fraction=0.3",
                  golden_with([](Cfg& c) { c.run.background_dctcp_fraction = 0.3; }));
  const Cfg mixed_fidelity = golden_with([](Cfg& c) { c.fidelity = harness::Fidelity::kMixed; });
  emit_leaf_spine("fidelity=mixed", mixed_fidelity);
  for (const transport::Protocol proto :
       {transport::Protocol::kAmrt, transport::Protocol::kPhost, transport::Protocol::kHoma,
        transport::Protocol::kNdp, transport::Protocol::kDctcp}) {
    emit_run_records(std::string{"serial "} + transport::to_string(proto),
                     golden::golden_cfg(proto));
  }
  emit_run_records("fault_incidents=3", golden_with([](Cfg& c) { c.fault_incidents = 3; }));
  emit_run_records("background_dctcp_fraction=0.3",
                   golden_with([](Cfg& c) { c.run.background_dctcp_fraction = 0.3; }));
  emit_run_records("fidelity=mixed", mixed_fidelity);
  emit_scenarios();

  Cfg flow = golden_with([](Cfg& c) { c.fidelity = harness::Fidelity::kFlow; });
  emit_run_all_fields("fidelity=flow", flow);
  flow.run.background_dctcp_fraction = 0.25;
  emit_run_all_fields("fidelity=flow background_dctcp_fraction=0.25", flow);
  emit_run_all_fields("fidelity=mixed", mixed_fidelity);
  for (const transport::Protocol proto :
       {transport::Protocol::kAmrt, transport::Protocol::kPhost, transport::Protocol::kDctcp}) {
    emit_fat_tree_flow(proto);
  }
  for (const transport::Protocol proto : {transport::Protocol::kAmrt, transport::Protocol::kNdp}) {
    for (const unsigned shards : {1u, 2u}) emit_fat_tree_packet(proto, shards);
  }
  for (const transport::Protocol proto :
       {transport::Protocol::kAmrt, transport::Protocol::kPhost, transport::Protocol::kDctcp}) {
    harness::ExperimentConfig cfg = golden::fat_tree_cfg(4, 200, 0.6);
    cfg.run.proto = proto;
    emit_flow_records(std::string{"fat-tree flow records k=4 flows=200 "} +
                          transport::to_string(proto),
                      cfg);
  }
  flow.run.background_dctcp_fraction = 0.0;
  emit_flow_records("run_leaf_spine golden records fidelity=flow", flow);
  flow.run.background_dctcp_fraction = 0.25;
  emit_flow_records("run_leaf_spine golden records fidelity=flow background_dctcp_fraction=0.25",
                    flow);
  std::printf("};\n");
  return 0;
}
