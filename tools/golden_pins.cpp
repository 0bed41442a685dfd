// Regenerates tests/golden_pins.inc: run fingerprints that the FCT fixtures
// do not cover. Two families:
//
//   * scenario_fuzz case hashes (FNV over records, drops, trims, events and
//     faulted packets) for seeds 1-3 x every topology x the four default
//     transports, in every case class: plain, --faults, --shards 2,
//     --shards 3, --mixed and --workload-engine;
//   * FNV digests (records + events + drops + trims + faulted) of
//     run_leaf_spine on the golden config (tools/regen_golden_fct.cpp) in
//     each execution mode: serial, shards=2, fault_incidents=3,
//     background_dctcp_fraction=0.3 and fidelity=kMixed.
//
//   build/tools/golden_pins > tests/golden_pins.inc    (or tools/regen_golden.sh)
//
// tools/regen_golden.sh --check diffs a fresh run against the fixture, so a
// refactor of the run pipeline cannot move a single event in any mode.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/fuzz.hpp"

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
};

void emit_fuzz_class(harness::fuzz::FuzzOptions opts) {
  opts.seeds = 3;
  opts.on_case = [](const harness::fuzz::CaseConfig& c, const harness::fuzz::CaseResult& r) {
    std::printf("    {\"%s\", %d, 0x%016llxULL},\n", harness::fuzz::repro_line(c).c_str(),
                r.ok ? 1 : 0, static_cast<unsigned long long>(r.hash));
  };
  (void)harness::fuzz::run_fuzz(opts);
}

void emit_leaf_spine(const char* mode, harness::ExperimentConfig cfg) {
  cfg.proto = transport::Protocol::kAmrt;
  cfg.workload = workload::Kind::kWebSearch;
  cfg.load = 0.6;
  cfg.n_flows = 80;
  cfg.leaves = 2;
  cfg.spines = 2;
  cfg.hosts_per_leaf = 4;
  cfg.seed = 42;
  const harness::ExperimentResult r = harness::run_leaf_spine(cfg);
  Fnv fnv;
  for (const auto& rec : r.flow_records) {
    fnv.add(rec.flow);
    fnv.add(rec.bytes);
    fnv.add(static_cast<std::uint64_t>(rec.start.ns()));
    fnv.add(static_cast<std::uint64_t>(rec.end.ns()));
  }
  fnv.add(r.events);
  fnv.add(r.drops);
  fnv.add(r.trims);
  fnv.add(r.faulted);
  std::printf("    {\"run_leaf_spine golden %s\", %d, 0x%016llxULL},\n", mode,
              r.flows_completed == r.flows_started ? 1 : 0, static_cast<unsigned long long>(fnv.h));
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
  harness::fuzz::FuzzOptions engine;
  engine.engine = true;
  emit_fuzz_class(engine);

  emit_leaf_spine("serial", {});
  harness::ExperimentConfig sharded;
  sharded.shards = 2;
  emit_leaf_spine("shards=2", sharded);
  harness::ExperimentConfig faulted;
  faulted.fault_incidents = 3;
  emit_leaf_spine("fault_incidents=3", faulted);
  harness::ExperimentConfig coexist;
  coexist.background_dctcp_fraction = 0.3;
  emit_leaf_spine("background_dctcp_fraction=0.3", coexist);
  harness::ExperimentConfig mixed_fidelity;
  mixed_fidelity.fidelity = harness::Fidelity::kMixed;
  emit_leaf_spine("fidelity=mixed", mixed_fidelity);
  std::printf("};\n");
  return 0;
}
