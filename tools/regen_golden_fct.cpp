// Regenerates tests/golden_fct.inc: the pinned golden-seed scenario run
// under every transport, emitted as one C array per protocol. With --flow it
// regenerates tests/golden_flow_fct.inc instead: the flow-level fast path
// (src/flowsim) on an oversubscribed leaf-spine, on a k=4 fat-tree under
// every rate model, and on a lightly loaded k=8 fat-tree whose flows form
// many small link-disjoint components that split and merge.
//
//   build/tools/regen_golden_fct > tests/golden_fct.inc     (or tools/regen_golden.sh)
//   build/tools/regen_golden_fct --flow > tests/golden_flow_fct.inc
//
// The fixture is a behaviour lock, not a correctness statement: regenerate
// it only for a change that is *supposed* to alter observable results, and
// say so in the commit message (see the GoldenSeedFctFixtureUnchanged test).
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "golden_runs.hpp"

using namespace amrt;

namespace {

void emit_records(const char* name, const std::vector<stats::FlowRecord>& records) {
  std::printf("inline constexpr GoldenRecord %s[] = {\n", name);
  for (const auto& rec : records) {
    std::printf("    {%lluULL, %lluULL, %lldLL, %lldLL},\n",
                static_cast<unsigned long long>(rec.flow),
                static_cast<unsigned long long>(rec.bytes),
                static_cast<long long>(rec.start.ns()), static_cast<long long>(rec.end.ns()));
  }
  std::printf("};\n");
}

void emit(const char* suffix, transport::Protocol proto) {
  const std::string name = std::string{"kGoldenFct"} + suffix;
  emit_records(name.c_str(), harness::run_leaf_spine(golden::golden_cfg(proto)).flow_records);
}

int emit_flow() {
  std::printf(
      "// Flow-fidelity golden fixtures: the max-min water-filling of\n"
      "// src/flowsim pinned bit for bit. kGoldenFlowLeafSpine is WebSearch,\n"
      "// load 0.6, 200 flows on a 4x1x8 leaf-spine (8:1 oversubscribed), AMRT\n"
      "// with 25%% DCTCP background, seed 42; kGoldenFlowFatTree* is WebSearch,\n"
      "// load 0.6, 200 flows on a k=4 fat-tree, seed 42, one array per rate\n"
      "// model; kGoldenFlowFatTree8* is WebSearch, load 0.3, 400 flows on a\n"
      "// k=8 fat-tree, seed 42, under the AMRT and traditional models (many\n"
      "// small link-disjoint components that split and merge). Regenerate\n"
      "// with tools/regen_golden.sh only for a change that is *supposed* to\n"
      "// alter flow-level results, and say so in the commit.\n"
      "// Fields: flow id, bytes, start ns, end ns.\n");
  emit_records("kGoldenFlowLeafSpine",
               harness::run_leaf_spine(golden::flow_golden_cfg()).flow_records);
  using transport::Protocol;
  const struct {
    const char* name;
    int k;
    std::optional<Protocol> proto;
    std::size_t flows;
    double load;
  } fat_trees[] = {
      {"kGoldenFlowFatTreeInstant", 4, Protocol::kPhost, 200, 0.6},
      {"kGoldenFlowFatTreeAmrt", 4, Protocol::kAmrt, 200, 0.6},
      {"kGoldenFlowFatTreeDctcp", 4, Protocol::kDctcp, 200, 0.6},
      {"kGoldenFlowFatTreeTraditional", 4, std::nullopt, 200, 0.6},
      {"kGoldenFlowFatTree8Amrt", 8, Protocol::kAmrt, 400, 0.3},
      {"kGoldenFlowFatTree8Traditional", 8, std::nullopt, 400, 0.3},
  };
  for (const auto& t : fat_trees) {
    std::printf("\n");
    emit_records(t.name, golden::fat_tree_records(t.k, t.proto, t.flows, t.load));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--flow") == 0) return emit_flow();
  std::printf(
      "// Golden-seed FCT fixtures: WebSearch, load 0.6, 80 flows, 2x2x4\n"
      "// leaf-spine, seed 42, one array per transport. The first four arrays\n"
      "// were last regenerated when the duplicate-repair-request fix landed\n"
      "// (the golden load level takes congestion drops, so de-duplicating\n"
      "// repair grants legitimately moves FCTs); the DCTCP array was pinned\n"
      "// when the sender-driven wing landed. Regenerate with\n"
      "// tools/regen_golden.sh only for a change that is *supposed* to alter\n"
      "// results, and say so in the commit; tools/regen_golden.sh --check\n"
      "// gates that the unarmed fault machinery never moves a byte here.\n"
      "// Fields: flow id, bytes, start ns, end ns.\n");
  emit("Amrt", transport::Protocol::kAmrt);
  std::printf("\n");
  emit("Phost", transport::Protocol::kPhost);
  std::printf("\n");
  emit("Homa", transport::Protocol::kHoma);
  std::printf("\n");
  emit("Ndp", transport::Protocol::kNdp);
  std::printf("\n");
  emit("Dctcp", transport::Protocol::kDctcp);
  return 0;
}
