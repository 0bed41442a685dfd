// Deterministic scenario fuzzer CLI (see src/harness/fuzz.hpp).
//
// Sweeps seeded random scenarios across topologies and transports and checks
// the cross-protocol oracles; in AMRT_AUDIT builds every case additionally
// runs under the invariant auditor. On failure each case prints its one-line
// reproduction command, e.g.
//
//   scenario_fuzz --seed 7 --topo dumbbell --transport ndp
//
// which re-runs exactly that case (same parameters, same flows, same hash).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "audit/auditor.hpp"
#include "harness/fuzz.hpp"

namespace {

using namespace amrt;
using harness::fuzz::CaseConfig;
using harness::fuzz::CaseResult;
using harness::fuzz::FuzzOptions;
using harness::fuzz::Topo;

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seed N] [--seeds N] [--topo leafspine|dumbbell|chain|fattree|all]\n"
               "          [--transport amrt|phost|homa|ndp|dctcp|all] [--threads N] [--shards N]\n"
               "          [--faults] [--mixed] [--workload-engine] [--keep-going] [--quiet]\n"
               "\n"
               "  --seed N       first seed (default 1); with --seeds 1, runs exactly one case\n"
               "  --seeds N      seeds per (topology, transport) pair (default 25)\n"
               "  --shards N     run every case partitioned across N worker threads (fat-tree\n"
               "                 and leaf-spine only; other topologies are skipped). Mutually\n"
               "                 exclusive with --faults\n"
               "  --faults       inject a seeded fault schedule (link flaps, blackhole\n"
               "                 windows, rate dips) into every case; oracles must still hold\n"
               "  --mixed        mixed transports: AMRT foreground + a drawn fraction of DCTCP\n"
               "                 background flows on a shared strict-priority fabric. Restricts\n"
               "                 the transport axis to AMRT\n"
               "  --workload-engine\n"
               "                 draw a non-legacy traffic engine per case (skewed matrices\n"
               "                 with coflow groups, or fan-out requests); adds the group-\n"
               "                 accounting oracle on top of the standard four\n"
               "  --keep-going   record audit violations instead of aborting on the first\n"
               "  --quiet        only print failures and the final summary\n",
               argv0);
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  FuzzOptions opts;
  bool quiet = false;
  bool keep_going = false;
  bool transport_set = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value for %s\n", argv[0], arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    try {
      if (arg == "--seed") {
        if (!parse_u64(value(), opts.first_seed)) throw std::invalid_argument("bad --seed");
      } else if (arg == "--seeds") {
        if (!parse_u64(value(), opts.seeds) || opts.seeds == 0) {
          throw std::invalid_argument("bad --seeds");
        }
      } else if (arg == "--topo") {
        const std::string v = value();
        if (v != "all") opts.topos = {harness::fuzz::topo_from_string(v)};
      } else if (arg == "--transport") {
        const std::string v = value();
        if (v != "all") {
          opts.protocols = {transport::protocol_from_string(v)};
          transport_set = true;
        }
      } else if (arg == "--threads") {
        std::uint64_t n = 0;
        if (!parse_u64(value(), n)) throw std::invalid_argument("bad --threads");
        opts.threads = static_cast<unsigned>(n);
      } else if (arg == "--shards") {
        std::uint64_t n = 0;
        if (!parse_u64(value(), n) || n == 0) throw std::invalid_argument("bad --shards");
        opts.shards = static_cast<unsigned>(n);
      } else if (arg == "--faults") {
        opts.faults = true;
      } else if (arg == "--mixed") {
        opts.mixed = true;
      } else if (arg == "--workload-engine") {
        opts.engine = true;
      } else if (arg == "--keep-going") {
        keep_going = true;
      } else if (arg == "--quiet") {
        quiet = true;
      } else if (arg == "--help" || arg == "-h") {
        usage(argv[0]);
        return 0;
      } else {
        std::fprintf(stderr, "%s: unknown flag %s\n", argv[0], arg.c_str());
        usage(argv[0]);
        return 2;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
      return 2;
    }
  }

  if (opts.faults && opts.shards > 1) {
    std::fprintf(stderr, "%s: --faults and --shards are mutually exclusive\n", argv[0]);
    return 2;
  }
  if (opts.mixed) {
    // The foreground transport is fixed. With the default axis run_fuzz just
    // narrows it; an explicit `--transport ndp --mixed` fails loudly instead
    // of silently running zero cases.
    if (transport_set && opts.protocols.front() != transport::Protocol::kAmrt) {
      std::fprintf(stderr, "%s: --mixed requires --transport amrt\n", argv[0]);
      return 2;
    }
    opts.protocols = {transport::Protocol::kAmrt};
  }

  // Fail-fast aborts (printing the replay line) are the right default for a
  // CI tripwire; --keep-going collects violations into the report instead.
  audit::set_fail_fast(!keep_going);

  opts.on_case = [&](const CaseConfig& c, const CaseResult& r) {
    if (!r.ok) {
      std::fprintf(stderr, "FAIL %s\n     %s\n", harness::fuzz::repro_line(c).c_str(),
                   r.failure.c_str());
    } else if (!quiet) {
      std::printf("ok   seed=%llu topo=%s transport=%s flows=%zu events=%llu drops=%llu "
                  "trims=%llu faulted=%llu hash=%016llx\n",
                  static_cast<unsigned long long>(c.seed), harness::fuzz::to_string(c.topo),
                  transport::to_string(c.proto), r.flows,
                  static_cast<unsigned long long>(r.events),
                  static_cast<unsigned long long>(r.drops),
                  static_cast<unsigned long long>(r.trims),
                  static_cast<unsigned long long>(r.faulted),
                  static_cast<unsigned long long>(r.hash));
    }
  };

  const auto report = harness::fuzz::run_fuzz(opts);

  std::printf("scenario_fuzz: %zu cases, %zu failures (audit %s)\n", report.cases,
              report.failures, audit::Auditor::enabled() ? "on" : "off");
  for (const auto& line : report.failure_lines) std::printf("  %s\n", line.c_str());
  return report.failures == 0 ? 0 : 1;
}
