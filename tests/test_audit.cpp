// Tests for the invariant-audit subsystem (src/audit). Built only under
// -DAMRT_AUDIT=ON (the `audit` preset): each test deliberately violates one
// invariant through the hook API and asserts the auditor reports it with
// the right diagnostic; the death test checks the fail-fast mode used by CI
// prints the replay line before aborting.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "audit/auditor.hpp"
#include "audit/hooks.hpp"
#include "harness/fuzz.hpp"
#include "sim/simulation.hpp"

using namespace amrt;
using audit::Auditor;
using audit::DropReason;
using audit::PacketInfo;

namespace {

PacketInfo data_info(std::uint64_t flow, std::uint32_t seq) {
  PacketInfo p;
  p.flow = flow;
  p.seq = seq;
  p.type = 0;  // kData
  p.wire_bytes = net::kMtuBytes;
  p.payload_bytes = net::kMssBytes;
  p.is_data = true;
  return p;
}

// Collect-don't-abort for every test; individual tests opt back in.
class AuditTest : public ::testing::Test {
 protected:
  void SetUp() override { audit::set_fail_fast(false); }
  void TearDown() override {
    audit::set_fail_fast(true);
    audit::set_context("");
  }
  Auditor a;
};

void expect_violation(const Auditor& a, const std::string& invariant) {
  ASSERT_GE(a.violation_count(), 1u);
  EXPECT_NE(a.violations().front().find("[" + invariant + "]"), std::string::npos)
      << "got: " << a.violations().front();
}

}  // namespace

TEST_F(AuditTest, CompiledIn) { EXPECT_TRUE(Auditor::enabled()); }

TEST_F(AuditTest, BalancedLedgerIsClean) {
  const auto p = data_info(1, 0);
  a.on_inject(p);
  a.on_deliver(p);
  a.check_drained();
  EXPECT_EQ(a.violation_count(), 0u);
  EXPECT_EQ(a.injected(), 1u);
  EXPECT_EQ(a.delivered(), 1u);
}

TEST_F(AuditTest, DuplicateDeliveryCaught) {
  const auto p = data_info(1, 7);
  a.on_inject(p);
  a.on_deliver(p);
  a.on_deliver(p);  // the network never carried a second copy
  expect_violation(a, "packet-conservation");
  EXPECT_NE(a.violations().front().find("duplicate delivery"), std::string::npos);
}

TEST_F(AuditTest, UntrackedDeliveryIgnored) {
  // Test-forged packets never pass Host::send; their delivery is not an
  // auditable event (this is what keeps unit tests false-positive free).
  a.on_deliver(data_info(99, 0));
  EXPECT_EQ(a.violation_count(), 0u);
}

TEST_F(AuditTest, InFlightPacketFailsDrainCheck) {
  a.on_inject(data_info(3, 2));
  a.check_drained();
  expect_violation(a, "packet-conservation");
  EXPECT_NE(a.violations().front().find("flow 3 seq 2"), std::string::npos);
}

TEST_F(AuditTest, PayloadByteDriftFailsDrainCheck) {
  auto p = data_info(1, 0);
  a.on_inject(p);
  p.payload_bytes -= 100;  // deliver fewer payload bytes than were injected
  a.on_deliver(p);
  a.check_drained();
  expect_violation(a, "byte-conservation");
}

TEST_F(AuditTest, TrimAccountsForRemovedPayload) {
  auto p = data_info(1, 0);
  a.on_inject(p);
  a.on_trim(p, net::kMssBytes);
  p.payload_bytes = 0;  // header-only survivor
  p.trimmed = true;
  a.on_deliver(p);
  a.check_drained();
  EXPECT_EQ(a.violation_count(), 0u);
  EXPECT_EQ(a.trimmed(), 1u);
}

TEST_F(AuditTest, AntiEcnSetBitCaught) {
  // Eq. 3: CE_final must be the AND of the per-hop verdicts. Model a hop
  // that *set* the bit after a marker had cleared the shadow.
  auto p = data_info(1, 0);
  p.ecn_capable = true;
  p.ce = true;
  p.ce_expected = false;
  a.on_inject(p);
  a.on_deliver(p);
  expect_violation(a, "anti-ecn-eq3");
}

TEST_F(AuditTest, QueueByteDriftCaught) {
  const std::uint32_t q = 7;
  a.on_queue_admit(q, 100, /*depth=*/1, /*enq=*/1, /*deq=*/0, /*dropped=*/0);
  // Dequeue reports fewer wire bytes than were admitted: queue empty but
  // shadow bytes nonzero.
  a.on_queue_dequeue(q, 60, /*depth=*/0, /*enq=*/1, /*deq=*/1, /*dropped=*/0);
  expect_violation(a, "queue-accounting");
  EXPECT_NE(a.violations().front().find("byte drift"), std::string::npos);
}

TEST_F(AuditTest, QueueOverDequeueCaught) {
  const std::uint32_t q = 7;
  a.on_queue_dequeue(q, 100, 0, 0, 1, 0);  // dequeue from a never-admitted queue
  expect_violation(a, "queue-accounting");
}

TEST_F(AuditTest, QueueStatsIdentityCaught) {
  const std::uint32_t q = 7;
  // Depth 1 but stats claim 2 enqueued, 0 dequeued, 0 dropped: one packet
  // vanished without a drop record.
  a.on_queue_admit(q, 100, /*depth=*/1, /*enq=*/2, /*deq=*/0, /*dropped=*/0);
  expect_violation(a, "queue-accounting");
  EXPECT_NE(a.violations().front().find("stats identity"), std::string::npos);
}

TEST_F(AuditTest, ClockMonotonicityCaught) {
  a.on_event_fire(/*when=*/5, /*clock_before=*/10);
  expect_violation(a, "clock-monotonicity");
}

TEST_F(AuditTest, WheelOrderCaught) {
  a.on_event_fire(10, 0);
  a.on_event_fire(5, 0);  // earlier timestamp fired later: wheel misordered
  expect_violation(a, "wheel-order");
}

TEST_F(AuditTest, InOrderEventsClean) {
  a.on_event_fire(5, 0);
  a.on_event_fire(5, 5);  // ties are legal
  a.on_event_fire(9, 5);
  EXPECT_EQ(a.violation_count(), 0u);
}

TEST_F(AuditTest, MarkedGrantWrongAllowanceCaught) {
  // AMRT's marked grant must carry exactly min(remaining, configured
  // allowance); 3 packets for a marked grant is the classic off-by-one.
  a.on_grant_sent(/*flow=*/1, /*marked=*/true, /*allowance=*/3, /*granted_total=*/5,
                  /*total=*/10, /*remaining_before=*/7, /*marked_expected=*/2);
  expect_violation(a, "marked-grant-allowance");
}

TEST_F(AuditTest, MarkedGrantClampedByRemainingIsClean) {
  a.on_grant_sent(1, true, 1, 10, 10, /*remaining_before=*/1, /*marked_expected=*/2);
  EXPECT_EQ(a.violation_count(), 0u);
}

TEST_F(AuditTest, GrantBudgetOvershootCaught) {
  a.on_grant_sent(1, false, 1, /*granted_total=*/11, /*total=*/10, 1, 0);
  expect_violation(a, "grant-budget");
}

TEST_F(AuditTest, OffsetGrantBeyondFlowCaught) {
  a.on_offset_grant(1, /*offset=*/2000, /*flow_bytes=*/1500);
  expect_violation(a, "grant-budget");
}

TEST_F(AuditTest, RepairOutOfRangeCaught) {
  a.on_repair_grant(1, /*seq=*/8, /*total=*/8);
  expect_violation(a, "repair-range");
}

TEST_F(AuditTest, GrantResponseOvershootCaught) {
  a.on_grant_response(1, /*allowance=*/2, /*repair=*/false, /*sent=*/3, false);
  expect_violation(a, "grant-response");
}

TEST_F(AuditTest, OffsetSemanticsExemptFromCountCheck) {
  a.on_grant_response(1, 0, /*repair=*/false, 40, /*offset_semantics=*/true);
  EXPECT_EQ(a.violation_count(), 0u);
}

TEST_F(AuditTest, SeqBitmapMismatchCaught) {
  a.on_flow_finished(2, /*total=*/4, /*received=*/4, /*got_count=*/3);
  expect_violation(a, "seq-bitmap");
}

TEST_F(AuditTest, GrantAfterFinishCaught) {
  a.on_flow_finished(1, 4, 4, 4);
  a.on_grant_sent(1, false, 1, 4, 4, 0, 0);
  expect_violation(a, "grant-after-finish");
}

TEST(AuditDeath, FailFastAbortsWithReplayLine) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        audit::set_fail_fast(true);
        audit::set_context("scenario_fuzz --seed 7 --topo dumbbell --transport NDP");
        Auditor a;
        const auto p = data_info(1, 0);
        a.on_inject(p);
        a.on_deliver(p);
        a.on_deliver(p);
      },
      "AMRT_AUDIT violation: \\[packet-conservation\\].*\n.*replay: scenario_fuzz --seed 7");
}

// End to end: full simulations under every transport and topology family
// must run violation-free with the auditor live (the positive control for
// all the deliberate violations above).
TEST(AuditEndToEnd, AllTransportsZeroViolations) {
  audit::set_fail_fast(false);
  for (const auto proto : {transport::Protocol::kAmrt, transport::Protocol::kPhost,
                           transport::Protocol::kHoma, transport::Protocol::kNdp}) {
    for (const auto topo : harness::fuzz::kAllTopos) {
      const harness::fuzz::CaseConfig cfg{11, topo, proto};
      const auto r = harness::fuzz::run_case(cfg);
      EXPECT_TRUE(r.ok) << harness::fuzz::repro_line(cfg) << ": " << r.failure;
      EXPECT_EQ(r.audit_violations, 0u) << harness::fuzz::repro_line(cfg);
    }
  }
  audit::set_fail_fast(true);
}

// The simulation wires its own auditor into the scheduler at construction.
TEST(AuditWiring, SimulationOwnsTheSchedulerAuditor) {
  sim::Simulation simu{1};
  EXPECT_EQ(simu.scheduler().auditor(), &simu.auditor());
}
