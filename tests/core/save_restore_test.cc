// pftables-save / -restore round trips, counter zeroing, and audit mode.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/analysis/analyzer.h"
#include "src/apps/rule_library.h"
#include "src/core/engine.h"
#include "src/core/pftables.h"
#include "src/sim/sched.h"
#include "src/sim/sysimage.h"
#include "tests/testutil.h"

namespace pf::core {
namespace {

using sim::Pid;
using sim::Proc;

class SaveRestoreTest : public pf::testing::SimTest {
 protected:
  SaveRestoreTest() : engine_(InstallProcessFirewall(kernel())), pft_(engine_) {}

  Engine* engine_;
  Pftables pft_;
};

TEST_F(SaveRestoreTest, RoundTripPreservesRuleBase) {
  ASSERT_TRUE(pft_.ExecAll(apps::RuleLibrary::DefaultRuleBase()).ok());
  size_t rules_before = engine_->ruleset().total_rules();
  std::string dump = pft_.Save();
  ASSERT_FALSE(dump.empty());

  // Wipe and restore.
  ASSERT_TRUE(pft_.Exec("pftables -F").ok());
  ASSERT_EQ(engine_->ruleset().filter().total_rules(), 0u);
  Status s = pft_.Restore(dump);
  ASSERT_TRUE(s.ok()) << s.message();
  EXPECT_EQ(engine_->ruleset().total_rules(), rules_before);

  // The restored base must behave identically: idempotent double-save.
  EXPECT_EQ(pft_.Save(), dump);
}

TEST_F(SaveRestoreTest, RestoredRulesStillEnforce) {
  ASSERT_TRUE(pft_.Exec("pftables -o FILE_OPEN -d shadow_t -j DROP").ok());
  std::string dump = pft_.Save();
  ASSERT_TRUE(pft_.Exec("pftables -F").ok());
  ASSERT_TRUE(pft_.Restore(dump).ok());
  Pid pid = sched().Spawn({.exe = sim::kBinTrue}, [](Proc& p) {
    EXPECT_EQ(p.Open("/etc/shadow", sim::kORdOnly), sim::SysError(sim::Err::kAcces));
  });
  sched().RunUntilExit(pid);
}

TEST_F(SaveRestoreTest, SaveMarksUserChains) {
  ASSERT_TRUE(pft_.ExecAll(apps::RuleLibrary::SignalRaceRules()).ok());
  std::string dump = pft_.Save();
  EXPECT_NE(dump.find("-N signal_chain"), std::string::npos);
  EXPECT_NE(dump.find("-A signal_chain"), std::string::npos);
}

TEST_F(SaveRestoreTest, ZeroCountersResets) {
  ASSERT_TRUE(pft_.Exec("pftables -o FILE_OPEN -d etc_t -j CONTINUE").ok());
  Pid pid = sched().Spawn({.exe = sim::kBinTrue},
                          [](Proc& p) { p.Open("/etc/passwd", sim::kORdOnly); });
  sched().RunUntilExit(pid);
  const Rule& rule = *engine_->ruleset().filter().Find("input")->rules()[0];
  EXPECT_GT(rule.evals, 0u);
  EXPECT_GT(rule.hits, 0u);
  pft_.ZeroCounters();
  EXPECT_EQ(rule.evals, 0u);
  EXPECT_EQ(rule.hits, 0u);
}

TEST_F(SaveRestoreTest, AuditModeLogsInsteadOfDenying) {
  ASSERT_TRUE(pft_.Exec("pftables -o FILE_OPEN -d shadow_t -j DROP").ok());
  engine_->config().audit_only = true;
  Pid pid = sched().Spawn({.exe = sim::kBinTrue}, [](Proc& p) {
    EXPECT_GE(p.Open("/etc/shadow", sim::kORdOnly), 0) << "audit mode must not deny";
  });
  sched().RunUntilExit(pid);
  EXPECT_EQ(engine_->stats().drops, 0u);
  EXPECT_EQ(engine_->stats().audited_drops, 1u);
  ASSERT_GE(engine_->log().size(), 1u);
  EXPECT_EQ(engine_->log().records().back().prefix, "audit-drop");
  EXPECT_EQ(engine_->log().records().back().object_label, "shadow_t");

  // Flip to enforcing: the same access is now denied.
  engine_->config().audit_only = false;
  Pid pid2 = sched().Spawn({.exe = sim::kBinTrue}, [](Proc& p) {
    EXPECT_EQ(p.Open("/etc/shadow", sim::kORdOnly), sim::SysError(sim::Err::kAcces));
  });
  sched().RunUntilExit(pid2);
  EXPECT_EQ(engine_->stats().drops, 1u);
}

// A registered custom match survives Save()/Restore() because the factory
// re-parses its rendered options; the analyzer must see the same rule base
// on both sides of the trip.
class TripOwnerMatch : public NativeMatchModule {
 public:
  std::string_view Name() const override { return "TRIP_OWNER"; }
  CtxMask Needs() const override { return CtxBit(Ctx::kObject); }
  bool Matches(Packet& pkt, Engine&) const override {
    return pkt.has_object && pkt.object_owner == uid;
  }
  std::string Render() const override {
    return "TRIP_OWNER --uid " + std::to_string(uid);
  }

  sim::Uid uid = 0;
};

TEST_F(SaveRestoreTest, JumpChainsRoundTripWithIdenticalDiagnostics) {
  // A JUMP topology with deliberate findings: an island chain (warning) and
  // a shadowed allow inside a user chain (warning). Round-tripping must
  // preserve both the rules and the analyzer's view of them, locus for
  // locus.
  ASSERT_TRUE(pft_.Exec("pftables -N checks").ok());
  ASSERT_TRUE(pft_.Exec("pftables -N island").ok());
  ASSERT_TRUE(pft_.Exec("pftables -A checks -d shadow_t -j DROP").ok());
  ASSERT_TRUE(pft_.Exec("pftables -A checks -j RETURN").ok());
  ASSERT_TRUE(pft_.Exec("pftables -A island -d etc_t -j DROP").ok());
  ASSERT_TRUE(pft_.Exec("pftables -A input -o FILE_OPEN -j checks").ok());

  analysis::AnalysisReport before = analysis::AnalyzeEngine(*engine_);
  ASSERT_FALSE(before.empty());  // the island chain at least

  std::string dump = pft_.Save();
  ASSERT_TRUE(pft_.Exec("pftables -F").ok());
  Status s = pft_.Restore(dump);
  ASSERT_TRUE(s.ok()) << s.message();
  EXPECT_EQ(pft_.Save(), dump);

  analysis::AnalysisReport after = analysis::AnalyzeEngine(*engine_);
  ASSERT_EQ(before.size(), after.size()) << before.RenderText() << "----\n"
                                         << after.RenderText();
  EXPECT_EQ(before.diagnostics(), after.diagnostics());
}

TEST_F(SaveRestoreTest, CustomModulesRoundTripWithIdenticalDiagnostics) {
  pft_.RegisterMatch("TRIP_OWNER", [](const std::vector<std::string>& opts,
                                      std::unique_ptr<MatchModule>* out) {
    auto m = std::make_unique<TripOwnerMatch>();
    if (opts.size() != 2 || opts[0] != "--uid") {
      return Status::Error("TRIP_OWNER requires --uid N");
    }
    m->uid = static_cast<sim::Uid>(std::stoul(opts[1]));
    *out = std::move(m);
    return Status::Ok();
  });
  ASSERT_TRUE(pft_.Exec("pftables -o FILE_OPEN -m TRIP_OWNER --uid 1001 -j DROP").ok());
  // And a STATE protocol finding that must survive the trip.
  ASSERT_TRUE(
      pft_.Exec("pftables -o FILE_READ -m STATE --key k --cmp C_INO -j DROP").ok());

  analysis::AnalysisReport before = analysis::AnalyzeEngine(*engine_);

  std::string dump = pft_.Save();
  EXPECT_NE(dump.find("TRIP_OWNER --uid 1001"), std::string::npos) << dump;
  ASSERT_TRUE(pft_.Exec("pftables -F").ok());
  Status s = pft_.Restore(dump);
  ASSERT_TRUE(s.ok()) << s.message();
  EXPECT_EQ(pft_.Save(), dump);

  analysis::AnalysisReport after = analysis::AnalyzeEngine(*engine_);
  EXPECT_EQ(before.diagnostics(), after.diagnostics());
}

}  // namespace
}  // namespace pf::core
