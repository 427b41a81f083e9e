// The commit-time analysis gate: `pftables --check[=error|warn]` and checked
// Restore(). kError must behave transactionally — a rejected command leaves
// the rule base, its indexes, and the published generation exactly as they
// were — while kWarn commits and only reports. The default path must not
// run the analyzer at all (its cost belongs to opted-in commits only).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/engine.h"
#include "src/core/pftables.h"
#include "src/sim/sysimage.h"
#include "tests/testutil.h"

namespace pf::core {
namespace {

class CheckGateTest : public pf::testing::SimTest {
 protected:
  CheckGateTest() : engine_(InstallProcessFirewall(kernel())), pft_(engine_) {}

  Engine* engine_;
  Pftables pft_;
};

TEST_F(CheckGateTest, ErrorModeRejectsAndRollsBack) {
  ASSERT_TRUE(pft_.Exec("pftables -o FILE_READ -j DROP").ok());
  const std::string before = pft_.Save();
  const uint64_t gen = engine_->ruleset_generation();

  // Appending a strictly narrower DROP after the wildcard DROP is a
  // shadowed-rule error; the gate must refuse it.
  Status s = pft_.Exec("pftables --check=error -A input -o FILE_READ -d shadow_t -j DROP");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("shadowed-rule"), std::string::npos) << s.message();

  // Transactional: same rules, same serialization, no new generation.
  EXPECT_EQ(pft_.Save(), before);
  EXPECT_EQ(engine_->ruleset_generation(), gen);
  EXPECT_EQ(engine_->ruleset().filter().Find("input")->size(), 1u);
  EXPECT_TRUE(pft_.last_check().HasErrors());
}

TEST_F(CheckGateTest, BareCheckFlagMeansErrorMode) {
  ASSERT_TRUE(pft_.Exec("pftables -o FILE_READ -j DROP").ok());
  Status s = pft_.Exec("pftables --check -A input -o FILE_READ -d shadow_t -j DROP");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(engine_->ruleset().filter().Find("input")->size(), 1u);
}

TEST_F(CheckGateTest, WarnModeCommitsAndLogs) {
  ASSERT_TRUE(pft_.Exec("pftables -o FILE_READ -j DROP").ok());
  const uint64_t gen = engine_->ruleset_generation();

  Status s = pft_.Exec("pftables --check=warn -A input -o FILE_READ -d shadow_t -j DROP");
  ASSERT_TRUE(s.ok()) << s.message();
  EXPECT_EQ(engine_->ruleset().filter().Find("input")->size(), 2u);
  EXPECT_GT(engine_->ruleset_generation(), gen);
  EXPECT_TRUE(pft_.last_check().HasErrors());  // reported, not enforced
}

TEST_F(CheckGateTest, CleanCommandPassesErrorMode) {
  Status s = pft_.Exec("pftables --check=error -A input -o FILE_READ -d shadow_t -j DROP");
  ASSERT_TRUE(s.ok()) << s.message();
  EXPECT_EQ(engine_->ruleset().filter().Find("input")->size(), 1u);
  EXPECT_FALSE(pft_.last_check().HasErrors());
}

TEST_F(CheckGateTest, DefaultModeSkipsAnalysisEntirely) {
  // Without --check, even a defective append succeeds and no report is
  // produced — identical to the pre-analyzer behavior.
  ASSERT_TRUE(pft_.Exec("pftables -o FILE_READ -j DROP").ok());
  Status s = pft_.Exec("pftables -A input -o FILE_READ -d shadow_t -j DROP");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(engine_->ruleset().filter().Find("input")->size(), 2u);
  EXPECT_TRUE(pft_.last_check().empty());
}

TEST_F(CheckGateTest, BadCheckModeIsAParseError) {
  Status s = pft_.Exec("pftables --check=fatal -o FILE_READ -j DROP");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("--check mode"), std::string::npos) << s.message();
}

TEST_F(CheckGateTest, CheckedRestoreRejectsWholeDumpOnError) {
  ASSERT_TRUE(pft_.Exec("pftables -o FILE_WRITE -d etc_t -j DROP").ok());
  const std::string before = pft_.Save();

  // Line 2 shadows line 1: in kError mode the whole dump must be rolled
  // back, including the non-defective first line.
  const std::string dump =
      "pftables -A input -o FILE_READ -j DROP\n"
      "pftables -A input -o FILE_READ -d shadow_t -j DROP\n";
  Status s = pft_.Restore(dump, CheckMode::kError);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(pft_.Save(), before);
  EXPECT_EQ(engine_->ruleset().filter().Find("input")->size(), 1u);
}

TEST_F(CheckGateTest, CheckedRestoreAppliesCleanDump) {
  const std::string dump =
      "pftables -A input -o FILE_READ -d shadow_t -j DROP\n"
      "pftables -A input -o FILE_WRITE -d etc_t -j DROP\n";
  Status s = pft_.Restore(dump, CheckMode::kError);
  ASSERT_TRUE(s.ok()) << s.message();
  EXPECT_EQ(engine_->ruleset().filter().Find("input")->size(), 2u);
}

TEST_F(CheckGateTest, RestoreLineFailureRollsBackWhenChecked) {
  ASSERT_TRUE(pft_.Exec("pftables -o FILE_WRITE -d etc_t -j DROP").ok());
  const std::string before = pft_.Save();
  const std::string dump =
      "pftables -A input -o FILE_READ -j DROP\n"
      "pftables -A input -o NO_SUCH_OP -j DROP\n";
  Status s = pft_.Restore(dump, CheckMode::kError);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(pft_.Save(), before);
}

TEST_F(CheckGateTest, ListAnnotatesFilterTableWithFindings) {
  ASSERT_TRUE(pft_.Exec("pftables -o FILE_READ -j DROP").ok());
  ASSERT_TRUE(pft_.Exec("pftables -o FILE_READ -d shadow_t -j DROP").ok());
  const std::string listing = pft_.List();
  EXPECT_NE(listing.find("# analyzer:"), std::string::npos) << listing;
  EXPECT_NE(listing.find("shadowed-rule"), std::string::npos) << listing;
}

TEST_F(CheckGateTest, ListOfCleanBaseHasNoAnnotations) {
  ASSERT_TRUE(pft_.Exec("pftables -o FILE_READ -d shadow_t -j DROP").ok());
  const std::string listing = pft_.List();
  EXPECT_EQ(listing.find("# analyzer:"), std::string::npos) << listing;
}

// Counts compiles of the staged base: lowering asks every module of every
// rule to lower itself once per compile, and this one declines (it is a
// native escape that never matches).
class LowerCountMatch : public NativeMatchModule {
 public:
  explicit LowerCountMatch(int* lowers) : lowers_(lowers) {}
  std::string_view Name() const override { return "LOWERCOUNT"; }
  bool Lower(ProgramBuilder&) const override {
    ++*lowers_;
    return false;
  }
  bool Matches(Packet&, Engine&) const override { return false; }
  std::string Render() const override { return "LOWERCOUNT"; }

 private:
  int* lowers_;
};

// A gated command publishes the compile its gates inspected: one compile of
// the staged base per command, not one for the gates and another for the
// commit.
TEST_F(CheckGateTest, GatedCommandCompilesTheStagedBaseOnce) {
  int lowers = 0;
  pft_.RegisterMatch("LOWERCOUNT", [&lowers](const std::vector<std::string>&,
                                             std::unique_ptr<MatchModule>* out) {
    *out = std::make_unique<LowerCountMatch>(&lowers);
    return Status::Ok();
  });
  ASSERT_TRUE(pft_.Exec("pftables -A input -o FILE_WRITE -m LOWERCOUNT -j DROP").ok());
  const std::pair<const char*, const char*> commands[] = {
      {"--check", "FILE_READ"},
      {"--widening-gate", "FILE_OPEN"},
      {"--check --widening-gate", "FILE_GETATTR"},
  };
  for (const auto& [gate, op] : commands) {
    lowers = 0;
    const uint64_t gen = engine_->ruleset_generation();
    const Status s = pft_.Exec(std::string("pftables ") + gate + " -A input -o " + op +
                               " -d shadow_t -j DROP");
    ASSERT_TRUE(s.ok()) << gate << ": " << s.message();
    EXPECT_EQ(lowers, 1) << gate << ": compiles of the staged base";
    EXPECT_EQ(engine_->ruleset_generation(), gen + 1) << gate;
    EXPECT_EQ(engine_->PublishedRuleset()->rules.filter().total_rules(),
              engine_->ruleset().filter().total_rules())
        << gate << ": the published generation is not the staged base";
  }
}

}  // namespace
}  // namespace pf::core
