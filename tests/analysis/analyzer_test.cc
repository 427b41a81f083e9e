// Static analyzer tests: each analysis family is exercised against a rule
// base seeded with a known defect, and the resulting diagnostic is checked
// by code AND locus (chain:pos) — a lint that fires on the wrong rule is
// worse than one that does not fire. The shipped paper rule base must come
// out error-free (it is installed by distributors as-is, §6.3.2).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/analysis/analyzer.h"
#include "src/apps/programs.h"
#include "src/apps/rule_library.h"
#include "src/core/engine.h"
#include "src/core/modules.h"
#include "src/core/pftables.h"
#include "src/sim/sysimage.h"
#include "tests/testutil.h"

namespace pf::analysis {
namespace {

using core::Engine;
using core::InstallProcessFirewall;
using core::Pftables;

class AnalyzerTest : public pf::testing::SimTest {
 protected:
  AnalyzerTest() : engine_(InstallProcessFirewall(kernel())), pft_(engine_) {}

  AnalysisReport Analyze() { return AnalyzeEngine(*engine_); }

  void Exec(const std::string& cmd) { ASSERT_TRUE(pft_.Exec(cmd).ok()) << cmd; }

  // The diagnostics carrying `code`, rendered as "severity locus" strings —
  // tests assert on exact placement, not just presence.
  static std::vector<std::string> Where(const AnalysisReport& report,
                                        const std::string& code) {
    std::vector<std::string> out;
    for (const Diagnostic& d : report.diagnostics()) {
      if (d.code == code) {
        out.push_back(std::string(SeverityName(d.severity)) + " " + d.locus.Render());
      }
    }
    return out;
  }

  Engine* engine_;
  Pftables pft_;
};

TEST_F(AnalyzerTest, CleanRuleBaseHasNoFindings) {
  Exec("pftables -o FILE_READ -d shadow_t -j DROP");
  Exec("pftables -o FILE_WRITE -d etc_t -j DROP");
  AnalysisReport r = Analyze();
  EXPECT_TRUE(r.empty()) << r.RenderText();
}

TEST_F(AnalyzerTest, ShippedPaperLibraryIsErrorFree) {
  apps::InstallPrograms(kernel());
  ASSERT_TRUE(pft_.ExecAll(apps::RuleLibrary::DefaultRuleBase()).ok());
  AnalysisReport r = Analyze();
  EXPECT_EQ(r.errors(), 0u) << r.RenderText();
  EXPECT_EQ(r.warnings(), 0u) << r.RenderText();
}

// --- shadowing / dead rules --------------------------------------------------

TEST_F(AnalyzerTest, DetectsShadowedDenyRule) {
  Exec("pftables -o FILE_READ -j DROP");             // wildcard object
  Exec("pftables -o FILE_READ -d shadow_t -j DROP");  // strictly narrower
  AnalysisReport r = Analyze();
  EXPECT_EQ(Where(r, "shadowed-rule"),
            std::vector<std::string>{"error filter/input:2"})
      << r.RenderText();
  // The shadower is referenced as the related locus.
  for (const Diagnostic& d : r.diagnostics()) {
    if (d.code == "shadowed-rule") {
      EXPECT_EQ(d.related.Render(), "filter/input:1");
    }
  }
}

TEST_F(AnalyzerTest, ShadowedAllowIsOnlyAWarning) {
  Exec("pftables -o FILE_READ -j ACCEPT");
  Exec("pftables -o FILE_READ -d shadow_t -j ACCEPT");
  AnalysisReport r = Analyze();
  EXPECT_EQ(Where(r, "shadowed-rule"),
            std::vector<std::string>{"warning filter/input:2"})
      << r.RenderText();
}

TEST_F(AnalyzerTest, DistinctOpsDoNotShadow) {
  Exec("pftables -o FILE_READ -j DROP");
  Exec("pftables -o FILE_WRITE -d shadow_t -j DROP");
  AnalysisReport r = Analyze();
  EXPECT_TRUE(Where(r, "shadowed-rule").empty()) << r.RenderText();
}

TEST_F(AnalyzerTest, NonTerminalTargetDoesNotShadow) {
  Exec("pftables -o FILE_READ -j LOG");  // continues traversal
  Exec("pftables -o FILE_READ -d shadow_t -j DROP");
  AnalysisReport r = Analyze();
  EXPECT_TRUE(Where(r, "shadowed-rule").empty()) << r.RenderText();
}

TEST_F(AnalyzerTest, DetectsContextUnavailableRule) {
  // SIGNAL_MATCH is pinned to SIGNAL_DELIVER; on FILE_READ it can never
  // match, making the rule dead.
  Exec("pftables -o FILE_READ -m SIGNAL_MATCH -j DROP");
  AnalysisReport r = Analyze();
  EXPECT_EQ(Where(r, "context-unavailable"),
            std::vector<std::string>{"error filter/input:1"})
      << r.RenderText();
}

// --- JUMP graph --------------------------------------------------------------

TEST_F(AnalyzerTest, DetectsUndefinedJumpTarget) {
  // pftables creates jump targets on demand, so an undefined chain can only
  // come from a custom target module — exactly the hole the analyzer plugs.
  pft_.RegisterTarget("GOTO", [](const std::vector<std::string>&,
                                 std::unique_ptr<core::TargetModule>* out) {
    *out = std::make_unique<core::JumpTarget>("no_such_chain");
    return core::Status::Ok();
  });
  Exec("pftables -o FILE_READ -j GOTO");
  AnalysisReport r = Analyze();
  EXPECT_EQ(Where(r, "undefined-chain"),
            std::vector<std::string>{"error filter/input:1"})
      << r.RenderText();
}

TEST_F(AnalyzerTest, DetectsJumpCycle) {
  Exec("pftables -N loopa");
  Exec("pftables -N loopb");
  Exec("pftables -A loopa -j loopb");
  Exec("pftables -A loopb -j loopa");
  Exec("pftables -A input -o FILE_OPEN -j loopa");
  AnalysisReport r = Analyze();
  auto cycles = Where(r, "jump-cycle");
  ASSERT_EQ(cycles.size(), 1u) << r.RenderText();
  EXPECT_EQ(cycles[0].substr(0, 5), "error");
}

TEST_F(AnalyzerTest, DetectsUnreachableChain) {
  Exec("pftables -N island");
  Exec("pftables -A island -o FILE_READ -j DROP");
  AnalysisReport r = Analyze();
  EXPECT_EQ(Where(r, "unreachable-chain"),
            std::vector<std::string>{"warning filter/island"})
      << r.RenderText();
}

TEST_F(AnalyzerTest, DetectsReturnFromRootChain) {
  Exec("pftables -A input -o FILE_READ -j RETURN");
  AnalysisReport r = Analyze();
  EXPECT_EQ(Where(r, "return-from-root"),
            std::vector<std::string>{"warning filter/input:1"})
      << r.RenderText();
}

TEST_F(AnalyzerTest, DetectsDepthExceededChains) {
  // A linear JUMP chain longer than the engine's traversal bound: the tail
  // chains can never evaluate.
  const int n = core::kMaxChainDepth + 2;
  for (int i = 0; i < n; ++i) {
    Exec("pftables -N hop" + std::to_string(i));
  }
  for (int i = 0; i + 1 < n; ++i) {
    Exec("pftables -A hop" + std::to_string(i) + " -j hop" + std::to_string(i + 1));
  }
  Exec("pftables -A input -o FILE_OPEN -j hop0");
  AnalysisReport r = Analyze();
  EXPECT_FALSE(Where(r, "depth-exceeded").empty()) << r.RenderText();
}

// --- STATE protocol ----------------------------------------------------------

TEST_F(AnalyzerTest, DetectsStateCheckedButNeverSet) {
  Exec("pftables -o FILE_READ -m STATE --key tocttou --cmp C_INO --nequal -j DROP");
  AnalysisReport r = Analyze();
  EXPECT_EQ(Where(r, "state-never-set"),
            std::vector<std::string>{"error filter/input:1"})
      << r.RenderText();
}

TEST_F(AnalyzerTest, DetectsStateSetButNeverChecked) {
  Exec("pftables -o FILE_OPEN -j STATE --key tocttou --set --value C_INO");
  AnalysisReport r = Analyze();
  EXPECT_EQ(Where(r, "state-never-checked"),
            std::vector<std::string>{"warning filter/input:1"})
      << r.RenderText();
}

TEST_F(AnalyzerTest, PairedStateSetAndCheckIsClean) {
  Exec("pftables -o FILE_OPEN -j STATE --key tocttou --set --value C_INO");
  Exec("pftables -o FILE_READ -m STATE --key tocttou --cmp C_INO --nequal -j DROP");
  AnalysisReport r = Analyze();
  EXPECT_TRUE(Where(r, "state-never-set").empty()) << r.RenderText();
  EXPECT_TRUE(Where(r, "state-never-checked").empty()) << r.RenderText();
}

// --- extension modules -------------------------------------------------------

TEST_F(AnalyzerTest, HonestlyNonCacheableModuleIsClean) {
  // An extension module reading symlink-target context on the one op that
  // supplies it. The engine memoizes no verdicts, so context outside any
  // cache key is no hazard: the analyzer must report nothing at all.
  class HonestMatch : public core::MatchModule {
   public:
    std::string_view Name() const override { return "HONEST"; }
    core::CtxMask Needs() const override {
      return core::CtxBit(core::Ctx::kLinkTarget);
    }
    bool Matches(core::Packet&, core::Engine&) const override { return true; }
    std::string Render() const override { return "HONEST"; }
  };
  pft_.RegisterMatch("HONEST", [](const std::vector<std::string>&,
                                  std::unique_ptr<core::MatchModule>* out) {
    *out = std::make_unique<HonestMatch>();
    return core::Status::Ok();
  });
  Exec("pftables -o LNK_FILE_READ -m HONEST -j DROP");
  AnalysisReport r = Analyze();
  EXPECT_TRUE(r.empty()) << r.RenderText();
}

// --- report plumbing ---------------------------------------------------------

TEST_F(AnalyzerTest, ReportRendersTextAndJson) {
  Exec("pftables -o FILE_READ -j DROP");
  Exec("pftables -o FILE_READ -d shadow_t -j DROP");
  AnalysisReport r = Analyze();
  ASSERT_FALSE(r.empty());
  const std::string text = r.RenderText();
  EXPECT_NE(text.find("error[shadowed-rule] filter/input:2"), std::string::npos)
      << text;
  const std::string json = r.RenderJson();
  EXPECT_NE(json.find("\"code\":\"shadowed-rule\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"locus\":\"filter/input:2\""), std::string::npos) << json;
}

}  // namespace
}  // namespace pf::analysis
