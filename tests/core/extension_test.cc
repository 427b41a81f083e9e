// Module extensibility: the paper adopts iptables' architecture precisely
// because new attacks should be handled by writing new match/target/context
// modules, not by touching the engine. These tests register custom modules
// through the public API and use them in rules.

#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/core/pftables.h"
#include "src/sim/sysimage.h"
#include "tests/testutil.h"

namespace pf::core {
namespace {

using sim::Pid;
using sim::Proc;

// A custom match: -m OWNER --uid N matches when the object is owned by N.
class OwnerMatch : public NativeMatchModule {
 public:
  std::string_view Name() const override { return "OWNER"; }
  CtxMask Needs() const override { return CtxBit(Ctx::kObject); }
  bool Matches(Packet& pkt, Engine&) const override {
    return pkt.has_object && pkt.object_owner == uid;
  }
  std::string Render() const override { return "OWNER --uid " + std::to_string(uid); }

  sim::Uid uid = 0;
};

// A custom target: -j COUNT increments a shared counter and continues.
class CountTarget : public NativeTargetModule {
 public:
  explicit CountTarget(int* counter) : counter_(counter) {}
  std::string_view Name() const override { return "COUNT"; }
  TargetKind Fire(Packet&, Engine&) const override {
    ++*counter_;
    return TargetKind::kContinue;
  }
  std::string Render() const override { return "COUNT"; }

 private:
  int* counter_;
};

// A match and a target that neither lower to instructions nor derive from
// the native bases: modules with no implementation at all.
class HollowMatch : public MatchModule {
 public:
  std::string_view Name() const override { return "HOLLOW"; }
  std::string Render() const override { return "HOLLOW"; }
};

class HollowTarget : public TargetModule {
 public:
  std::string_view Name() const override { return "HOLLOW_T"; }
  std::string Render() const override { return "HOLLOW_T"; }
};

class ExtensionTest : public pf::testing::SimTest {
 protected:
  ExtensionTest() : engine_(InstallProcessFirewall(kernel())), pft_(engine_) {}

  Engine* engine_;
  Pftables pft_;
};

TEST_F(ExtensionTest, CustomMatchModuleWorksInRules) {
  pft_.RegisterMatch("OWNER", [](const std::vector<std::string>& opts,
                                 std::unique_ptr<MatchModule>* out) {
    auto m = std::make_unique<OwnerMatch>();
    if (opts.size() != 2 || opts[0] != "--uid") {
      return Status::Error("OWNER requires --uid N");
    }
    m->uid = static_cast<sim::Uid>(std::stoul(opts[1]));
    *out = std::move(m);
    return Status::Ok();
  });

  kernel().MkFileAt("/tmp/alice-file", "x", 0666, sim::kAliceUid, sim::kAliceUid,
                    "tmp_t");
  kernel().MkFileAt("/tmp/mallory-file", "x", 0666, sim::kMalloryUid, sim::kMalloryUid,
                    "tmp_t");
  ASSERT_TRUE(pft_.Exec("pftables -o FILE_OPEN -m OWNER --uid " +
                        std::to_string(sim::kMalloryUid) + " -j DROP")
                  .ok());
  Pid pid = sched().Spawn({.exe = sim::kBinTrue}, [](Proc& p) {
    EXPECT_EQ(p.Open("/tmp/mallory-file", sim::kORdOnly),
              sim::SysError(sim::Err::kAcces));
    EXPECT_GE(p.Open("/tmp/alice-file", sim::kORdOnly), 0);
  });
  sched().RunUntilExit(pid);
}

TEST_F(ExtensionTest, CustomMatchOptionErrorsPropagate) {
  pft_.RegisterMatch("OWNER", [](const std::vector<std::string>& opts,
                                 std::unique_ptr<MatchModule>* out) {
    (void)opts;
    (void)out;
    return Status::Error("OWNER requires --uid N");
  });
  Status s = pft_.Exec("pftables -o FILE_OPEN -m OWNER --bogus -j DROP");
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("--uid"), std::string::npos);
}

TEST_F(ExtensionTest, CustomTargetModuleFires) {
  int counter = 0;
  pft_.RegisterTarget("COUNT", [&counter](const std::vector<std::string>& opts,
                                          std::unique_ptr<TargetModule>* out) {
    if (!opts.empty()) {
      return Status::Error("COUNT takes no options");
    }
    *out = std::make_unique<CountTarget>(&counter);
    return Status::Ok();
  });
  ASSERT_TRUE(pft_.Exec("pftables -o FILE_OPEN -d etc_t -j COUNT").ok());
  Pid pid = sched().Spawn({.exe = sim::kBinTrue}, [](Proc& p) {
    p.Open("/etc/passwd", sim::kORdOnly);
    p.Open("/etc/ld.so.conf", sim::kORdOnly);  // also etc_t
    p.Open("/etc/shadow", sim::kORdOnly);      // shadow_t: not counted
    p.Open("/tmp", sim::kORdOnly);             // tmp_t: not counted
  });
  sched().RunUntilExit(pid);
  EXPECT_EQ(counter, 2);
  // The escape counts a hit per fire, like any builtin target.
  EXPECT_EQ(engine_->ruleset().filter().Find("input")->rules()[0]->hits.load(), 2u);
}

TEST_F(ExtensionTest, ModuleWithoutImplementationIsRefusedAtCommit) {
  pft_.RegisterMatch("HOLLOW", [](const std::vector<std::string>&,
                                  std::unique_ptr<MatchModule>* out) {
    *out = std::make_unique<HollowMatch>();
    return Status::Ok();
  });
  pft_.RegisterTarget("HOLLOW_T", [](const std::vector<std::string>&,
                                     std::unique_ptr<TargetModule>* out) {
    *out = std::make_unique<HollowTarget>();
    return Status::Ok();
  });
  ASSERT_TRUE(pft_.Exec("pftables -o FILE_OPEN -d shadow_t -j DROP").ok());

  // A rule using either module must not publish: the module would otherwise
  // evaluate as a silent no-match.
  for (const char* rule : {"pftables -A input -o FILE_OPEN -m HOLLOW -j DROP",
                           "pftables -A input -o FILE_OPEN -j HOLLOW_T"}) {
    const uint64_t live = engine_->ruleset_generation();
    const Status s = pft_.Exec(rule);
    ASSERT_FALSE(s.ok()) << rule;
    EXPECT_NE(s.message().find("module-unlowerable"), std::string::npos) << s.message();
    EXPECT_NE(s.message().find("filter/input:2"), std::string::npos) << s.message();

    // The previous generation keeps serving: one rule, shadow denied,
    // passwd allowed.
    EXPECT_EQ(engine_->ruleset_generation(), live) << rule;
    EXPECT_EQ(engine_->PublishedRuleset()->rules.filter().Find("input")->rules().size(), 1u);
    Pid pid = sched().Spawn({.exe = sim::kBinTrue}, [](Proc& p) {
      EXPECT_GE(p.Open("/etc/passwd", sim::kORdOnly), 0);
      EXPECT_EQ(p.Open("/etc/shadow", sim::kORdOnly), sim::SysError(sim::Err::kAcces));
    });
    sched().RunUntilExit(pid);

    // Without a --check backup the staging base keeps the edit; deleting it
    // makes the base committable again.
    ASSERT_TRUE(pft_.Exec("pftables -D input 2").ok()) << rule;
  }
}

TEST_F(ExtensionTest, CustomModulesShadowBuiltins) {
  bool used_custom = false;
  pft_.RegisterMatch("STATE", [&used_custom](const std::vector<std::string>&,
                                             std::unique_ptr<MatchModule>* out) {
    used_custom = true;
    auto m = std::make_unique<OwnerMatch>();
    *out = std::move(m);
    return Status::Ok();
  });
  ASSERT_TRUE(pft_.Exec("pftables -o FILE_OPEN -m STATE --whatever x -j DROP").ok());
  EXPECT_TRUE(used_custom);
}

}  // namespace
}  // namespace pf::core
