// Compiled PF programs: commit-time lowering into the arena-packed form
// (program.h), the `pftables -L --compiled` disassembly, and the compiled
// evaluator. Bit-equivalence with the legacy walker is covered separately by
// the COMPILED ablation rung and the differential fuzz test; these tests pin
// the structure of the artifact itself.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/apps/programs.h"
#include "src/core/engine.h"
#include "src/core/pftables.h"
#include "src/core/program.h"
#include "src/sim/sched.h"
#include "src/sim/sysimage.h"
#include "tests/testutil.h"

namespace pf::core {
namespace {

using sim::Pid;
using sim::Proc;

// A rule base exercising every lowering path: default matches (-o, -s, -d,
// -p, -i, --ino), all builtin -m modules with inline lowerings, every
// builtin target, a user chain, and entrypoint-indexed rules.
std::vector<std::string> RepresentativeRules() {
  return {
      "pftables -N guard",
      "pftables -A guard -o FILE_OPEN -d shadow_t -j DROP",
      "pftables -A guard -m STATE --key seen --cmp 1 -j RETURN",
      "pftables -A input -s staff_t -j guard",
      "pftables -A input -o SOCKET_BIND -j STATE --set --key seen --value 1",
      "pftables -A input -o FILE_OPEN -d etc_t -m COMPARE --v1 C_UID --v2 0 "
      "-j LOG --prefix root-etc",
      "pftables -A input -o PROCESS_SIGNAL_DELIVERY -m SIGNAL_MATCH -j DROP",
      "pftables -A syscallbegin -m SYSCALL_ARGS --arg 0 --equal 2 -j CONTINUE",
      "pftables -A input -o FILE_OPEN -m INTERP --lang php --script admin.php -j DROP",
      "pftables -p /bin/true -i 0x100 -o FILE_OPEN -d tmp_t -j DROP",
      "pftables -p /usr/bin/apache2 -i 0x200 -o FILE_OPEN -j DROP",
  };
}

class CompiledProgramTest : public pf::testing::SimTest {
 protected:
  CompiledProgramTest() : engine_(InstallProcessFirewall(kernel())), pft_(engine_) {
    apps::InstallPrograms(kernel());
  }

  Engine* engine_;
  Pftables pft_;
};

TEST_F(CompiledProgramTest, DisassemblyListsLoweredRules) {
  ASSERT_TRUE(pft_.ExecAll(RepresentativeRules()).ok());
  std::string disasm = pft_.ListCompiled();

  // Header + chain banners.
  EXPECT_NE(disasm.find(";; pf program:"), std::string::npos);
  EXPECT_NE(disasm.find("chain input (builtin"), std::string::npos);
  EXPECT_NE(disasm.find("chain guard (user"), std::string::npos);

  // Default matches lower to guard ops with pool operands rendered by value.
  EXPECT_NE(disasm.find("CHECK_OP FILE_OPEN"), std::string::npos);
  EXPECT_NE(disasm.find("MATCH_SUBJECT staff_t"), std::string::npos);
  EXPECT_NE(disasm.find("MATCH_OBJECT shadow_t"), std::string::npos);
  EXPECT_NE(disasm.find("CHECK_PROGRAM /bin/true"), std::string::npos);
  EXPECT_NE(disasm.find("CHECK_EPT_OFF 0x100"), std::string::npos);

  // Builtin modules lower inline; JUMP edges resolve to chain names.
  EXPECT_NE(disasm.find("MATCH_STATE --key seen"), std::string::npos);
  EXPECT_NE(disasm.find("MATCH_COMPARE"), std::string::npos);
  EXPECT_NE(disasm.find("MATCH_SIGNAL"), std::string::npos);
  EXPECT_NE(disasm.find("MATCH_SYSCALL_ARG --arg 0"), std::string::npos);
  EXPECT_NE(disasm.find("MATCH_INTERP --script admin.php --lang php"), std::string::npos);
  EXPECT_NE(disasm.find("STATE_SET --key seen"), std::string::npos);
  EXPECT_NE(disasm.find("LOG --prefix root-etc"), std::string::npos);
  EXPECT_NE(disasm.find("JUMP -> guard"), std::string::npos);

  // Nothing lowered through the native escape hatch: every module above is
  // a builtin with an inline instruction form.
  EXPECT_EQ(disasm.find("MATCH_NATIVE"), std::string::npos);
  EXPECT_EQ(disasm.find("TARGET_NATIVE"), std::string::npos);
  EXPECT_NE(disasm.find("native_matches=0 native_targets=0"), std::string::npos);

  // The entrypoint index made it into the program form.
  EXPECT_NE(disasm.find("ept /bin/true+0x100"), std::string::npos);
}

TEST_F(CompiledProgramTest, DisassemblyRoundTripsThroughSaveRestore) {
  ASSERT_TRUE(pft_.ExecAll(RepresentativeRules()).ok());
  std::string disasm = pft_.ListCompiled();
  std::string dump = pft_.Save();

  // Restore into a *different* kernel instance (different seed, so inode
  // numbers and interned sids differ). The disassembly prints interned
  // content by value, so the listing must match byte for byte.
  sim::Kernel other(0xf00d);
  sim::BuildSysImage(other);
  apps::InstallPrograms(other);
  Engine* engine2 = InstallProcessFirewall(other);
  Pftables pft2(engine2);
  Status s = pft2.Restore(dump);
  ASSERT_TRUE(s.ok()) << s.message();
  EXPECT_EQ(pft2.ListCompiled(), disasm);
}

TEST_F(CompiledProgramTest, BucketsRePointAtEntrySlices) {
  ASSERT_TRUE(pft_.ExecAll(RepresentativeRules()).ok());
  auto snap = engine_->CompileRuleset();
  const PfProgram& prog = snap->program;
  ASSERT_EQ(prog.chains.size(), snap->compiled.size());

  for (const auto& [chain, cc] : snap->compiled) {
    ASSERT_GE(cc.program_chain, 0) << chain->name();
    const ProgramChain& pc = prog.chains[static_cast<size_t>(cc.program_chain)];
    EXPECT_EQ(pc.name, chain->name());
    EXPECT_EQ(pc.op_mask, cc.op_mask);
    for (size_t op = 0; op < sim::kOpCount; ++op) {
      const OpBucket& ob = cc.ops[op];
      const ProgramBucket& pb = pc.ops[op];
      ASSERT_EQ(pb.all_len, ob.all.size());
      ASSERT_EQ(pb.plain_len, ob.plain.size());
      EXPECT_EQ(pb.has_indexed, ob.has_indexed);
      // The entry-table slice resolves to exactly the bucket's rules, in
      // bucket order.
      for (size_t i = 0; i < ob.all.size(); ++i) {
        EXPECT_EQ(prog.rules[prog.entries[pb.all_off + i]].rule, ob.all[i]);
      }
      for (size_t i = 0; i < ob.plain.size(); ++i) {
        EXPECT_EQ(prog.rules[prog.entries[pb.plain_off + i]].rule, ob.plain[i]);
      }
    }
  }
}

TEST_F(CompiledProgramTest, RuleBodiesAreContiguousAlignedRecords) {
  ASSERT_TRUE(pft_.ExecAll(RepresentativeRules()).ok());
  auto snap = engine_->CompileRuleset();
  const PfProgram& prog = snap->program;
  ASSERT_FALSE(prog.rules.empty());
  EXPECT_EQ(prog.arena.size() % kPfInsnWords, 0u);
  for (const RuleRecord& rec : prog.rules) {
    EXPECT_EQ(rec.entry % kPfInsnWords, 0u);
    EXPECT_EQ((rec.end - rec.entry) % kPfInsnWords, 0u);
    EXPECT_GT(rec.end, rec.entry);  // at least RULE_BEGIN + target
    ASSERT_NE(rec.rule, nullptr);
    // Every body starts with RULE_BEGIN naming its own record and ends with
    // a terminal/target instruction.
    EXPECT_EQ(static_cast<PfOp>(prog.Fetch(rec.entry).op), PfOp::kRuleBegin);
  }
}

TEST_F(CompiledProgramTest, NativeEscapesDispatchIntoModules) {
  // A custom target lowers through the TARGET_NATIVE escape and must still
  // fire (virtually) under the compiled evaluator.
  int counter = 0;
  pft_.RegisterTarget("COUNT", [&counter](const std::vector<std::string>& opts,
                                          std::unique_ptr<TargetModule>* out) {
    if (!opts.empty()) {
      return Status::Error("COUNT takes no options");
    }
    class CountTarget : public TargetModule {
     public:
      explicit CountTarget(int* c) : c_(c) {}
      std::string_view Name() const override { return "COUNT"; }
      TargetKind Fire(Packet&, Engine&) const override {
        ++*c_;
        return TargetKind::kContinue;
      }
      std::string Render() const override { return "COUNT"; }

     private:
      int* c_;
    };
    *out = std::make_unique<CountTarget>(&counter);
    return Status::Ok();
  });
  ASSERT_TRUE(pft_.Exec("pftables -o FILE_OPEN -d etc_t -j COUNT").ok());
  ASSERT_TRUE(engine_->config().compiled_eval);

  std::string disasm = pft_.ListCompiled();
  EXPECT_NE(disasm.find("TARGET_NATIVE COUNT"), std::string::npos);

  Pid pid = sched().Spawn({.exe = sim::kBinTrue}, [](Proc& p) {
    p.Open("/etc/passwd", sim::kORdOnly);
    p.Open("/etc/shadow", sim::kORdOnly);  // shadow_t: not counted
  });
  sched().RunUntilExit(pid);
  EXPECT_EQ(counter, 1);
}

TEST_F(CompiledProgramTest, CompiledEvaluatorEnforces) {
  ASSERT_TRUE(engine_->config().compiled_eval) << "compiled evaluation is the default";
  ASSERT_TRUE(pft_.Exec("pftables -o FILE_OPEN -d shadow_t -j DROP").ok());
  Pid pid = sched().Spawn({.exe = sim::kBinTrue}, [](Proc& p) {
    EXPECT_EQ(p.Open("/etc/shadow", sim::kORdOnly), sim::SysError(sim::Err::kAcces));
    EXPECT_GE(p.Open("/etc/passwd", sim::kORdOnly), 0);
  });
  sched().RunUntilExit(pid);
  EXPECT_EQ(engine_->stats().drops, 1u);
}

}  // namespace
}  // namespace pf::core
