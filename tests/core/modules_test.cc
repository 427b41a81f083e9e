// Builtin match/target modules, pinned through the shipping evaluator.
//
// Operand parsing and evaluation are tested directly. Every module
// expectation is a rule base written as pftables text plus the requests
// Authorize decides, with the verdict, the rule's hit counter, and the
// task's STATE dictionary worked out by hand in the comment above each
// step. A builtin module has no implementation besides its instruction
// handler (src/core/exec_insn.inc), so these tests pin the code that ships.

#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/core/modules.h"
#include "src/sim/sysimage.h"
#include "tests/core/decision_rig.h"

namespace pf::core {
namespace {

using Dict = std::map<std::string, int64_t>;

class ModulesTest : public ::testing::Test {
 protected:
  ModulesTest() : kernel_(11) {
    sim::BuildSysImage(kernel_);
    engine_ = InstallProcessFirewall(kernel_);
    task_.pid = 55;
    task_.comm = "unit";
    task_.cwd = kernel_.vfs().root()->id();
    inode_ = kernel_.LookupNoHooks("/etc/passwd");
    req_.task = &task_;
    req_.op = sim::Op::kFileOpen;
    req_.inode = inode_.get();
    req_.id = inode_->id();
    req_.syscall_nr = sim::SyscallNr::kOpen;
    pkt_.req = &req_;
    pkt_.stats = &stats_;
  }

  // Collects object context into the packet.
  void FillObject() { engine_->EnsureContext(pkt_, CtxBit(Ctx::kObject)); }

  sim::Kernel kernel_;
  Engine* engine_ = nullptr;
  sim::Task task_;
  std::shared_ptr<sim::Inode> inode_;
  sim::AccessRequest req_;
  EngineStatsBlock stats_;
  Packet pkt_;
};

TEST_F(ModulesTest, OperandParsing) {
  auto lit = Operand::Parse("42");
  ASSERT_TRUE(lit);
  EXPECT_FALSE(lit->is_var);
  EXPECT_EQ(lit->literal, 42);

  auto hex = Operand::Parse("0xbeef");
  ASSERT_TRUE(hex);
  EXPECT_EQ(hex->literal, 0xbeef);

  auto neg = Operand::Parse("-7");
  ASSERT_TRUE(neg);
  EXPECT_EQ(neg->literal, -7);

  auto var = Operand::Parse("C_INO");
  ASSERT_TRUE(var);
  EXPECT_TRUE(var->is_var);
  EXPECT_EQ(var->var, CtxVar::kIno);

  auto nr = Operand::Parse("NR_sigreturn");
  ASSERT_TRUE(nr);
  EXPECT_FALSE(nr->is_var);
  EXPECT_EQ(nr->literal, static_cast<int64_t>(sim::SyscallNr::kSigreturn));

  EXPECT_FALSE(Operand::Parse("bogus"));
  EXPECT_FALSE(Operand::Parse(""));
  EXPECT_FALSE(Operand::Parse("C_NOPE"));
}

TEST_F(ModulesTest, OperandContextNeeds) {
  EXPECT_EQ(Operand::Parse("7")->Needs(), 0u);
  EXPECT_EQ(Operand::Parse("C_INO")->Needs(), CtxBit(Ctx::kObject));
  EXPECT_EQ(Operand::Parse("C_TGT_DAC_OWNER")->Needs(),
            CtxBit(Ctx::kObject) | CtxBit(Ctx::kLinkTarget));
  EXPECT_EQ(Operand::Parse("C_PID")->Needs(), 0u);
}

TEST_F(ModulesTest, OperandEvalAgainstPacket) {
  FillObject();
  EXPECT_EQ(Operand::Parse("C_INO")->Eval(pkt_), static_cast<int64_t>(inode_->ino));
  EXPECT_EQ(Operand::Parse("C_DEV")->Eval(pkt_), static_cast<int64_t>(inode_->dev));
  EXPECT_EQ(Operand::Parse("C_DAC_OWNER")->Eval(pkt_), 0);
  EXPECT_EQ(Operand::Parse("C_PID")->Eval(pkt_), 55);
  EXPECT_EQ(Operand::Parse("C_SYSCALL")->Eval(pkt_),
            static_cast<int64_t>(sim::SyscallNr::kOpen));
  EXPECT_FALSE(Operand::Parse("C_TGT_DAC_OWNER")->Eval(pkt_))
      << "no link target on a plain open";
  EXPECT_FALSE(Operand::Parse("C_SIG")->Eval(pkt_)) << "not a signal delivery";
}

TEST_F(ModulesTest, StateMatchSemantics) {
  {
    DecisionRig rig({"pftables -o FILE_OPEN -m STATE --key k --cmp 7 -j DROP"});
    // {}: an absent key never matches -> allow, hits 0.
    EXPECT_EQ(rig.Decide(rig.Open("/etc/passwd")), kAllow);
    EXPECT_EQ(rig.Hits(1), 0u);
    // {k:7}: 7 == 7 -> DROP, hits 1.
    rig.Dict()["k"] = 7;
    EXPECT_EQ(rig.Decide(rig.Open("/etc/passwd")), kDeny);
    EXPECT_EQ(rig.Hits(1), 1u);
    // {k:8}: 8 != 7 -> allow, hits stay 1.
    rig.Dict()["k"] = 8;
    EXPECT_EQ(rig.Decide(rig.Open("/etc/passwd")), kAllow);
    EXPECT_EQ(rig.Hits(1), 1u);
    EXPECT_EQ(rig.Evals(1), 3u);
    EXPECT_EQ(rig.Dict(), (Dict{{"k", 8}})) << "a match never writes the dictionary";
  }
  {
    DecisionRig rig({"pftables -o FILE_OPEN -m STATE --key k --cmp 7 --nequal -j DROP"});
    // {}: absent never matches, even negated -> allow, hits 0.
    EXPECT_EQ(rig.Decide(rig.Open("/etc/passwd")), kAllow);
    EXPECT_EQ(rig.Hits(1), 0u);
    // {k:8}: 8 != 7 -> DROP, hits 1.
    rig.Dict()["k"] = 8;
    EXPECT_EQ(rig.Decide(rig.Open("/etc/passwd")), kDeny);
    EXPECT_EQ(rig.Hits(1), 1u);
    // {k:7}: equal, so --nequal fails -> allow, hits 1.
    rig.Dict()["k"] = 7;
    EXPECT_EQ(rig.Decide(rig.Open("/etc/passwd")), kAllow);
    EXPECT_EQ(rig.Hits(1), 1u);
  }
  // A bare --key is a presence test; --nequal without --cmp changes nothing.
  for (const char* rule : {"pftables -o FILE_OPEN -m STATE --key k -j DROP",
                           "pftables -o FILE_OPEN -m STATE --key k --nequal -j DROP"}) {
    DecisionRig rig({rule});
    // {}: absent -> allow, hits 0.
    EXPECT_EQ(rig.Decide(rig.Open("/etc/passwd")), kAllow) << rule;
    EXPECT_EQ(rig.Hits(1), 0u) << rule;
    // {k:0}: present, whatever its value -> DROP, hits 1.
    rig.Dict()["k"] = 0;
    EXPECT_EQ(rig.Decide(rig.Open("/etc/passwd")), kDeny) << rule;
    EXPECT_EQ(rig.Hits(1), 1u) << rule;
  }
}

TEST_F(ModulesTest, StateMatchAgainstContextVariable) {
  // The TOCTTOU rule shape: the stored inode differs from this access's.
  DecisionRig rig({"pftables -o FILE_OPEN -m STATE --key ino --cmp C_INO --nequal -j DROP"});
  const int64_t passwd = static_cast<int64_t>(rig.kernel.LookupNoHooks("/etc/passwd")->ino);
  // {ino: passwd}, open passwd: same inode, --nequal fails -> allow, hits 0.
  rig.Dict()["ino"] = passwd;
  EXPECT_EQ(rig.Decide(rig.Open("/etc/passwd")), kAllow);
  EXPECT_EQ(rig.Hits(1), 0u);
  // {ino: passwd}, open shadow: a different inode -> DROP, hits 1.
  EXPECT_EQ(rig.Decide(rig.Open("/etc/shadow")), kDeny);
  EXPECT_EQ(rig.Hits(1), 1u);
  // {ino: passwd + 1}, open passwd: different -> DROP, hits 2.
  rig.Dict()["ino"] = passwd + 1;
  EXPECT_EQ(rig.Decide(rig.Open("/etc/passwd")), kDeny);
  EXPECT_EQ(rig.Hits(1), 2u);
}

TEST_F(ModulesTest, StateTargetSetAndUnset) {
  DecisionRig rig({
      "pftables -o FILE_OPEN -d etc_t -j STATE --set --key x --value 3",
      "pftables -o FILE_OPEN -d shadow_t -j STATE --set --key x --value C_INO",
      "pftables -o FILE_GETATTR -j STATE --unset --key x",
  });
  const int64_t shadow = static_cast<int64_t>(rig.kernel.LookupNoHooks("/etc/shadow")->ino);
  // Open passwd (etc_t): rule 1 sets x=3 and traversal continues -> allow.
  EXPECT_EQ(rig.Decide(rig.Open("/etc/passwd")), kAllow);
  EXPECT_EQ(rig.Dict(), (Dict{{"x", 3}}));
  // Open shadow (shadow_t): rule 2 overwrites x with the shadow inode.
  EXPECT_EQ(rig.Decide(rig.Open("/etc/shadow")), kAllow);
  EXPECT_EQ(rig.Dict(), (Dict{{"x", shadow}}));
  // Getattr: rule 3 erases x -> {}.
  EXPECT_EQ(rig.Decide(rig.On(sim::Op::kFileGetattr, "/etc/passwd")), kAllow);
  EXPECT_EQ(rig.Dict(), Dict{});
  // Getattr again: unsetting an absent key still fires the rule.
  EXPECT_EQ(rig.Decide(rig.On(sim::Op::kFileGetattr, "/etc/passwd")), kAllow);
  EXPECT_EQ(rig.Dict(), Dict{});
  EXPECT_EQ(rig.Hits(1), 1u);
  EXPECT_EQ(rig.Hits(2), 1u);
  EXPECT_EQ(rig.Hits(3), 2u);
}

TEST_F(ModulesTest, SignalMatchRequiresHandledBlockableSignal) {
  // No -o: the rule sits in every op's bucket, so the module itself must
  // reject everything but the delivery of a handled, blockable signal.
  DecisionRig rig({"pftables -m SIGNAL_MATCH -j DROP"});
  auto deliver = [&rig](sim::SigNum sig) {
    sim::AccessRequest req = rig.Bare(sim::Op::kSignalDeliver, sim::SyscallNr::kKill);
    req.sig = sig;
    req.sig_sender = 1;
    return rig.Decide(req);
  };
  // An open is not a signal delivery -> allow (evaluated, no hit).
  EXPECT_EQ(rig.Decide(rig.Open("/etc/passwd")), kAllow);
  // SIGUSR1 with no handler registered -> allow.
  EXPECT_EQ(deliver(sim::kSigUsr1), kAllow);
  EXPECT_EQ(rig.Hits(1), 0u);
  // SIGUSR1 with a handler -> DROP, hits 1.
  rig.task.signals.actions[sim::kSigUsr1] = sim::SigAction{[](sim::SigNum) {}};
  EXPECT_EQ(deliver(sim::kSigUsr1), kDeny);
  EXPECT_EQ(rig.Hits(1), 1u);
  // SIGKILL cannot be handled -> allow.
  EXPECT_EQ(deliver(sim::kSigKill), kAllow);
  EXPECT_EQ(rig.Hits(1), 1u);
  EXPECT_EQ(rig.Evals(1), 4u);
}

TEST_F(ModulesTest, SyscallArgsMatchesNumberAndArgs) {
  // SYSCALL_BEGIN for `nr` with first argument `a1`.
  auto begin = [](DecisionRig& rig, sim::SyscallNr nr, int64_t a1) {
    sim::AccessRequest req = rig.Bare(sim::Op::kSyscallBegin, nr);
    req.args = {a1, 0, 0, 0};
    return rig.Decide(req);
  };
  {
    DecisionRig rig(
        {"pftables -A syscallbegin -m SYSCALL_ARGS --arg 0 --equal NR_open -j DROP"});
    // open == NR_open -> DROP; close never reaches the rule.
    EXPECT_EQ(begin(rig, sim::SyscallNr::kOpen, 0), kDeny);
    EXPECT_EQ(begin(rig, sim::SyscallNr::kClose, 0), kAllow);
    EXPECT_EQ(rig.Hits(1, "syscallbegin"), 1u);
  }
  {
    DecisionRig rig(
        {"pftables -A syscallbegin -m SYSCALL_ARGS --arg 0 --nequal NR_open -j DROP"});
    // close != NR_open -> DROP; open -> allow (evaluated, no hit).
    EXPECT_EQ(begin(rig, sim::SyscallNr::kClose, 0), kDeny);
    EXPECT_EQ(begin(rig, sim::SyscallNr::kOpen, 0), kAllow);
    EXPECT_EQ(rig.Hits(1, "syscallbegin"), 1u);
    EXPECT_EQ(rig.Evals(1, "syscallbegin"), 2u);
  }
  {
    DecisionRig rig({"pftables -A syscallbegin -m SYSCALL_ARGS --arg 1 --equal 42 -j DROP"});
    // args[0] == 42 -> DROP; 41 -> allow.
    EXPECT_EQ(begin(rig, sim::SyscallNr::kOpen, 42), kDeny);
    EXPECT_EQ(begin(rig, sim::SyscallNr::kOpen, 41), kAllow);
    EXPECT_EQ(rig.Hits(1, "syscallbegin"), 1u);
  }
  {
    DecisionRig rig({"pftables -A syscallbegin -m SYSCALL_ARGS --arg 1 --nequal 42 -j DROP"});
    // args[0] == 41 -> DROP; 42 -> allow.
    EXPECT_EQ(begin(rig, sim::SyscallNr::kOpen, 41), kDeny);
    EXPECT_EQ(begin(rig, sim::SyscallNr::kOpen, 42), kAllow);
    EXPECT_EQ(rig.Hits(1, "syscallbegin"), 1u);
  }
}

TEST_F(ModulesTest, CompareMatchMissingContextNeverMatches) {
  DecisionRig rig({"pftables -o FILE_OPEN -m COMPARE --v1 C_DAC_OWNER --v2 C_TGT_DAC_OWNER "
                   "--nequal -j DROP"});
  // A plain open has no link target, so C_TGT_DAC_OWNER is absent and the
  // --nequal compare cannot claim a match -> allow, hits 0.
  EXPECT_EQ(rig.Decide(rig.Open("/etc/passwd")), kAllow);
  EXPECT_EQ(rig.Hits(1), 0u);
  EXPECT_EQ(rig.Evals(1), 1u);
}

TEST_F(ModulesTest, CompareMatchOnLinkTraversal) {
  DecisionRig rig({"pftables -o LNK_FILE_READ -m COMPARE --v1 C_DAC_OWNER --v2 "
                   "C_TGT_DAC_OWNER --nequal -j DROP"});
  rig.kernel.MkSymlinkAt("/tmp/owned", "/etc/passwd", sim::kMalloryUid, sim::kMalloryUid,
                         "tmp_t");
  rig.kernel.MkSymlinkAt("/tmp/rooted", "/etc/passwd", 0, 0, "tmp_t");
  auto follow = [&rig](const std::string& name) {
    auto dir = rig.kernel.LookupNoHooks("/tmp");
    auto link = rig.kernel.vfs().Sb(dir->dev).Get(dir->entries.at(name));
    auto target = rig.kernel.LookupNoHooks("/etc/passwd");
    sim::AccessRequest req = rig.Bare(sim::Op::kLnkFileRead, sim::SyscallNr::kOpen);
    req.inode = link.get();
    req.id = link->id();
    req.link_target = target.get();
    rig.pins.push_back(link);
    rig.pins.push_back(target);
    return rig.Decide(req);
  };
  // mallory's link to root's file: owners differ (rule R8) -> DROP, hits 1.
  EXPECT_EQ(follow("owned"), kDeny);
  EXPECT_EQ(rig.Hits(1), 1u);
  // root's link to root's file: owners equal -> allow, hits 1.
  EXPECT_EQ(follow("rooted"), kAllow);
  EXPECT_EQ(rig.Hits(1), 1u);
}

TEST_F(ModulesTest, RenderRoundTrips) {
  std::unique_ptr<MatchModule> m;
  ASSERT_TRUE(StateMatch::Create({"--key", "0xbeef", "--cmp", "C_INO", "--nequal"}, &m)
                  .ok());
  EXPECT_EQ(m->Render(), "STATE --key 0xbeef --cmp C_INO --nequal");
  std::unique_ptr<TargetModule> t;
  ASSERT_TRUE(LogTarget::Create({"--prefix", "audit"}, &t).ok());
  EXPECT_EQ(t->Render(), "LOG --prefix audit");
}

}  // namespace
}  // namespace pf::core
