// The SYSCALL_BEGIN syscall-number prefilter (ProgramChain::nr_mask).
//
// At commit the engine records which syscall numbers the syscallbegin
// chain's rules can match: a rule pins a number only with
// `-m SYSCALL_ARGS --arg 0 --equal N`; any other rule, a JUMP, or a DROP
// policy can match every number. A SYSCALL_BEGIN outside the recorded set
// takes the fast-path allow. Every expectation below is worked out by hand
// from the rules, not computed by a second evaluator.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/apps/programs.h"
#include "src/core/engine.h"
#include "src/core/pftables.h"
#include "src/sim/sysimage.h"

namespace pf::core {
namespace {

using sim::SyscallNr;

uint64_t Bit(SyscallNr nr) { return 1ull << static_cast<uint32_t>(nr); }

constexpr const char* kDropSigreturn =
    "pftables -A syscallbegin -m SYSCALL_ARGS --arg 0 --equal NR_sigreturn -j DROP";
constexpr const char* kOpenSetsOpened =
    "pftables -A syscallbegin -m SYSCALL_ARGS --arg 0 --equal NR_open "
    "-j STATE --set --key opened --value 1";

struct Rig {
  sim::Kernel kernel{0x5eed};
  Engine* engine = nullptr;
  sim::Task task;

  explicit Rig(const std::vector<std::string>& rules) {
    sim::BuildSysImage(kernel);
    apps::InstallPrograms(kernel);
    engine = InstallProcessFirewall(kernel);
    Pftables pft(engine);
    EXPECT_TRUE(pft.ExecAll(rules).ok());
    task.pid = 300;
    task.syscall_depth = 1;  // every request runs inside a system call
    task.comm = "prefilter";
    task.exe = sim::kBinTrue;
    task.cred.sid = kernel.labels().Intern("staff_t");
    task.cwd = kernel.vfs().root()->id();
    engine->ResetStats();
  }

  int64_t SyscallBegin(SyscallNr nr) {
    ++task.syscall_count;
    sim::AccessRequest req;
    req.task = &task;
    req.op = sim::Op::kSyscallBegin;
    req.syscall_nr = nr;
    return engine->Authorize(req);
  }

  uint64_t NrMask() const {
    const auto rs = engine->PublishedRuleset();
    return rs->program.chains[static_cast<size_t>(rs->program.root_syscallbegin)].nr_mask;
  }

  // Per-rule hit counters of one chain, in chain order.
  std::vector<uint64_t> Hits(const char* chain) const {
    std::vector<uint64_t> out;
    for (const auto& r : engine->ruleset().filter().Find(chain)->rules()) {
      out.push_back(r->hits.load(std::memory_order_relaxed));
    }
    return out;
  }

  bool HasTaskState() const { return task.security[engine->slot()] != nullptr; }
  std::map<std::string, int64_t> Dict() { return engine->TaskState(task).dict; }
};

const int64_t kDenied = sim::SysError(sim::Err::kAcces);

TEST(SyscallPrefilterTest, PinnedNumbersSkipEveryOtherSyscall) {
  Rig rig({kDropSigreturn, kOpenSetsOpened});
  EXPECT_EQ(rig.NrMask(), Bit(SyscallNr::kSigreturn) | Bit(SyscallNr::kOpen));

  // Outside the set: allowed without evaluating a rule or touching the task.
  EXPECT_EQ(rig.SyscallBegin(SyscallNr::kNull), 0);
  EXPECT_EQ(rig.SyscallBegin(SyscallNr::kRead), 0);
  EXPECT_FALSE(rig.HasTaskState()) << "a skipped SYSCALL_BEGIN created per-task state";
  EXPECT_EQ(rig.Hits("syscallbegin"), (std::vector<uint64_t>{0, 0}));
  EXPECT_EQ(rig.engine->stats().rules_evaluated, 0u);
  EXPECT_EQ(rig.engine->stats().invocations, 2u);

  // Inside the set: evaluated as usual.
  EXPECT_EQ(rig.SyscallBegin(SyscallNr::kOpen), 0);
  EXPECT_EQ(rig.Dict(), (std::map<std::string, int64_t>{{"opened", 1}}));
  EXPECT_EQ(rig.Hits("syscallbegin"), (std::vector<uint64_t>{0, 1}));
  EXPECT_EQ(rig.SyscallBegin(SyscallNr::kSigreturn), kDenied);
  EXPECT_EQ(rig.Hits("syscallbegin"), (std::vector<uint64_t>{1, 1}));
  // open evaluated both rules; sigreturn stopped at the first.
  EXPECT_EQ(rig.engine->stats().rules_evaluated, 3u);

  // And outside it again, after the task has state: still no effect.
  EXPECT_EQ(rig.SyscallBegin(SyscallNr::kNull), 0);
  EXPECT_EQ(rig.Hits("syscallbegin"), (std::vector<uint64_t>{1, 1}));
  EXPECT_EQ(rig.Dict(), (std::map<std::string, int64_t>{{"opened", 1}}));
  EXPECT_EQ(rig.engine->stats().rules_evaluated, 3u);
}

TEST(SyscallPrefilterTest, EmptyChainRecordsNoNumber) {
  Rig rig({});
  EXPECT_EQ(rig.NrMask(), 0u);
  EXPECT_EQ(rig.SyscallBegin(SyscallNr::kSigreturn), 0);
  EXPECT_FALSE(rig.HasTaskState());
}

TEST(SyscallPrefilterTest, UnguardedStateRuleMatchesEveryNumber) {
  Rig rig({kDropSigreturn, kOpenSetsOpened,
           "pftables -A syscallbegin -j STATE --set --key seen --value 1"});
  EXPECT_EQ(rig.NrMask(), ~0ull);
  EXPECT_EQ(rig.SyscallBegin(SyscallNr::kNull), 0);
  EXPECT_EQ(rig.Dict(), (std::map<std::string, int64_t>{{"seen", 1}}));
  EXPECT_EQ(rig.Hits("syscallbegin"), (std::vector<uint64_t>{0, 0, 1}));
  EXPECT_EQ(rig.SyscallBegin(SyscallNr::kSigreturn), kDenied);
  EXPECT_EQ(rig.Hits("syscallbegin"), (std::vector<uint64_t>{1, 0, 1}));
}

TEST(SyscallPrefilterTest, NequalRuleMatchesEveryNumber) {
  Rig rig({kDropSigreturn, kOpenSetsOpened,
           "pftables -A syscallbegin -m SYSCALL_ARGS --arg 0 --nequal NR_open "
           "-j STATE --set --key not_open --value 1"});
  EXPECT_EQ(rig.NrMask(), ~0ull);
  EXPECT_EQ(rig.SyscallBegin(SyscallNr::kNull), 0);
  EXPECT_EQ(rig.Dict(), (std::map<std::string, int64_t>{{"not_open", 1}}));
  EXPECT_EQ(rig.Hits("syscallbegin"), (std::vector<uint64_t>{0, 0, 1}));
  EXPECT_EQ(rig.SyscallBegin(SyscallNr::kOpen), 0);
  EXPECT_EQ(rig.Dict(), (std::map<std::string, int64_t>{{"not_open", 1}, {"opened", 1}}));
  EXPECT_EQ(rig.Hits("syscallbegin"), (std::vector<uint64_t>{0, 1, 1}));
}

TEST(SyscallPrefilterTest, JumpRuleMatchesEveryNumber) {
  // The JUMP carries a pinned number of its own, yet still counts as "any".
  Rig rig({"pftables -N sub", "pftables -A sub -j STATE --set --key jumped --value 1",
           kDropSigreturn,
           "pftables -A syscallbegin -m SYSCALL_ARGS --arg 0 --equal NR_open -j sub"});
  EXPECT_EQ(rig.NrMask(), ~0ull);
  EXPECT_EQ(rig.SyscallBegin(SyscallNr::kNull), 0);
  EXPECT_EQ(rig.engine->stats().rules_evaluated, 2u) << "kNull must be evaluated";
  EXPECT_EQ(rig.Hits("syscallbegin"), (std::vector<uint64_t>{0, 0}));
  EXPECT_EQ(rig.Hits("sub"), (std::vector<uint64_t>{0}));
  EXPECT_EQ(rig.SyscallBegin(SyscallNr::kOpen), 0);
  EXPECT_EQ(rig.Dict(), (std::map<std::string, int64_t>{{"jumped", 1}}));
  EXPECT_EQ(rig.Hits("syscallbegin"), (std::vector<uint64_t>{0, 1}));
  EXPECT_EQ(rig.Hits("sub"), (std::vector<uint64_t>{1}));
}

TEST(SyscallPrefilterTest, DropPolicyMatchesEveryNumber) {
  Rig rig({kDropSigreturn, kOpenSetsOpened, "pftables -P syscallbegin DROP"});
  EXPECT_EQ(rig.NrMask(), ~0ull);
  // No rule matches kNull; the DROP policy decides.
  EXPECT_EQ(rig.SyscallBegin(SyscallNr::kNull), kDenied);
  EXPECT_EQ(rig.Hits("syscallbegin"), (std::vector<uint64_t>{0, 0}));
  // The STATE rule fires and continues; the policy still drops.
  EXPECT_EQ(rig.SyscallBegin(SyscallNr::kOpen), kDenied);
  EXPECT_EQ(rig.Dict(), (std::map<std::string, int64_t>{{"opened", 1}}));
  EXPECT_EQ(rig.Hits("syscallbegin"), (std::vector<uint64_t>{0, 1}));
}

}  // namespace
}  // namespace pf::core
