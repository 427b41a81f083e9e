// Engine edge cases: chain-jump loops and depth limits, output/create chain
// routing, mid-resolution denials, INTERP matches in rules, statistics, and
// behavior with MAC enforcing in front of the PF.

#include <gtest/gtest.h>

#include "src/apps/interp.h"
#include "src/apps/programs.h"
#include "src/core/engine.h"
#include "src/core/pftables.h"
#include "src/sim/mac_module.h"
#include "src/sim/sysimage.h"
#include "tests/testutil.h"

namespace pf::core {
namespace {

using sim::Pid;
using sim::Proc;

class EngineEdgeTest : public pf::testing::SimTest {
 protected:
  EngineEdgeTest() : engine_(InstallProcessFirewall(kernel())), pft_(engine_) {
    apps::InstallPrograms(kernel());
  }

  int Run(std::function<void(Proc&)> body) {
    Pid pid = sched().Spawn({.name = "edge", .exe = sim::kBinTrue}, std::move(body));
    return sched().RunUntilExit(pid);
  }

  Engine* engine_;
  Pftables pft_;
};

TEST_F(EngineEdgeTest, SelfJumpLoopIsDepthLimited) {
  ASSERT_TRUE(pft_.Exec("pftables -N loop").ok());
  ASSERT_TRUE(pft_.Exec("pftables -A loop -o FILE_OPEN -j loop").ok());
  ASSERT_TRUE(pft_.Exec("pftables -I input -o FILE_OPEN -j loop").ok());
  Run([](Proc& p) {
    // Must terminate and fall through to the default allow.
    EXPECT_GE(p.Open("/etc/passwd", sim::kORdOnly), 0);
  });
}

TEST_F(EngineEdgeTest, MutualJumpLoopIsDepthLimited) {
  ASSERT_TRUE(pft_.Exec("pftables -N ping").ok());
  ASSERT_TRUE(pft_.Exec("pftables -N pong").ok());
  ASSERT_TRUE(pft_.Exec("pftables -A ping -j pong").ok());
  ASSERT_TRUE(pft_.Exec("pftables -A pong -j ping").ok());
  ASSERT_TRUE(pft_.Exec("pftables -I input -j ping").ok());
  Run([](Proc& p) { EXPECT_GE(p.Open("/etc/passwd", sim::kORdOnly), 0); });
}

TEST_F(EngineEdgeTest, OutputChainSeesWritesNotReads) {
  ASSERT_TRUE(pft_.Exec("pftables -I output -o FILE_WRITE -d tmp_t -j DROP").ok());
  kernel().MkFileAt("/tmp/w", "x", 0666, 0, 0, "tmp_t");
  Run([](Proc& p) {
    int fd = static_cast<int>(p.Open("/tmp/w", sim::kORdWr));
    ASSERT_GE(fd, 0) << "open (a read-side op) is not output-mediated";
    std::string buf;
    EXPECT_GE(p.Read(fd, &buf, 1), 0);
    EXPECT_EQ(p.Write(fd, "y"), sim::SysError(sim::Err::kAcces));
  });
}

TEST_F(EngineEdgeTest, CreateChainMediatesCreationOnly) {
  ASSERT_TRUE(pft_.Exec("pftables -I create -o DIR_ADD_NAME -d tmp_t -j DROP").ok());
  Run([](Proc& p) {
    EXPECT_EQ(p.Open("/tmp/new", sim::kOWrOnly | sim::kOCreat),
              sim::SysError(sim::Err::kAcces));
    EXPECT_EQ(p.Mkdir("/tmp/newdir", 0755), sim::SysError(sim::Err::kAcces));
    EXPECT_GE(p.Open("/etc/passwd", sim::kORdOnly), 0);
  });
}

TEST_F(EngineEdgeTest, DenialDuringResolutionAbortsTheWalk) {
  ASSERT_TRUE(pft_.Exec("pftables -o DIR_SEARCH -d httpd_sys_content_t -j DROP").ok());
  Run([](Proc& p) {
    EXPECT_EQ(p.Open("/var/www/index.html", sim::kORdOnly),
              sim::SysError(sim::Err::kAcces))
        << "searching the content dir itself is denied";
    EXPECT_GE(p.Open("/var/log", sim::kORdOnly), 0);
  });
}

TEST_F(EngineEdgeTest, InterpMatchRestrictsByScript) {
  // Drop opens performed while the gCalendar component is the innermost
  // interpreter frame — a script-granular rule the INTERP extension allows.
  ASSERT_TRUE(pft_.Exec("pftables -o FILE_OPEN -m INTERP --script gcalendar.php "
                        "--lang php -j DROP")
                  .ok());
  Pid pid = sched().Spawn({.name = "php5", .exe = sim::kPhp}, [](Proc& p) {
    apps::PhpInterp php(p, "/var/www/app/index.php");
    {
      sim::InterpFrame gcal(p, sim::InterpLang::kPhp, "/var/www/app/gcalendar.php", 8);
      EXPECT_EQ(p.Open("/etc/passwd", sim::kORdOnly), sim::SysError(sim::Err::kAcces));
    }
    EXPECT_GE(p.Open("/etc/passwd", sim::kORdOnly), 0)
        << "outside the component the open is fine";
  });
  sched().RunUntilExit(pid);
}

TEST_F(EngineEdgeTest, MacDenialPreemptsTheFirewall) {
  // With MAC enforcing in front, a MAC-denied access never reaches the PF
  // (the PF sees only authorized operations, paper Figure 2 step 1->2).
  sim::Kernel k(3);
  sim::BuildSysImage(k);
  k.AddModule(std::make_unique<sim::MacModule>(&k.policy()));
  Engine* engine = InstallProcessFirewall(k);
  Pftables pft(engine);
  ASSERT_TRUE(pft.Exec("pftables -o FILE_OPEN -d etc_t -j DROP").ok());
  k.policy().set_enforcing(true);
  k.policy().Allow("trusted_t", "etc_t", sim::kMacRead);
  // A domain with no MAC rule at all: denied by MAC before the PF runs.
  sim::Scheduler sched(k);
  uint64_t pf_invocations_before = engine->stats().invocations;
  sim::SpawnOpts opts;
  opts.name = "nobody";
  opts.cred.uid = opts.cred.euid = 4242;  // non-root so DAC/MAC apply
  opts.cred.sid = k.labels().Intern("isolated_t");
  Pid pid = sched.Spawn(opts, [](Proc& p) {
    EXPECT_EQ(p.Open("/etc/passwd", sim::kORdOnly), sim::SysError(sim::Err::kAcces));
  });
  sched.RunUntilExit(pid);
  // The PF never saw the FILE_OPEN (only syscallbegin/dir hooks at most).
  EXPECT_GE(engine->stats().invocations, pf_invocations_before);
  EXPECT_EQ(engine->stats().drops, 0u);
}

TEST_F(EngineEdgeTest, StatsAccounting) {
  ASSERT_TRUE(pft_.Exec("pftables -o FILE_OPEN -d shadow_t -j DROP").ok());
  engine_->ResetStats();
  Run([](Proc& p) {
    p.Open("/etc/shadow", sim::kORdOnly);
    p.Open("/etc/passwd", sim::kORdOnly);
  });
  EXPECT_EQ(engine_->stats().drops, 1u);
  EXPECT_GT(engine_->stats().invocations, 2u) << "per-component hooks included";
  EXPECT_GT(engine_->stats().rules_evaluated, 0u);
}

TEST_F(EngineEdgeTest, SignalChainOnlySeesDeliveries) {
  ASSERT_TRUE(pft_.ExecAll({
                      "pftables -N sigchain",
                      "pftables -I input -o PROCESS_SIGNAL_DELIVERY -j sigchain",
                      "pftables -A sigchain -j DROP",
                  })
                  .ok());
  int handled = 0;
  Pid victim = sched().Spawn({.name = "victim", .exe = sim::kBinTrue}, [&](Proc& p) {
    p.Sigaction(sim::kSigUsr1, [&](sim::SigNum) { ++handled; });
    EXPECT_GE(p.Open("/etc/passwd", sim::kORdOnly), 0) << "file ops unaffected";
    p.Checkpoint("armed");
    p.Null();
  });
  ASSERT_TRUE(sched().RunUntilLabel(victim, "armed"));
  Pid killer = sched().Spawn({}, [&](Proc& p) { p.Kill(victim, sim::kSigUsr1); });
  sched().RunUntilExit(killer);
  sched().RunUntilExit(victim);
  EXPECT_EQ(handled, 0) << "every delivery is dropped by the chain";
}

TEST_F(EngineEdgeTest, RuleOnMangleTableIsInertForNow) {
  ASSERT_TRUE(pft_.Exec("pftables -t mangle -o FILE_OPEN -d etc_t -j DROP").ok());
  Run([](Proc& p) {
    EXPECT_GE(p.Open("/etc/passwd", sim::kORdOnly), 0)
        << "only the filter table carries verdicts";
  });
}

// The system call each context-cache entry belongs to (kNoSyscall: empty).
uint64_t CachedStackSerial(const PfTaskState& state) {
  CachedFrame entry;
  EXPECT_TRUE(state.stack.Load(&entry)) << "no writer is active";
  return entry.serial;
}

uint64_t CachedInterpSerial(const PfTaskState& state) {
  CachedInterp entry;
  EXPECT_TRUE(state.interp.Load(&entry)) << "no writer is active";
  return entry.serial;
}

TEST_F(EngineEdgeTest, ForkChildDoesNotInheritUnwindCaches) {
  // An entrypoint rule forces a stack unwind (and cache fill) on open.
  ASSERT_TRUE(pft_.Exec("pftables -p /bin/true -i 0x100 -o FILE_OPEN -j DROP").ok());
  Pid pid = sched().Spawn({.name = "edge", .exe = sim::kBinTrue}, [&](Proc& p) {
    p.Open("/etc/passwd", sim::kORdOnly);
    PfTaskState& parent = engine_->TaskState(p.task());
    parent.dict["k"] = 7;
    if (CachedStackSerial(parent) == kNoSyscall) {
      p.Exit(3);  // precondition failed: the open did not fill the cache
      return;
    }
    int64_t child = p.Fork([&](Proc& c) {
      PfTaskState& st = engine_->TaskState(c.task());
      bool fresh =
          CachedStackSerial(st) == kNoSyscall && CachedInterpSerial(st) == kNoSyscall;
      bool inherited = st.dict.count("k") == 1 && st.dict["k"] == 7;
      c.Exit(fresh ? (inherited ? 0 : 2) : 1);
    });
    int status = -1;
    p.Waitpid(static_cast<Pid>(child), &status);
    p.Exit(status);
  });
  EXPECT_EQ(sched().RunUntilExit(pid), 0)
      << "1 = stale cache inherited, 2 = dict lost, 3 = cache never filled";
}

TEST_F(EngineEdgeTest, ExecHookDropsContextCaches) {
  // Unit-level check of the OnTaskExec contract: the old image's unwind
  // must not serve a hook that runs after exec in the same system call.
  ASSERT_TRUE(pft_.Exec("pftables -p /bin/true -i 0x200 -o FILE_OPEN -j DROP").ok());
  sim::Task task;
  task.pid = 4141;
  task.comm = "raw";
  task.exe = sim::kBinTrue;
  task.cred.sid = kernel().labels().Intern("staff_t");
  task.cwd = kernel().vfs().root()->id();
  task.syscall_depth = 1;  // the hooks below run inside one system call
  task.mm.Reset(kernel().AslrStackBase());
  kernel().MapImage(task, kernel().LookupNoHooks(sim::kBinTrue), sim::kBinTrue);
  const sim::Mapping* map = task.mm.FindMappingByPath(sim::kBinTrue);
  ASSERT_NE(map, nullptr);
  task.mm.PushFrame(map->base + 0x200, 16, false);

  auto inode = kernel().LookupNoHooks("/etc/passwd");
  sim::AccessRequest req;
  req.task = &task;
  req.op = sim::Op::kFileOpen;
  req.inode = inode.get();
  req.id = inode->id();
  req.syscall_nr = sim::SyscallNr::kOpen;
  ++task.syscall_count;
  EXPECT_EQ(engine_->Authorize(req), sim::SysError(sim::Err::kAcces));

  PfTaskState& state = engine_->TaskState(task);
  ASSERT_EQ(CachedStackSerial(state), task.syscall_count)
      << "the entrypoint rule must fill the cache";
  engine_->OnTaskExec(task);
  EXPECT_EQ(CachedStackSerial(state), kNoSyscall);
  EXPECT_EQ(CachedInterpSerial(state), kNoSyscall);

  // The new image calls from another site; a hook later in the same system
  // call must unwind it instead of reusing the pre-exec frame.
  task.mm.Reset(kernel().AslrStackBase());
  kernel().MapImage(task, kernel().LookupNoHooks(sim::kBinTrue), sim::kBinTrue);
  map = task.mm.FindMappingByPath(sim::kBinTrue);
  ASSERT_NE(map, nullptr);
  task.mm.PushFrame(map->base + 0x300, 16, false);
  EXPECT_EQ(engine_->Authorize(req), 0) << "a pre-exec unwind served a post-exec hook";
}

TEST_F(EngineEdgeTest, HookOutsideASyscallDoesNotReuseItsUnwind) {
  // Signal delivery at a checkpoint runs outside any system call, where
  // syscall_count still names the call before it although the stack has
  // moved on. The delivery from call site 0x200 must be dropped with the
  // context cache off and on alike.
  ASSERT_TRUE(pft_.ExecAll({
                      "pftables -p /bin/true -i 0x100 -o FILE_OPEN -j ACCEPT",
                      "pftables -p /bin/true -i 0x200 -o PROCESS_SIGNAL_DELIVERY -j DROP",
                  })
                  .ok());
  for (const bool cache_context : {false, true}) {
    engine_->config().cache_context = cache_context;
    int handled = 0;
    Pid victim = sched().Spawn({.name = "victim", .exe = sim::kBinTrue}, [&](Proc& p) {
      p.Sigaction(sim::kSigUsr1, [&](sim::SigNum) { ++handled; });
      {
        sim::UserFrame site(p, sim::kBinTrue, 0x100, 16);
        EXPECT_GE(p.Open("/etc/passwd", sim::kORdOnly), 0);  // unwinds from 0x100
      }
      p.Checkpoint("armed");
      sim::UserFrame site(p, sim::kBinTrue, 0x200, 16);
      p.Checkpoint("deliver");  // the pending SIGUSR1 is delivered here
    });
    ASSERT_TRUE(sched().RunUntilLabel(victim, "armed"));
    Pid killer = sched().Spawn({}, [&](Proc& p) { p.Kill(victim, sim::kSigUsr1); });
    sched().RunUntilExit(killer);
    sched().RunUntilExit(victim);
    EXPECT_EQ(handled, 0) << "cache_context=" << cache_context
                          << ": the delivery reused the open's unwind";
  }
}

TEST_F(EngineEdgeTest, KernelNotifiesModulesOnExecve) {
  struct ExecProbe : sim::SecurityModule {
    int execs = 0;
    std::string_view ModuleName() const override { return "probe"; }
    int64_t Authorize(sim::AccessRequest&) override { return 0; }
    void OnTaskExec(sim::Task&) override { ++execs; }
  };
  auto probe = std::make_unique<ExecProbe>();
  ExecProbe* probe_raw = probe.get();
  kernel().AddModule(std::move(probe));
  Pid pid = sched().Spawn({.name = "edge", .exe = sim::kBinSh}, [](Proc& p) {
    p.Execve(sim::kBinTrue, {sim::kBinTrue}, {});
  });
  sched().RunUntilExit(pid);
  EXPECT_EQ(probe_raw->execs, 1) << "image replacement must fire OnTaskExec once";
}

}  // namespace
}  // namespace pf::core
