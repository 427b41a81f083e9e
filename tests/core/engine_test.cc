// Engine semantics: packet construction, default-match evaluation, verdicts,
// entrypoint matching under ASLR, SYSHIGH expansion, stateful rules, chain
// jumps, per-syscall context caching, optimization-config equivalence, and
// the protect-not-confine property for malicious stacks.

#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/core/pftables.h"
#include "src/sim/sysimage.h"
#include "tests/testutil.h"

namespace pf::core {
namespace {

using sim::Pid;
using sim::Proc;
using sim::SpawnOpts;
using sim::UserFrame;

class EngineTest : public pf::testing::SimTest {
 protected:
  EngineTest() : engine_(InstallProcessFirewall(kernel())), pft_(engine_) {}

  // Runs body in a proc with /bin/true mapped and root creds.
  int RunTrue(std::function<void(Proc&)> body, sim::Cred cred = {}) {
    SpawnOpts opts;
    opts.exe = sim::kBinTrue;
    opts.cred = cred;
    Pid pid = sched().Spawn(opts, std::move(body));
    return sched().RunUntilExit(pid);
  }

  Engine* engine_;
  Pftables pft_;
};

TEST_F(EngineTest, DefaultIsAllow) {
  RunTrue([](Proc& p) { EXPECT_GE(p.Open("/etc/passwd", sim::kORdOnly), 0); });
  EXPECT_GT(engine_->stats().invocations, 0u);
  EXPECT_EQ(engine_->stats().drops, 0u);
}

TEST_F(EngineTest, DropByObjectLabel) {
  ASSERT_TRUE(pft_.Exec("pftables -o FILE_OPEN -d shadow_t -j DROP").ok());
  RunTrue([](Proc& p) {
    EXPECT_EQ(p.Open("/etc/shadow", sim::kORdOnly), sim::SysError(sim::Err::kAcces));
    EXPECT_GE(p.Open("/etc/passwd", sim::kORdOnly), 0) << "other labels unaffected";
  });
  EXPECT_EQ(engine_->stats().drops, 1u);
}

TEST_F(EngineTest, DropByOperationOnly) {
  kernel().MkSymlinkAt("/tmp/lnk", "/etc/passwd", sim::kMalloryUid, sim::kMalloryUid,
                       "tmp_t");
  ASSERT_TRUE(pft_.Exec("pftables -o LNK_FILE_READ -d tmp_t -j DROP").ok());
  RunTrue([](Proc& p) {
    EXPECT_EQ(p.Open("/tmp/lnk", sim::kORdOnly), sim::SysError(sim::Err::kAcces))
        << "following a tmp_t symlink must be blocked";
    EXPECT_GE(p.Open("/etc/passwd", sim::kORdOnly), 0);
  });
}

TEST_F(EngineTest, EntrypointMatchingIsAslrRelative) {
  ASSERT_TRUE(
      pft_.Exec("pftables -p /bin/true -i 0xcafe -o FILE_OPEN -d etc_t -j DROP").ok());
  for (int run = 0; run < 2; ++run) {  // different ASLR bases each run
    RunTrue([](Proc& p) {
      {
        UserFrame f(p, sim::kBinTrue, 0xcafe);
        EXPECT_EQ(p.Open("/etc/passwd", sim::kORdOnly), sim::SysError(sim::Err::kAcces));
      }
      {
        UserFrame f(p, sim::kBinTrue, 0xbeef);
        EXPECT_GE(p.Open("/etc/passwd", sim::kORdOnly), 0)
            << "different call site must not match";
      }
      EXPECT_GE(p.Open("/etc/passwd", sim::kORdOnly), 0) << "no frame: no match";
    });
  }
}

TEST_F(EngineTest, ProgramMatchRequiresSameBinary) {
  ASSERT_TRUE(
      pft_.Exec("pftables -p /bin/false -i 0xcafe -o FILE_OPEN -d etc_t -j DROP").ok());
  RunTrue([](Proc& p) {
    UserFrame f(p, sim::kBinTrue, 0xcafe);  // same offset, different binary
    EXPECT_GE(p.Open("/etc/passwd", sim::kORdOnly), 0);
  });
}

TEST_F(EngineTest, SyshighObjectNegationMatchesAdversaryWritable) {
  // ~{SYSHIGH} = adversary-writable objects (R7's shape).
  ASSERT_TRUE(pft_.Exec("pftables -p /bin/true -i 0x5d7e -d ~{SYSHIGH} "
                        "-o FILE_OPEN -j DROP")
                  .ok());
  kernel().MkFileAt("/tmp/evil.conf", "x", 0666, sim::kMalloryUid, sim::kMalloryUid,
                    "tmp_t");
  RunTrue([](Proc& p) {
    UserFrame f(p, sim::kBinTrue, 0x5d7e);
    EXPECT_EQ(p.Open("/tmp/evil.conf", sim::kORdOnly), sim::SysError(sim::Err::kAcces))
        << "tmp_t is adversary-writable -> not SYSHIGH -> dropped";
    EXPECT_GE(p.Open("/etc/java.conf", sim::kORdOnly), 0)
        << "etc_t is SYSHIGH -> allowed";
  });
}

TEST_F(EngineTest, SyshighSubjectRestrictsRuleToTcb) {
  ASSERT_TRUE(pft_.Exec("pftables -s SYSHIGH -o FILE_OPEN -d tmp_t -j DROP").ok());
  kernel().MkFileAt("/tmp/data", "x", 0666, 0, 0, "tmp_t");
  RunTrue([](Proc& p) {  // root/unlabeled subject: SYSHIGH
    EXPECT_EQ(p.Open("/tmp/data", sim::kORdOnly), sim::SysError(sim::Err::kAcces));
  });
  RunTrue(
      [](Proc& p) {  // user_t subject: not SYSHIGH, rule does not apply
        EXPECT_GE(p.Open("/tmp/data", sim::kORdOnly), 0);
      },
      UserCred(sim::kMalloryUid));
}

TEST_F(EngineTest, AcceptShortCircuitsLaterDrops) {
  ASSERT_TRUE(pft_.Exec("pftables -o FILE_OPEN -d etc_t -j ACCEPT").ok());
  ASSERT_TRUE(pft_.Exec("pftables -o FILE_OPEN -d etc_t -j DROP").ok());
  RunTrue([](Proc& p) { EXPECT_GE(p.Open("/etc/passwd", sim::kORdOnly), 0); });
}

TEST_F(EngineTest, JumpAndReturn) {
  ASSERT_TRUE(pft_.Exec("pftables -N subchain").ok());
  ASSERT_TRUE(pft_.Exec("pftables -I input -o FILE_OPEN -j subchain").ok());
  ASSERT_TRUE(pft_.Exec("pftables -A subchain -d etc_t -j RETURN").ok());
  ASSERT_TRUE(pft_.Exec("pftables -A subchain -j DROP").ok());
  kernel().MkFileAt("/tmp/f", "x", 0666, 0, 0, "tmp_t");
  RunTrue([](Proc& p) {
    EXPECT_GE(p.Open("/etc/passwd", sim::kORdOnly), 0) << "RETURN path allows";
    EXPECT_EQ(p.Open("/tmp/f", sim::kORdOnly), sim::SysError(sim::Err::kAcces))
        << "fallthrough to DROP in subchain";
  });
}

TEST_F(EngineTest, StateRulesImplementCheckUseInvariant) {
  // T2 shape: record the inode at lstat (check), drop the open (use) if the
  // inode changed in between.
  ASSERT_TRUE(pft_.Exec("pftables -p /bin/true -i 0x111 -o FILE_GETATTR "
                        "-j STATE --set --key use --value C_INO")
                  .ok());
  ASSERT_TRUE(pft_.Exec("pftables -p /bin/true -i 0x222 -o FILE_OPEN "
                        "-m STATE --key use --cmp C_INO --nequal -j DROP")
                  .ok());
  kernel().MkFileAt("/tmp/target", "v1", 0666, sim::kMalloryUid, sim::kMalloryUid,
                    "tmp_t");

  Pid victim = sched().Spawn({.name = "victim", .exe = sim::kBinTrue}, [](Proc& p) {
    sim::StatBuf st;
    {
      UserFrame f(p, sim::kBinTrue, 0x111);
      ASSERT_EQ(p.Lstat("/tmp/target", &st), 0);  // check
    }
    p.Checkpoint("between");
    {
      UserFrame f(p, sim::kBinTrue, 0x222);
      int64_t fd = p.Open("/tmp/target", sim::kORdOnly);  // use
      p.Exit(fd >= 0 ? 0 : 1);
    }
  });
  ASSERT_TRUE(sched().RunUntilLabel(victim, "between"));
  Pid adversary =
      sched().Spawn({.name = "mallory", .cred = UserCred(sim::kMalloryUid)}, [](Proc& p) {
        ASSERT_EQ(p.Unlink("/tmp/target"), 0);
        ASSERT_EQ(p.Symlink("/etc/passwd", "/tmp/target"), 0);
      });
  sched().RunUntilExit(adversary);
  EXPECT_EQ(sched().RunUntilExit(victim), 1) << "swapped resource must be dropped";

  // Without a race, the same sequence succeeds.
  kernel().MkFileAt("/tmp/calm", "v1", 0666, 0, 0, "tmp_t");
  Pid happy = sched().Spawn({.name = "happy", .exe = sim::kBinTrue}, [](Proc& p) {
    sim::StatBuf st;
    {
      UserFrame f(p, sim::kBinTrue, 0x111);
      ASSERT_EQ(p.Lstat("/tmp/calm", &st), 0);
    }
    UserFrame f(p, sim::kBinTrue, 0x222);
    p.Exit(p.Open("/tmp/calm", sim::kORdOnly) >= 0 ? 0 : 1);
  });
  EXPECT_EQ(sched().RunUntilExit(happy), 0);
}

TEST_F(EngineTest, MaliciousStackForfeitsOnlyOwnProtection) {
  ASSERT_TRUE(
      pft_.Exec("pftables -p /bin/true -i 0xcafe -o FILE_OPEN -d shadow_t -j DROP").ok());
  RunTrue([](Proc& p) {
    UserFrame f(p, sim::kBinTrue, 0xcafe);
    p.task().mm.set_fp(0xdead);  // corrupt own stack
    EXPECT_GE(p.Open("/etc/shadow", sim::kORdOnly), 0)
        << "rule cannot match an unusable stack; only this process loses protection";
  });
  // A well-behaved process is still protected.
  RunTrue([](Proc& p) {
    UserFrame f(p, sim::kBinTrue, 0xcafe);
    EXPECT_EQ(p.Open("/etc/shadow", sim::kORdOnly), sim::SysError(sim::Err::kAcces));
  });
}

TEST_F(EngineTest, DisabledEngineAllowsEverything) {
  ASSERT_TRUE(pft_.Exec("pftables -o FILE_OPEN -d shadow_t -j DROP").ok());
  engine_->config().enabled = false;
  RunTrue([](Proc& p) { EXPECT_GE(p.Open("/etc/shadow", sim::kORdOnly), 0); });
  engine_->config().enabled = true;
  RunTrue([](Proc& p) {
    EXPECT_EQ(p.Open("/etc/shadow", sim::kORdOnly), sim::SysError(sim::Err::kAcces));
  });
}

TEST_F(EngineTest, ContextCacheReusesUnwindsWithinSyscall) {
  ASSERT_TRUE(pft_.Exec("pftables -p /bin/true -i 0x1 -o DIR_SEARCH -j CONTINUE").ok());
  engine_->ResetStats();
  RunTrue([](Proc& p) {
    UserFrame f(p, sim::kBinTrue, 0x1);
    // Deep path: one open triggers several DIR_SEARCH hook invocations.
    p.Open("/usr/lib/python2.7/os.py", sim::kORdOnly);
  });
  EXPECT_GT(engine_->stats().unwind_cache_hits, 0u)
      << "multiple resource requests in one syscall must reuse the unwind";
  EXPECT_LT(engine_->stats().unwinds, engine_->stats().unwind_cache_hits + 2)
      << "at most one real unwind for the single relevant syscall expected";
}

TEST_F(EngineTest, AllOptimizationConfigsAgreeOnVerdicts) {
  // The ablation configs of Table 6 must be semantically equivalent.
  const EngineConfig configs[] = {
      {.enabled = true, .lazy_context = false, .cache_context = false,
       .ept_chains = false},
      {.enabled = true, .lazy_context = false, .cache_context = true,
       .ept_chains = false},
      {.enabled = true, .lazy_context = true, .cache_context = true,
       .ept_chains = false},
      {.enabled = true, .lazy_context = true, .cache_context = true,
       .ept_chains = true},
      {.enabled = true, .lazy_context = true, .cache_context = true,
       .ept_chains = true, .compiled_eval = false},
  };
  ASSERT_TRUE(pft_.Exec("pftables -p /bin/true -i 0xcafe -o FILE_OPEN -d shadow_t "
                        "-j DROP")
                  .ok());
  ASSERT_TRUE(pft_.Exec("pftables -o FILE_OPEN -d tmp_t -j DROP").ok());
  kernel().MkFileAt("/tmp/t", "x", 0666, 0, 0, "tmp_t");
  for (const EngineConfig& cfg : configs) {
    engine_->config() = cfg;
    RunTrue([&](Proc& p) {
      {
        UserFrame f(p, sim::kBinTrue, 0xcafe);
        EXPECT_EQ(p.Open("/etc/shadow", sim::kORdOnly), sim::SysError(sim::Err::kAcces));
      }
      EXPECT_GE(p.Open("/etc/shadow", sim::kORdOnly), 0);
      EXPECT_EQ(p.Open("/tmp/t", sim::kORdOnly), sim::SysError(sim::Err::kAcces));
      EXPECT_GE(p.Open("/etc/passwd", sim::kORdOnly), 0);
    });
  }
}

TEST_F(EngineTest, EptChainsReduceRuleEvaluations) {
  // 200 entrypoint rules for other binaries; one matching access.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(pft_.Exec("pftables -p /bin/false -i 0x" + std::to_string(1000 + i) +
                          " -o FILE_OPEN -j DROP")
                    .ok());
  }
  auto measure = [&](bool ept) {
    engine_->config().ept_chains = ept;
    engine_->ResetStats();
    RunTrue([](Proc& p) {
      UserFrame f(p, sim::kBinTrue, 0x9999);
      p.Open("/etc/passwd", sim::kORdOnly);
    });
    return engine_->stats().rules_evaluated;
  };
  uint64_t linear = measure(false);
  uint64_t indexed = measure(true);
  // The per-op dispatch table already keeps non-FILE_OPEN hooks away from
  // these rules, so linear traversal evaluates exactly the 200-rule bucket
  // per matching hook (it was strictly more before op bucketing).
  EXPECT_GE(linear, 200u);
  EXPECT_LT(indexed, 10u) << "hash lookup must avoid scanning unrelated entrypoints";
}

TEST_F(EngineTest, StateDictSurvivesForkAndDiesWithTask) {
  ASSERT_TRUE(pft_.Exec("pftables -o SOCKET_BIND -j STATE --set --key k --value 7").ok());
  Pid pid = sched().Spawn({.exe = sim::kBinTrue}, [&](Proc& p) {
    int64_t fd = p.Socket();
    p.Bind(static_cast<int>(fd), "/tmp/s");
    // Child inherits the dictionary.
    int64_t child = p.Fork([&](Proc& c) {
      auto& state = engine_->TaskState(c.task());
      c.Exit(state.dict.count("k") == 1 && state.dict["k"] == 7 ? 0 : 1);
    });
    int status = -1;
    p.Waitpid(static_cast<Pid>(child), &status);
    p.Exit(status);
  });
  EXPECT_EQ(sched().RunUntilExit(pid), 0);
}

TEST_F(EngineTest, SignalRaceRulesBlockReentrantDelivery) {
  // Rules R9-R12 from Table 5, verbatim.
  ASSERT_TRUE(pft_.ExecAll({
                      "pftables -N signal_chain",
                      "pftables -I input -o PROCESS_SIGNAL_DELIVERY -j SIGNAL_CHAIN",
                      "pftables -I signal_chain -m SIGNAL_MATCH -m STATE --key 'sig' "
                      "--cmp 1 -j DROP",
                      "pftables -I signal_chain 2 -m SIGNAL_MATCH -j STATE --set "
                      "--key 'sig' --value 1",
                      "pftables -I syscallbegin -m SYSCALL_ARGS --arg 0 --equal "
                      "NR_sigreturn -j STATE --set --key 'sig' --value 0",
                  })
                  .ok());
  int depth = 0;
  int max_depth = 0;
  int handled = 0;
  Pid victim = sched().Spawn({.name = "victim", .exe = sim::kBinTrue}, [&](Proc& p) {
    p.Sigaction(sim::kSigUsr1, [&](sim::SigNum) {
      ++depth;
      ++handled;
      max_depth = std::max(max_depth, depth);
      p.Checkpoint("in-handler");
      p.Null();
      --depth;
    });
    p.Checkpoint("armed");
    p.Null();
    p.Checkpoint("first-done");
    p.Null();  // delivery point for a later (legal) signal
    p.Checkpoint("done");
  });
  ASSERT_TRUE(sched().RunUntilLabel(victim, "armed"));
  Pid a1 = sched().Spawn({}, [&](Proc& p) { p.Kill(victim, sim::kSigUsr1); });
  sched().RunUntilExit(a1);
  ASSERT_TRUE(sched().RunUntilLabel(victim, "in-handler"));
  Pid a2 = sched().Spawn({}, [&](Proc& p) { p.Kill(victim, sim::kSigUsr1); });
  sched().RunUntilExit(a2);
  ASSERT_TRUE(sched().RunUntilLabel(victim, "first-done"));
  EXPECT_EQ(max_depth, 1) << "re-entrant delivery must be dropped by R10";
  EXPECT_EQ(handled, 1);

  // After sigreturn resets the state, a fresh signal is delivered again.
  Pid a3 = sched().Spawn({}, [&](Proc& p) { p.Kill(victim, sim::kSigUsr1); });
  sched().RunUntilExit(a3);
  ASSERT_TRUE(sched().RunUntilLabel(victim, "done"));
  EXPECT_EQ(handled, 2) << "non-racing signals must still be delivered";
  sched().RunUntilExit(victim);
}

TEST_F(EngineTest, LogTargetRecordsAccesses) {
  ASSERT_TRUE(pft_.Exec("pftables -o FILE_OPEN -j LOG --prefix audit").ok());
  RunTrue([](Proc& p) {
    UserFrame f(p, sim::kBinTrue, 0x777);
    p.Open("/etc/passwd", sim::kORdOnly);
  });
  ASSERT_GE(engine_->log().size(), 1u);
  const LogRecord& rec = engine_->log().records().back();
  EXPECT_EQ(rec.object_label, "etc_t");
  EXPECT_EQ(rec.prefix, "audit");
  EXPECT_TRUE(rec.entry_valid);
  EXPECT_EQ(rec.program, sim::kBinTrue);
  EXPECT_EQ(rec.entrypoint, 0x777u);
  EXPECT_NE(rec.ToJson().find("\"object\":\"etc_t\""), std::string::npos);
}

TEST_F(EngineTest, InoDefaultMatch) {
  auto shadow = kernel().LookupNoHooks("/etc/shadow");
  ASSERT_TRUE(pft_.Exec("pftables -o FILE_OPEN --ino " + std::to_string(shadow->ino) +
                        " -j DROP")
                  .ok());
  RunTrue([](Proc& p) {
    EXPECT_EQ(p.Open("/etc/shadow", sim::kORdOnly), sim::SysError(sim::Err::kAcces));
    EXPECT_GE(p.Open("/etc/passwd", sim::kORdOnly), 0);
  });
}

}  // namespace
}  // namespace pf::core
