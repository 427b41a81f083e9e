// Concurrent hook evaluation: worker threads hammer Engine::Authorize() on
// disjoint and shared tasks while a writer thread commits rule reloads.
// Verdicts must be exactly what a serial replay produces, no drop may be
// lost, and the aggregated per-worker statistics must account for every
// invocation (no torn counters).
//
// These tests drive the engine module interface directly (the simulated
// syscall layer above it is single-threaded by design); this mirrors how
// the in-kernel PF hooks run concurrently on real CPUs beneath a serial
// system-call ABI.

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/apps/programs.h"
#include "src/audit/hub.h"
#include "src/core/engine.h"
#include "src/core/pftables.h"
#include "src/sim/sysimage.h"
#include "src/trace/hub.h"

namespace pf::core {
namespace {

constexpr int kThreads = 8;
constexpr int kItersPerThread = 2000;
constexpr int kReloads = 150;

// A booted kernel with the PF installed and a deny-shadow rule base large
// enough that the entrypoint index is actually in play.
struct Rig {
  sim::Kernel kernel{0x5eed};
  Engine* engine = nullptr;
  std::unique_ptr<Pftables> pft;

  Rig() {
    sim::BuildSysImage(kernel);
    apps::InstallPrograms(kernel);
    engine = InstallProcessFirewall(kernel);
    pft = std::make_unique<Pftables>(engine);
    std::vector<std::string> rules = {
        "pftables -o FILE_OPEN -d shadow_t -j DROP",
        "pftables -N scratch",
    };
    for (int i = 0; i < 64; ++i) {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "pftables -p /bin/false -i 0x%x -o FILE_OPEN -j DROP",
                    0x20000 + i * 0x40);
      rules.emplace_back(buf);
    }
    Status s = pft->ExecAll(rules);
    if (!s.ok()) {
      ADD_FAILURE() << "rule install failed: " << s.message();
    }
  }

  std::unique_ptr<sim::Task> MakeTask(int idx) {
    auto task = std::make_unique<sim::Task>();
    task->pid = static_cast<sim::Pid>(1000 + idx);
    task->syscall_depth = 1;  // every request runs inside a system call
    task->comm = "hammer";
    task->exe = sim::kBinTrue;
    task->cred.sid = kernel.labels().Intern("staff_t");
    task->cwd = kernel.vfs().root()->id();
    task->mm.Reset(kernel.AslrStackBase());
    kernel.MapImage(*task, kernel.LookupNoHooks(sim::kBinTrue), sim::kBinTrue);
    const sim::Mapping* map = task->mm.FindMappingByPath(sim::kBinTrue);
    for (int f = 0; f <= idx % 3; ++f) {
      task->mm.PushFrame(map->base + 0x100 * static_cast<uint64_t>(f + 1), 16, false);
    }
    return task;
  }

  sim::AccessRequest OpenRequest(sim::Task& task, sim::Inode* inode) {
    sim::AccessRequest req;
    req.task = &task;
    req.op = sim::Op::kFileOpen;
    req.inode = inode;
    req.id = inode->id();
    req.syscall_nr = sim::SyscallNr::kOpen;
    return req;
  }
};

// The per-thread workload: alternate a denied open (/etc/shadow) with an
// allowed one (/etc/passwd), one syscall per iteration. Returns the verdict
// sequence so callers can diff it against a serial replay.
std::vector<int64_t> Hammer(Rig& rig, sim::Task& task, sim::Inode* shadow,
                            sim::Inode* passwd, int iters, bool bump_syscall) {
  std::vector<int64_t> verdicts;
  verdicts.reserve(static_cast<size_t>(iters));
  sim::AccessRequest deny = rig.OpenRequest(task, shadow);
  sim::AccessRequest allow = rig.OpenRequest(task, passwd);
  for (int i = 0; i < iters; ++i) {
    if (bump_syscall) {
      ++task.syscall_count;
    }
    verdicts.push_back(rig.engine->Authorize(i % 2 == 0 ? deny : allow));
  }
  return verdicts;
}

TEST(ConcurrentEngineTest, DisjointTasksUnderRuleReloadLoseNoDrops) {
  Rig rig;
  auto shadow = rig.kernel.LookupNoHooks("/etc/shadow");
  auto passwd = rig.kernel.LookupNoHooks("/etc/passwd");
  std::vector<std::unique_ptr<sim::Task>> tasks;
  for (int i = 0; i < kThreads; ++i) {
    tasks.push_back(rig.MakeTask(i));
  }
  rig.engine->ResetStats();
  uint64_t gen_before = rig.engine->ruleset_generation();

  std::vector<std::vector<int64_t>> verdicts(kThreads);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    // Mutate an unreferenced chain so every commit publishes a new ruleset
    // generation without changing any verdict.
    for (int i = 0; i < kReloads && !stop.load(); ++i) {
      ASSERT_TRUE(
          rig.pft->Exec("pftables -A scratch -o FILE_OPEN -j ACCEPT").ok());
      ASSERT_TRUE(rig.pft->Exec("pftables -F scratch").ok());
    }
  });
  {
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        verdicts[t] = Hammer(rig, *tasks[t], shadow.get(), passwd.get(),
                             kItersPerThread, /*bump_syscall=*/true);
      });
    }
    for (auto& w : workers) {
      w.join();
    }
  }
  stop.store(true);
  writer.join();

  // Every verdict is what the rule base dictates: no lost drops, no spurious
  // ones, regardless of how reloads interleaved.
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(verdicts[t].size(), static_cast<size_t>(kItersPerThread));
    for (int i = 0; i < kItersPerThread; ++i) {
      int64_t want = i % 2 == 0 ? sim::SysError(sim::Err::kAcces) : 0;
      ASSERT_EQ(verdicts[t][i], want) << "thread " << t << " op " << i;
    }
  }

  // Aggregated per-worker stats account for every invocation exactly.
  EngineStats stats = rig.engine->stats();
  uint64_t total = static_cast<uint64_t>(kThreads) * kItersPerThread;
  EXPECT_EQ(stats.invocations, total);
  EXPECT_EQ(stats.drops, total / 2);
  EXPECT_GT(rig.engine->ruleset_generation(), gen_before)
      << "the writer must have published reloads while workers ran";
}

TEST(ConcurrentEngineTest, SharedTaskVerdictsStayConsistent) {
  Rig rig;
  auto shadow = rig.kernel.LookupNoHooks("/etc/shadow");
  auto passwd = rig.kernel.LookupNoHooks("/etc/passwd");
  auto task = rig.MakeTask(0);
  ++task->syscall_count;  // one fixed syscall window shared by all threads
  rig.engine->ResetStats();

  std::vector<std::vector<int64_t>> verdicts(kThreads);
  {
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        verdicts[t] = Hammer(rig, *task, shadow.get(), passwd.get(),
                             kItersPerThread, /*bump_syscall=*/false);
      });
    }
    for (auto& w : workers) {
      w.join();
    }
  }

  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kItersPerThread; ++i) {
      int64_t want = i % 2 == 0 ? sim::SysError(sim::Err::kAcces) : 0;
      ASSERT_EQ(verdicts[t][i], want) << "thread " << t << " op " << i;
    }
  }
  EngineStats stats = rig.engine->stats();
  uint64_t total = static_cast<uint64_t>(kThreads) * kItersPerThread;
  EXPECT_EQ(stats.invocations, total);
  EXPECT_EQ(stats.drops, total / 2);
  // The shared task's state sits in its own slot, owned by the task alone.
  EXPECT_EQ(task->security[rig.engine->slot()].use_count(), 1);
}

TEST(ConcurrentEngineTest, ConcurrentRunMatchesSerialReplay) {
  std::vector<std::vector<int64_t>> concurrent(kThreads);
  {
    Rig rig;
    auto shadow = rig.kernel.LookupNoHooks("/etc/shadow");
    auto passwd = rig.kernel.LookupNoHooks("/etc/passwd");
    std::vector<std::unique_ptr<sim::Task>> tasks;
    for (int i = 0; i < kThreads; ++i) {
      tasks.push_back(rig.MakeTask(i));
    }
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        concurrent[t] = Hammer(rig, *tasks[t], shadow.get(), passwd.get(),
                               kItersPerThread, /*bump_syscall=*/true);
      });
    }
    for (auto& w : workers) {
      w.join();
    }
  }
  // Serial replay on a fresh rig: per-task sequences are independent, so the
  // concurrent verdict stream of each task must match its serial twin.
  Rig rig;
  auto shadow = rig.kernel.LookupNoHooks("/etc/shadow");
  auto passwd = rig.kernel.LookupNoHooks("/etc/passwd");
  for (int t = 0; t < kThreads; ++t) {
    auto task = rig.MakeTask(t);
    std::vector<int64_t> serial = Hammer(rig, *task, shadow.get(), passwd.get(),
                                         kItersPerThread, /*bump_syscall=*/true);
    EXPECT_EQ(concurrent[t], serial) << "thread " << t;
  }
}

TEST(ConcurrentEngineTest, VerdictCacheConsistentUnderCommitAndPolicyChurn) {
  // Decisions under the worst publication churn we can produce: one thread
  // commits rule reloads (generation bumps), another mutates the MAC policy
  // (epoch bumps). Both kinds of churn only touch an unreferenced chain /
  // unreferenced labels, so every verdict stays exactly what the rule base
  // dictates — a stale or torn snapshot (or any verdict memo a future change
  // adds) shows up as a wrong verdict.
  Rig rig;
  auto shadow = rig.kernel.LookupNoHooks("/etc/shadow");
  auto passwd = rig.kernel.LookupNoHooks("/etc/passwd");
  std::vector<std::unique_ptr<sim::Task>> tasks;
  for (int i = 0; i < kThreads; ++i) {
    tasks.push_back(rig.MakeTask(i));
  }
  rig.engine->ResetStats();

  std::vector<std::vector<int64_t>> verdicts(kThreads);
  std::atomic<bool> stop{false};
  std::thread committer([&] {
    for (int i = 0; i < kReloads && !stop.load(); ++i) {
      ASSERT_TRUE(
          rig.pft->Exec("pftables -A scratch -o FILE_OPEN -j ACCEPT").ok());
      ASSERT_TRUE(rig.pft->Exec("pftables -F scratch").ok());
    }
  });
  std::thread policy_churn([&] {
    // rogue_t/rogue_obj_t appear in no rule and label no inode: the epoch
    // moves on every mutation, verdicts never do.
    sim::Sid rogue = rig.kernel.labels().Intern("rogue_t");
    sim::Sid rogue_obj = rig.kernel.labels().Intern("rogue_obj_t");
    while (!stop.load()) {
      rig.kernel.policy().Allow(rogue, rogue_obj, sim::kMacRead);
      rig.kernel.policy().MarkUntrusted(rogue);
    }
  });
  {
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        verdicts[t] = Hammer(rig, *tasks[t], shadow.get(), passwd.get(),
                             kItersPerThread, /*bump_syscall=*/true);
      });
    }
    for (auto& w : workers) {
      w.join();
    }
  }
  stop.store(true);
  committer.join();
  policy_churn.join();

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(verdicts[t].size(), static_cast<size_t>(kItersPerThread));
    for (int i = 0; i < kItersPerThread; ++i) {
      int64_t want = i % 2 == 0 ? sim::SysError(sim::Err::kAcces) : 0;
      ASSERT_EQ(verdicts[t][i], want) << "thread " << t << " op " << i;
    }
  }

  EngineStats stats = rig.engine->stats();
  uint64_t total = static_cast<uint64_t>(kThreads) * kItersPerThread;
  EXPECT_EQ(stats.invocations, total);
  EXPECT_EQ(stats.drops, total / 2);

  // Once the churn quiesces, decisions must still follow the rule base.
  sim::AccessRequest deny = rig.OpenRequest(*tasks[0], shadow.get());
  sim::AccessRequest allow = rig.OpenRequest(*tasks[0], passwd.get());
  for (int i = 0; i < 8; ++i) {
    ++tasks[0]->syscall_count;
    EXPECT_EQ(rig.engine->Authorize(deny), sim::SysError(sim::Err::kAcces));
    EXPECT_EQ(rig.engine->Authorize(allow), 0);
  }
}

TEST(ConcurrentEngineTest, StateDictSafeUnderSharedTaskWrites) {
  // STATE-setting rules from many threads against one task: the dictionary
  // must end in a consistent state (the mutex serializes writers) and the
  // engine must never crash or tear.
  Rig rig;
  ASSERT_TRUE(
      rig.pft->Exec("pftables -o SOCKET_BIND -j STATE --set --key b --value 1")
          .ok());
  auto task = rig.MakeTask(0);
  ++task->syscall_count;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      sim::AccessRequest req;
      req.task = task.get();
      req.op = sim::Op::kSocketBind;
      req.name = "/tmp/sock";
      req.syscall_nr = sim::SyscallNr::kBind;
      for (int i = 0; i < kItersPerThread; ++i) {
        rig.engine->Authorize(req);
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  PfTaskState& state = rig.engine->TaskState(*task);
  EXPECT_EQ(state.dict.at("b"), 1);
  EXPECT_EQ(state.dict.size(), 1u);
}

// Past kMaxWorkers live threads, the workers beyond the hubs' rings share
// each hub's overflow lane. With no consumer running meanwhile, every record
// a hub counts as pushed is drained afterwards or counted as a drop, on both
// hubs; a lane written by two producers at once loses records from that sum.
TEST(ConcurrentEngineTest, TraceAndAuditConservePastTheRingCount) {
  if (!trace::kTraceCompiledIn || !audit::kAuditCompiledIn) {
    GTEST_SKIP() << "tracing or audit compiled out";
  }
  constexpr size_t kLanes = trace::TraceHub::kMaxWorkers;
  constexpr int kLiveThreads = static_cast<int>(kLanes) + 8;
  constexpr int kDecisions = 1500;
  Rig rig;
  rig.engine->trace().Enable();
  audit::AuditHub::Config cfg;
  cfg.bucket_capacity = 0;  // no suppression: every denial is pushed
  rig.engine->audit().Enable(cfg);
  auto shadow = rig.kernel.LookupNoHooks("/etc/shadow");
  auto passwd = rig.kernel.LookupNoHooks("/etc/passwd");
  std::vector<std::unique_ptr<sim::Task>> tasks;
  for (int t = 0; t < kLiveThreads; ++t) {
    tasks.push_back(rig.MakeTask(t));
  }

  // Every thread leases its index before any decides, so all are live at
  // once and at least eight hold an index past the rings.
  std::barrier leased(kLiveThreads);
  std::atomic<size_t> max_index{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kLiveThreads; ++t) {
    threads.emplace_back([&, t] {
      const size_t mine = WorkerIndex();
      size_t seen = max_index.load();
      while (mine > seen && !max_index.compare_exchange_weak(seen, mine)) {
      }
      leased.arrive_and_wait();
      Hammer(rig, *tasks[t], shadow.get(), passwd.get(), kDecisions, true);
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  ASSERT_GE(max_index.load(), kLanes) << "no thread leased an index past the rings";

  trace::TraceHub& tr = rig.engine->trace();
  const uint64_t traced = tr.records();
  EXPECT_EQ(traced, rig.engine->stats().trace_records);
  const uint64_t trace_drained = tr.Drain().size();
  EXPECT_EQ(traced, trace_drained + tr.drops())
      << "drained " << trace_drained << ", dropped " << tr.drops();

  audit::AuditHub& au = rig.engine->audit();
  EXPECT_EQ(au.emitted(), uint64_t{kLiveThreads} * kDecisions / 2);
  EXPECT_EQ(au.emitted(), au.records() + au.suppressed());
  const uint64_t pushed = au.records();
  const uint64_t audit_drained = au.Drain().size();
  EXPECT_EQ(pushed, audit_drained + au.ring_drops())
      << "drained " << audit_drained << ", dropped " << au.ring_drops();
}

}  // namespace
}  // namespace pf::core
