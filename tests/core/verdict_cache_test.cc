// Decision freshness: no decision may reuse a verdict that an event since
// has made stale.
//
// The engine memoizes no verdicts (DESIGN.md "Why there is no verdict
// cache"): every decision evaluates the published program. These tests were
// written against the AVC-style verdict cache the engine used to carry and
// stay as regression tests for any memo a future change adds:
//
//  * every event that could change a verdict — ruleset commit, MAC policy
//    mutation, inode recycling (generation bump), execve, a STATE dictionary
//    flush — is visible to the very next decision;
//  * side-effecting rules (STATE, LOG) fire on every decision, not once;
//  * a seeded 10k-op workload with live commits, MAC mutation, an execve and
//    inode recycling produces bit-identical verdicts with the per-syscall
//    context cache on and off.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "src/apps/programs.h"
#include "src/core/engine.h"
#include "src/core/pftables.h"
#include "src/sim/sysimage.h"

namespace pf::core {
namespace {

// A kernel + engine + one raw task mapped to /bin/true with a single stack
// frame at image offset 0x100 (so "-p /bin/true -i 0x100" rules match).
struct Rig {
  sim::Kernel kernel{0x5eed};
  Engine* engine = nullptr;
  sim::Task task;
  std::vector<std::shared_ptr<sim::Inode>> pins;  // keep request inodes alive

  explicit Rig(const EngineConfig& cfg = {}) {
    sim::BuildSysImage(kernel);
    apps::InstallPrograms(kernel);
    engine = InstallProcessFirewall(kernel, cfg);
    task.pid = 100;
    task.syscall_depth = 1;  // each request runs inside a system call
    task.comm = "fresh";
    task.exe = sim::kBinTrue;
    task.cred.sid = kernel.labels().Intern("staff_t");
    task.cwd = kernel.vfs().root()->id();
    task.mm.Reset(kernel.AslrStackBase());
    kernel.MapImage(task, kernel.LookupNoHooks(sim::kBinTrue), sim::kBinTrue);
    const sim::Mapping* map = task.mm.FindMappingByPath(sim::kBinTrue);
    task.mm.PushFrame(map->base + 0x100, 16, false);
  }

  Status Install(const std::vector<std::string>& rules) {
    Pftables pft(engine);
    return pft.ExecAll(rules);
  }

  sim::AccessRequest Request(sim::Op op, const char* path, sim::SyscallNr nr) {
    auto inode = kernel.LookupNoHooks(path);
    sim::AccessRequest req;
    req.task = &task;
    req.op = op;
    req.inode = inode.get();
    req.id = inode->id();
    req.syscall_nr = nr;
    pins.push_back(std::move(inode));
    return req;
  }

  // Authorizes `path` for FILE_OPEN as a fresh syscall.
  int64_t Open(const char* path) {
    ++task.syscall_count;
    sim::AccessRequest req = Request(sim::Op::kFileOpen, path, sim::SyscallNr::kOpen);
    return engine->Authorize(req);
  }

  int64_t Bind() {
    ++task.syscall_count;
    sim::AccessRequest req;
    req.task = &task;
    req.op = sim::Op::kSocketBind;
    req.name = "/tmp/sock";
    req.syscall_nr = sim::SyscallNr::kBind;
    return engine->Authorize(req);
  }

  int64_t Signal() {
    ++task.syscall_count;
    sim::AccessRequest req;
    req.task = &task;
    req.op = sim::Op::kSignalDeliver;
    req.sig = sim::kSigUsr1;
    req.sig_sender = 1;
    req.syscall_nr = sim::SyscallNr::kKill;
    return engine->Authorize(req);
  }

  // Per-rule hit counters in chain order.
  std::vector<uint64_t> RuleHits() {
    std::vector<uint64_t> out;
    for (const auto& [name, chain] : engine->ruleset().filter().chains()) {
      for (const auto& r : chain.rules()) {
        out.push_back(r->hits.load(std::memory_order_relaxed));
      }
    }
    return out;
  }
};

TEST(VerdictCacheTest, RulesetCommitInvalidates) {
  Rig rig;
  ASSERT_TRUE(rig.Install({"pftables -o FILE_OPEN -d shadow_t -j DROP"}).ok());
  EXPECT_EQ(rig.Open("/etc/passwd"), 0);
  EXPECT_EQ(rig.Open("/etc/passwd"), 0);

  // Committing a new ruleset publishes a new generation: the earlier allow
  // must not survive it.
  ASSERT_TRUE(rig.Install({"pftables -o FILE_OPEN -d etc_t -j DROP"}).ok());
  EXPECT_LT(rig.Open("/etc/passwd"), 0) << "stale allow served after commit";
}

TEST(VerdictCacheTest, MacPolicyMutationInvalidatesByEpoch) {
  Rig rig;
  ASSERT_TRUE(rig.Install({"pftables -o FILE_OPEN -d shadow_t -j DROP"}).ok());
  EXPECT_LT(rig.Open("/etc/shadow"), 0);
  EXPECT_LT(rig.Open("/etc/shadow"), 0);

  // A policy mutation unrelated to the rules moves the MAC epoch but must
  // leave the label drop in force.
  const uint64_t epoch = rig.kernel.policy().epoch();
  rig.kernel.policy().MarkUntrusted(rig.kernel.labels().Intern("rogue_t"));
  EXPECT_NE(rig.kernel.policy().epoch(), epoch);
  EXPECT_LT(rig.Open("/etc/shadow"), 0);
}

TEST(VerdictCacheTest, SyshighFlipsWithPolicyWithoutStaleHits) {
  Rig rig;
  // etc_t has no untrusted writer in the base image, so it is a SYSHIGH
  // object and writes are dropped — until the policy grants user_t (already
  // untrusted) write access, at which point etc_t leaves SYSHIGH.
  ASSERT_TRUE(rig.Install({"pftables -o FILE_WRITE -d SYSHIGH -j DROP"}).ok());
  auto write = [&] {
    ++rig.task.syscall_count;
    sim::AccessRequest req =
        rig.Request(sim::Op::kFileWrite, "/etc/passwd", sim::SyscallNr::kWrite);
    return rig.engine->Authorize(req);
  };
  EXPECT_LT(write(), 0);
  EXPECT_LT(write(), 0);
  rig.kernel.policy().Allow("user_t", "etc_t", sim::kMacWrite);
  EXPECT_EQ(write(), 0) << "SYSHIGH membership changed; the earlier drop is stale";
}

TEST(VerdictCacheTest, InodeGenerationChangeMisses) {
  Rig rig;
  auto tmp = rig.kernel.MkFileAt("/tmp/t", "x", 0666, 0, 0, "tmp_t");
  ASSERT_NE(tmp, nullptr);
  uint64_t gen0 = tmp->generation;
  char rule[128];
  std::snprintf(rule, sizeof(rule),
                "pftables -o FILE_OPEN -d tmp_t -m COMPARE --v1 C_GEN --v2 %llu "
                "-j DROP",
                static_cast<unsigned long long>(gen0));
  ASSERT_TRUE(rig.Install({rule}).ok());

  EXPECT_LT(rig.Open("/tmp/t"), 0);
  EXPECT_LT(rig.Open("/tmp/t"), 0);

  // Simulated recycling: same FileId, new generation. The earlier drop must
  // not be served for the recycled inode.
  ++tmp->generation;
  EXPECT_EQ(rig.Open("/tmp/t"), 0) << "generation moved; COMPARE must re-run";
}

TEST(VerdictCacheTest, ExecCannotReuseEntrypointVerdicts) {
  Rig rig;
  ASSERT_TRUE(
      rig.Install({"pftables -p /bin/true -i 0x100 -o FILE_OPEN -d etc_t -j DROP"})
          .ok());
  EXPECT_LT(rig.Open("/etc/passwd"), 0);
  EXPECT_LT(rig.Open("/etc/passwd"), 0);

  // Exec into a different image with the same image-relative entrypoint
  // offset. Rules match (image, offset), not just the offset, so the drop
  // for /bin/true's entrypoint does not leak to /bin/sh's.
  rig.engine->OnTaskExec(rig.task);
  rig.task.exe = sim::kBinSh;
  rig.task.mm.Reset(rig.kernel.AslrStackBase());
  rig.kernel.MapImage(rig.task, rig.kernel.LookupNoHooks(sim::kBinSh), sim::kBinSh);
  const sim::Mapping* map = rig.task.mm.FindMappingByPath(sim::kBinSh);
  ASSERT_NE(map, nullptr);
  rig.task.mm.PushFrame(map->base + 0x100, 16, false);

  EXPECT_EQ(rig.Open("/etc/passwd"), 0)
      << "the rule names /bin/true; /bin/sh at the same offset must not hit it";
}

// LOG and STATE rules have side effects a memoized verdict would skip: both
// must fire on every decision.
TEST(VerdictCacheTest, UnlowerableChainsBypassTheCache) {
  Rig rig;
  auto tmp = rig.kernel.MkFileAt("/tmp/t", "x", 0666, 0, 0, "tmp_t");
  ASSERT_NE(tmp, nullptr);
  ASSERT_TRUE(rig.Install({
                     "pftables -o FILE_OPEN -d tmp_t -j STATE --set --key seen "
                     "--value 1",
                     "pftables -o FILE_OPEN -d tmp_t -j LOG --prefix vc",
                 })
                  .ok());
  rig.engine->ResetStats();

  constexpr int kReps = 16;
  for (int i = 0; i < kReps; ++i) {
    EXPECT_EQ(rig.Open("/tmp/t"), 0);
  }
  EXPECT_EQ(rig.engine->stats().rules_evaluated, static_cast<uint64_t>(2 * kReps));
  // Side effects fired on every repetition, not just the first.
  EXPECT_EQ(rig.engine->log().size(), static_cast<size_t>(kReps));
  EXPECT_EQ(rig.engine->TaskState(rig.task).dict.at("seen"), 1);
}

// ---------------------------------------------------------------------------
// STATE: the dictionary is a verdict input like any other, and it lives
// across commits and execve.

constexpr const char* kBindSetsB =
    "pftables -o SOCKET_BIND -j STATE --set --key b --value 1";
constexpr const char* kSignalChecksB =
    "pftables -o PROCESS_SIGNAL_DELIVERY -m STATE --key b --cmp 1 -j DROP";

// The STATE rules form a two-state protocol over key b. A bind advances it,
// and every decision applies its effects (hit counters, dictionary writes)
// afresh rather than once.
TEST(VerdictCacheTest, StatefulHitAdvancesTheAutomatonAndReplaysEffects) {
  Rig rig;
  ASSERT_TRUE(rig.Install({kBindSetsB, kSignalChecksB}).ok());

  // b is absent: signals pass.
  EXPECT_EQ(rig.Signal(), 0);
  EXPECT_EQ(rig.Signal(), 0);

  // The bind stores b=1, which advances the protocol: the same signal that
  // passed above must now drop.
  EXPECT_EQ(rig.Bind(), 0);
  EXPECT_EQ(rig.engine->TaskState(rig.task).dict.at("b"), 1);
  EXPECT_LT(rig.Signal(), 0) << "stale allow served after the protocol advanced";
  EXPECT_LT(rig.Signal(), 0);

  // A repeated bind bumps exactly the bind rule's hit counter and writes b=1
  // again.
  std::vector<uint64_t> before = rig.RuleHits();
  EXPECT_EQ(rig.Bind(), 0);
  std::vector<uint64_t> after = rig.RuleHits();
  ASSERT_EQ(before.size(), after.size());
  uint64_t bumped = 0;
  for (size_t i = 0; i < before.size(); ++i) {
    bumped += after[i] - before[i];
  }
  EXPECT_EQ(bumped, 1u) << "a bind must bump exactly one rule counter";
  EXPECT_EQ(rig.engine->TaskState(rig.task).dict.at("b"), 1);
}

TEST(VerdictCacheTest, StatefulEntriesInvalidateOnCommit) {
  Rig rig;
  ASSERT_TRUE(rig.Install({kBindSetsB, kSignalChecksB}).ok());
  EXPECT_EQ(rig.Signal(), 0) << "b is absent until the bind";
  EXPECT_EQ(rig.Bind(), 0);
  EXPECT_LT(rig.Signal(), 0);
  EXPECT_LT(rig.Signal(), 0);

  // An unrelated commit publishes a new generation; the dictionary, and so
  // the verdict, must carry over.
  ASSERT_TRUE(rig.Install({"pftables -o FILE_OPEN -d shadow_t -j DROP"}).ok());
  EXPECT_LT(rig.Signal(), 0) << "STATE dictionaries survive commits";
  EXPECT_EQ(rig.engine->TaskState(rig.task).dict.at("b"), 1);
}

TEST(VerdictCacheTest, StatefulEntriesInvalidateOnExec) {
  Rig rig;
  ASSERT_TRUE(rig.Install({
                     kBindSetsB,
                     "pftables -p /bin/true -i 0x100 -o FILE_OPEN -d etc_t "
                     "-m STATE --key b --cmp 1 -j DROP",
                 })
                  .ok());
  EXPECT_EQ(rig.Bind(), 0);
  EXPECT_LT(rig.Open("/etc/passwd"), 0);  // entrypoint + b=1: drop
  EXPECT_LT(rig.Open("/etc/passwd"), 0);

  // Exec into /bin/sh at the same image-relative offset. The entrypoint rule
  // no longer applies, so the stateful drop for /bin/true's entrypoint must
  // not leak across the exec.
  rig.engine->OnTaskExec(rig.task);
  rig.task.exe = sim::kBinSh;
  rig.task.mm.Reset(rig.kernel.AslrStackBase());
  rig.kernel.MapImage(rig.task, rig.kernel.LookupNoHooks(sim::kBinSh), sim::kBinSh);
  const sim::Mapping* map = rig.task.mm.FindMappingByPath(sim::kBinSh);
  ASSERT_NE(map, nullptr);
  rig.task.mm.PushFrame(map->base + 0x100, 16, false);

  EXPECT_EQ(rig.Open("/etc/passwd"), 0)
      << "stateful drop for /bin/true's entrypoint served after exec";
  EXPECT_EQ(rig.engine->TaskState(rig.task).dict.at("b"), 1)
      << "execve keeps the STATE dictionary";
}

TEST(VerdictCacheTest, StatefulEntriesInvalidateOnExternalStateFlush) {
  Rig rig;
  ASSERT_TRUE(rig.Install({kBindSetsB, kSignalChecksB}).ok());
  EXPECT_EQ(rig.Bind(), 0);
  EXPECT_LT(rig.Signal(), 0);
  EXPECT_LT(rig.Signal(), 0);

  // Flush the task's dictionary out from under the engine (as pftables
  // --state-flush or a state save/restore would): b is absent again, so the
  // next signal must pass.
  {
    PfTaskState& st = rig.engine->TaskState(rig.task);
    std::lock_guard<std::mutex> lock(st.mu);
    st.dict.erase("b");
  }
  EXPECT_EQ(rig.Signal(), 0) << "drop served after the state flush";
  EXPECT_EQ(rig.Signal(), 0);
  // A later bind re-arms the protocol.
  EXPECT_EQ(rig.Bind(), 0);
  EXPECT_LT(rig.Signal(), 0);
}

// ---------------------------------------------------------------------------
// Live-event equivalence: a seeded workload interleaved with a ruleset
// commit, a MAC policy mutation, an execve and an inode recycling must be
// bit-identical with the per-syscall context cache on and off.

constexpr int kLiveOps = 10000;
constexpr int kLiveTasks = 3;

struct LiveWorkload {
  sim::Kernel kernel{0x5eed};
  Engine* engine = nullptr;
  std::vector<std::unique_ptr<sim::Task>> tasks;
  std::vector<std::shared_ptr<sim::Inode>> pins;
  std::shared_ptr<sim::Inode> tmp;

  explicit LiveWorkload(const EngineConfig& cfg) {
    sim::BuildSysImage(kernel);
    apps::InstallPrograms(kernel);
    engine = InstallProcessFirewall(kernel, cfg);
    tmp = kernel.MkFileAt("/tmp/t", "x", 0666, 0, 0, "tmp_t");
    char gen_rule[128];
    std::snprintf(gen_rule, sizeof(gen_rule),
                  "pftables -o FILE_OPEN -d tmp_t -m COMPARE --v1 C_GEN --v2 %llu "
                  "-j DROP",
                  static_cast<unsigned long long>(tmp->generation));
    Pftables pft(engine);
    Status s = pft.ExecAll({
        "pftables -o FILE_OPEN -d shadow_t -j DROP",
        "pftables -o FILE_WRITE -d SYSHIGH -j DROP",
        "pftables -o SOCKET_BIND -j STATE --set --key b --value 1",
        "pftables -o PROCESS_SIGNAL_DELIVERY -m STATE --key b --cmp 1 -j DROP",
        gen_rule,
        "pftables -p /bin/true -i 0x100 -o FILE_OPEN -d etc_t -j DROP",
    });
    if (!s.ok()) {
      ADD_FAILURE() << "rule install failed: " << s.message();
    }
    for (int i = 0; i < kLiveTasks; ++i) {
      auto task = std::make_unique<sim::Task>();
      task->pid = static_cast<sim::Pid>(100 + i);
      task->syscall_depth = 1;  // every request runs inside a system call
      task->comm = "live";
      task->exe = sim::kBinTrue;
      task->cred.sid = kernel.labels().Intern("staff_t");
      task->cwd = kernel.vfs().root()->id();
      task->mm.Reset(kernel.AslrStackBase());
      kernel.MapImage(*task, kernel.LookupNoHooks(sim::kBinTrue), sim::kBinTrue);
      const sim::Mapping* map = task->mm.FindMappingByPath(sim::kBinTrue);
      task->mm.PushFrame(map->base + 0x100, 16, false);
      tasks.push_back(std::move(task));
    }
  }

  // Every live event starts a fresh syscall on all tasks so the per-syscall
  // context cache cannot straddle the event (identically in both configs).
  void SyscallBarrier() {
    for (auto& t : tasks) {
      ++t->syscall_count;
    }
  }

  void ApplyEvent(int index) {
    switch (index) {
      case 2500: {  // live commit: binds become drops
        Pftables pft(engine);
        Status s = pft.ExecAll({"pftables -o SOCKET_BIND -j DROP"});
        if (!s.ok()) {
          ADD_FAILURE() << "live commit failed: " << s.message();
        }
        break;
      }
      case 5000:  // MAC mutation: etc_t leaves SYSHIGH, writes flip to allow
        kernel.policy().Allow("user_t", "etc_t", sim::kMacWrite);
        break;
      case 6000: {  // execve: task 0 moves to /bin/sh, entrypoint rule unhooks
        sim::Task& t = *tasks[0];
        engine->OnTaskExec(t);
        t.exe = sim::kBinSh;
        t.mm.Reset(kernel.AslrStackBase());
        kernel.MapImage(t, kernel.LookupNoHooks(sim::kBinSh), sim::kBinSh);
        const sim::Mapping* map = t.mm.FindMappingByPath(sim::kBinSh);
        ASSERT_NE(map, nullptr);
        t.mm.PushFrame(map->base + 0x100, 16, false);
        break;
      }
      case 7000:  // inode recycling: the C_GEN rule stops matching /tmp/t
        ++tmp->generation;
        break;
      default:
        return;
    }
    SyscallBarrier();
  }

  sim::AccessRequest OpenRequest(sim::Task& task, const char* path) {
    auto inode = kernel.LookupNoHooks(path);
    sim::AccessRequest req;
    req.task = &task;
    req.op = sim::Op::kFileOpen;
    req.inode = inode.get();
    req.id = inode->id();
    req.syscall_nr = sim::SyscallNr::kOpen;
    pins.push_back(std::move(inode));
    return req;
  }
};

std::vector<int64_t> ReplayLive(bool cache_context, EngineStats* stats_out,
                                std::vector<std::map<std::string, int64_t>>* dicts) {
  EngineConfig cfg;
  cfg.cache_context = cache_context;
  LiveWorkload w(cfg);
  std::vector<int64_t> verdicts;
  verdicts.reserve(kLiveOps);
  std::mt19937_64 rng(0xcac4e5eedull);
  const char* paths[] = {"/etc/passwd", "/etc/shadow", "/tmp/t"};
  for (int i = 0; i < kLiveOps; ++i) {
    w.ApplyEvent(i);
    sim::Task& task = *w.tasks[rng() % kLiveTasks];
    if (rng() % 4 != 0) {
      ++task.syscall_count;
    }
    sim::AccessRequest req;
    switch (rng() % 8) {
      case 0:
      case 1:
      case 2:
      case 3:
        req = w.OpenRequest(task, paths[rng() % 3]);
        break;
      case 4: {
        req = w.OpenRequest(task, "/etc/passwd");
        req.op = sim::Op::kFileWrite;
        req.syscall_nr = sim::SyscallNr::kWrite;
        break;
      }
      case 5: {
        req.task = &task;
        req.op = sim::Op::kSocketBind;
        req.name = "/tmp/sock";
        req.syscall_nr = sim::SyscallNr::kBind;
        break;
      }
      case 6: {
        req.task = &task;
        req.op = sim::Op::kSignalDeliver;
        req.sig = sim::kSigUsr1;
        req.sig_sender = 1;
        req.syscall_nr = sim::SyscallNr::kKill;
        break;
      }
      default: {
        req.task = &task;
        req.op = sim::Op::kSyscallBegin;
        req.syscall_nr = sim::SyscallNr::kNull;
        break;
      }
    }
    verdicts.push_back(w.engine->Authorize(req));
  }
  if (stats_out != nullptr) {
    *stats_out = w.engine->stats();
  }
  if (dicts != nullptr) {
    dicts->clear();
    for (auto& task : w.tasks) {
      dicts->push_back(w.engine->TaskState(*task).dict);
    }
  }
  return verdicts;
}

TEST(VerdictCacheTest, LiveWorkloadIsBitIdenticalWithCacheOnAndOff) {
  EngineStats base_stats;
  std::vector<std::map<std::string, int64_t>> base_dicts;
  std::vector<int64_t> base = ReplayLive(false, &base_stats, &base_dicts);
  ASSERT_EQ(base.size(), static_cast<size_t>(kLiveOps));
  size_t denies = 0;
  for (int64_t v : base) {
    denies += v < 0;
  }
  EXPECT_GT(denies, 100u) << "workload produced too few denials to be meaningful";
  EXPECT_LT(denies, static_cast<size_t>(kLiveOps)) << "workload must also allow";

  EngineStats cached_stats;
  std::vector<std::map<std::string, int64_t>> cached_dicts;
  std::vector<int64_t> cached = ReplayLive(true, &cached_stats, &cached_dicts);
  ASSERT_EQ(cached.size(), base.size());
  for (size_t i = 0; i < base.size(); ++i) {
    ASSERT_EQ(cached[i], base[i]) << "cache-on diverged from cache-off at op " << i;
  }
  EXPECT_EQ(cached_dicts, base_dicts) << "final STATE dicts differ";

  // The context cache must actually be load-bearing on this workload: a
  // quarter of the requests reuse their task's syscall window, and the
  // entrypoint rule unwinds on every FILE_OPEN.
  EXPECT_EQ(base_stats.unwind_cache_hits, 0u);
  EXPECT_GT(cached_stats.unwind_cache_hits, 100u);
  EXPECT_LT(cached_stats.unwinds, base_stats.unwinds);
}

}  // namespace
}  // namespace pf::core
