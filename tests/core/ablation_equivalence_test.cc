// Ablation equivalence: the engine optimizations (context caching, lazy
// context, entrypoint chains, the compiled evaluator) are performance knobs,
// not semantics. All Table-6 configurations must produce byte-identical
// verdict sequences — and identical per-task STATE dictionaries — on a
// randomized workload of opens, binds, signal deliveries, and syscall
// entries.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "src/apps/programs.h"
#include "src/audit/hub.h"
#include "src/core/engine.h"
#include "src/core/pftables.h"
#include "src/sim/sysimage.h"

namespace pf::core {
namespace {

constexpr int kOps = 10000;
constexpr int kTasks = 3;
constexpr uint64_t kWorkloadSeed = 0xab1a7e5eedull;

EngineConfig MakeConfig(bool lazy, bool cache, bool ept, bool compiled = false,
                        bool threaded = true, bool verify = true, bool tuple = false) {
  EngineConfig cfg;
  cfg.lazy_context = lazy;
  cfg.cache_context = cache;
  cfg.ept_chains = ept;
  cfg.compiled_eval = compiled;
  cfg.threaded_eval = threaded;
  cfg.verify_programs = verify;
  cfg.tuple_dispatch = tuple;
  return cfg;
}

// The Table-6 ablation ladder (the lower rungs pin compiled_eval off so each
// rung isolates exactly one optimization). The
// SWITCHED rung runs the compiled evaluator through the portable switch
// loop and COMPILED through the threaded dispatcher, so the dispatch
// strategy itself is proven to be semantics-free. The VERIFY rung turns the
// load-time verifier off on the top configuration: for accepted programs
// the verifier must be a pure gate, changing nothing the evaluator does.
// The TRACE rung re-runs the top configuration with every tracepoint stream
// enabled: observability must be a pure observer — verdicts, STATE dicts,
// and the decision counters all stay byte-identical. The TUPLE rung turns
// the tuple-space classifier on above COMPILED: probing per-mask hash tables
// and k-way-merging candidate slices must pick exactly the rules a linear
// scan would. The AUDIT rung
// re-runs the top configuration with the security-event audit pipeline
// armed (suppression off, every kind enabled): like TRACE, audit must be a
// pure observer of verdicts, STATE dicts, and decision counters.
const struct {
  const char* name;
  EngineConfig cfg;
  bool traced = false;
  bool audited = false;
} kConfigs[] = {
    {"FULL", MakeConfig(false, false, false)},
    {"CONCACHE", MakeConfig(false, true, false)},
    {"LAZYCON", MakeConfig(true, true, false)},
    {"EPTSPC", MakeConfig(true, true, true)},
    {"SWITCHED", MakeConfig(true, true, true, true, /*threaded=*/false)},
    {"COMPILED", MakeConfig(true, true, true, true)},
    {"TUPLE", MakeConfig(true, true, true, true, true, true, /*tuple=*/true)},
    {"VERIFY", MakeConfig(true, true, true, true, true, /*verify=*/false)},
    {"TRACE", MakeConfig(true, true, true, true), true},
    {"AUDIT", MakeConfig(true, true, true, true), false, true},
};

// A rule base mixing every decision source: entrypoint-indexed drops (some
// matching the tasks' actual frames, many not), label drops, and a small
// STATE machine driven by binds and tmp-opens and read by signal delivery.
//
// Plain rules come before entrypoint rules. Indexed traversal evaluates
// non-entrypoint rules first and then the hash-selected entrypoint bucket
// (paper §4.3), so a rule base that interleaves side-effecting plain rules
// *after* entrypoint rules is order-sensitive between the modes; distributor
// bases keep entrypoint rules last (or in dedicated chains) for this reason.
std::vector<std::string> WorkloadRules() {
  std::vector<std::string> rules = {
      "pftables -o FILE_OPEN -d shadow_t -j DROP",
      "pftables -o SOCKET_BIND -j STATE --set --key b --value 1",
      "pftables -o FILE_OPEN -d tmp_t -j STATE --set --key b --value 0",
      "pftables -o PROCESS_SIGNAL_DELIVERY -m STATE --key b --cmp 1 -j DROP",
      "pftables -p /bin/true -i 0x100 -o FILE_OPEN -d etc_t -j DROP",
      "pftables -p /bin/true -i 0x300 -o FILE_OPEN -d tmp_t -j DROP",
  };
  // Entrypoint chaff for other binaries: populates the by-entrypoint index
  // without ever matching the /bin/true tasks.
  const char* bins[] = {sim::kApache, sim::kPhp, sim::kPython, sim::kBinSh};
  for (int i = 0; i < 48; ++i) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "pftables -p %s -i 0x%x -o FILE_OPEN -j DROP",
                  bins[i % 4], 0x10000 + i * 0x40);
    rules.emplace_back(buf);
  }
  return rules;
}

struct Workload {
  sim::Kernel kernel{0x5eed};
  Engine* engine = nullptr;
  std::vector<std::unique_ptr<sim::Task>> tasks;
  std::vector<std::shared_ptr<sim::Inode>> pins;  // keep request inodes alive

  explicit Workload(const EngineConfig& cfg) {
    sim::BuildSysImage(kernel);
    apps::InstallPrograms(kernel);
    engine = InstallProcessFirewall(kernel, cfg);
    Pftables pft(engine);
    Status s = pft.ExecAll(WorkloadRules());
    if (!s.ok()) {
      ADD_FAILURE() << "rule install failed: " << s.message();
    }
    kernel.MkFileAt("/tmp/t", "x", 0666, 0, 0, "tmp_t");
    for (int i = 0; i < kTasks; ++i) {
      auto task = std::make_unique<sim::Task>();
      task->pid = static_cast<sim::Pid>(100 + i);
      task->comm = "equiv";
      task->exe = sim::kBinTrue;
      task->cred.sid = kernel.labels().Intern("staff_t");
      task->cwd = kernel.vfs().root()->id();
      task->mm.Reset(kernel.AslrStackBase());
      kernel.MapImage(*task, kernel.LookupNoHooks(sim::kBinTrue), sim::kBinTrue);
      const sim::Mapping* map = task->mm.FindMappingByPath(sim::kBinTrue);
      for (int f = 0; f <= i; ++f) {
        task->mm.PushFrame(map->base + 0x100 * static_cast<uint64_t>(f + 1), 16, false);
      }
      tasks.push_back(std::move(task));
    }
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

// The decision counters that must not notice tracing (trace_records,
// trace_drops and stats_generation legitimately differ).
std::vector<uint64_t> DecisionCounters(const EngineStats& s) {
  std::vector<uint64_t> out = {s.invocations,     s.drops,          s.audited_drops,
                               s.rules_evaluated, s.ept_chain_hits, s.unwinds,
                               s.unwind_cache_hits};
  out.insert(out.end(), s.ctx_fetches.begin(), s.ctx_fetches.end());
  return out;
}

// Replays the seeded workload against one engine configuration and returns
// the full verdict sequence plus each task's final STATE dictionary.
std::vector<int64_t> Replay(const EngineConfig& cfg,
                            std::vector<std::map<std::string, int64_t>>* dicts,
                            bool traced = false,
                            std::vector<uint64_t>* counters = nullptr,
                            bool audited = false) {
  Workload w(cfg);
  if (traced) {
    w.engine->trace().Enable();
  }
  if (audited) {
    audit::AuditHub::Config acfg;
    acfg.bucket_capacity = 0;  // admit every record: maximum observer load
    w.engine->audit().Enable(acfg);
  }
  std::vector<int64_t> verdicts;
  verdicts.reserve(kOps);
  std::mt19937_64 rng(kWorkloadSeed);
  const char* paths[] = {"/etc/passwd", "/etc/shadow", "/tmp/t"};
  for (int i = 0; i < kOps; ++i) {
    sim::Task& task = *w.tasks[rng() % kTasks];
    // Most operations start a new "syscall"; one in four reuses the current
    // one so the per-syscall context cache actually gets exercised.
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
      case 4:
        req = w.OpenRequest(task, "/etc/shadow");
        break;
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
  if (dicts != nullptr) {
    dicts->clear();
    for (auto& task : w.tasks) {
      dicts->push_back(w.engine->TaskState(*task).dict);
    }
  }
  if (counters != nullptr) {
    *counters = DecisionCounters(w.engine->stats());
  }
  return verdicts;
}

TEST(AblationEquivalenceTest, AllConfigsProduceIdenticalVerdictSequences) {
  std::vector<std::map<std::string, int64_t>> base_dicts;
  std::vector<int64_t> base = Replay(kConfigs[0].cfg, &base_dicts);
  ASSERT_EQ(base.size(), static_cast<size_t>(kOps));
  // The workload must actually exercise both outcomes.
  size_t denies = 0;
  for (int64_t v : base) {
    denies += v < 0;
  }
  EXPECT_GT(denies, 100u) << "workload produced too few denials to be meaningful";
  EXPECT_LT(denies, static_cast<size_t>(kOps)) << "workload must also allow";

  for (size_t c = 1; c < std::size(kConfigs); ++c) {
    std::vector<std::map<std::string, int64_t>> dicts;
    std::vector<int64_t> got = Replay(kConfigs[c].cfg, &dicts, kConfigs[c].traced,
                                      nullptr, kConfigs[c].audited);
    ASSERT_EQ(got.size(), base.size()) << kConfigs[c].name;
    for (size_t i = 0; i < base.size(); ++i) {
      ASSERT_EQ(got[i], base[i])
          << kConfigs[c].name << " diverged from FULL at op " << i;
    }
    EXPECT_EQ(dicts, base_dicts) << kConfigs[c].name << " final STATE dicts differ";
  }
}

TEST(AblationEquivalenceTest, TracingIsAPureObserver) {
  // The TRACE rung of the ladder, isolated: the same configuration run with
  // all tracepoints live must reproduce not just the verdict sequence but
  // the decision counters bit for bit — tracing may add trace_records, but
  // it may not perturb what the engine counted about its own decisions.
  const EngineConfig cfg = MakeConfig(true, true, true, true);
  std::vector<std::map<std::string, int64_t>> dicts_off, dicts_on;
  std::vector<uint64_t> counters_off, counters_on;
  std::vector<int64_t> off = Replay(cfg, &dicts_off, false, &counters_off);
  std::vector<int64_t> on = Replay(cfg, &dicts_on, true, &counters_on);
  EXPECT_EQ(off, on) << "tracing changed a verdict";
  EXPECT_EQ(dicts_off, dicts_on) << "tracing changed STATE side effects";
  EXPECT_EQ(counters_off, counters_on) << "tracing changed decision counters";
}

TEST(AblationEquivalenceTest, AuditIsAPureObserver) {
  // The AUDIT rung, isolated: the same configuration run with the audit
  // pipeline armed (every kind, suppression off) must reproduce verdicts,
  // STATE dictionaries, and the decision counters bit for bit. Audit may
  // add audit_* accounting; it may not perturb the decisions it describes.
  if (!audit::kAuditCompiledIn) {
    GTEST_SKIP() << "audit compiled out (PF_AUDIT=OFF)";
  }
  const EngineConfig cfg = MakeConfig(true, true, true, true);
  std::vector<std::map<std::string, int64_t>> dicts_off, dicts_on;
  std::vector<uint64_t> counters_off, counters_on;
  std::vector<int64_t> off = Replay(cfg, &dicts_off, false, &counters_off);
  std::vector<int64_t> on =
      Replay(cfg, &dicts_on, false, &counters_on, /*audited=*/true);
  EXPECT_EQ(off, on) << "audit changed a verdict";
  EXPECT_EQ(dicts_off, dicts_on) << "audit changed STATE side effects";
  EXPECT_EQ(counters_off, counters_on) << "audit changed decision counters";
}

TEST(AblationEquivalenceTest, TupleClassifierPreservesHitCountersAndOnlySkipsWork) {
  // The classifier may only *skip* rules a scan would have rejected on an
  // exact-match dimension: every rule a scan fires must still fire (hits
  // bit-identical, bumped by the same evaluator path), every rule the
  // classifier does evaluate must be one the scan evaluated too (per-rule
  // evals <= scan), and at this workload's shape the candidate slices must
  // be strictly narrower than the full chain (total rules_evaluated drops).
  const auto replay = [](bool tuple, std::vector<uint64_t>* evals,
                         std::vector<uint64_t>* hits, EngineStats* stats) {
    const EngineConfig cfg = MakeConfig(true, true, true, true, true, true, tuple);
    Workload w(cfg);
    std::vector<int64_t> verdicts;
    std::mt19937_64 rng(kWorkloadSeed);
    const char* paths[] = {"/etc/passwd", "/etc/shadow", "/tmp/t"};
    for (int i = 0; i < kOps; ++i) {
      sim::Task& task = *w.tasks[rng() % kTasks];
      if (rng() % 4 != 0) {
        ++task.syscall_count;
      }
      sim::AccessRequest req = w.OpenRequest(task, paths[rng() % 3]);
      verdicts.push_back(w.engine->Authorize(req));
    }
    for (const auto& [name, chain] : w.engine->ruleset().filter().chains()) {
      for (const auto& r : chain.rules()) {
        evals->push_back(r->evals.load(std::memory_order_relaxed));
        hits->push_back(r->hits.load(std::memory_order_relaxed));
      }
    }
    *stats = w.engine->stats();
    return verdicts;
  };

  std::vector<uint64_t> scan_evals, scan_hits, tup_evals, tup_hits;
  EngineStats scan_stats, tup_stats;
  std::vector<int64_t> scan = replay(false, &scan_evals, &scan_hits, &scan_stats);
  std::vector<int64_t> tup = replay(true, &tup_evals, &tup_hits, &tup_stats);

  ASSERT_EQ(scan, tup) << "classifier changed a verdict";
  ASSERT_EQ(scan_hits, tup_hits) << "classifier changed a per-rule hit count";
  ASSERT_EQ(scan_evals.size(), tup_evals.size());
  for (size_t i = 0; i < scan_evals.size(); ++i) {
    EXPECT_LE(tup_evals[i], scan_evals[i])
        << "classifier evaluated rule " << i << " more often than a scan — it "
        << "may only skip rules, never add candidates";
  }
  EXPECT_LT(tup_stats.rules_evaluated, scan_stats.rules_evaluated)
      << "classifier never narrowed a candidate slice on a workload built "
      << "around exact-match dimensions";
  EXPECT_EQ(tup_stats.drops, scan_stats.drops);
}

TEST(AblationEquivalenceTest, ReplayIsDeterministic) {
  // The harness itself must be reproducible, otherwise the equivalence
  // assertion above proves nothing.
  std::vector<int64_t> a = Replay(kConfigs[3].cfg, nullptr);
  std::vector<int64_t> b = Replay(kConfigs[3].cfg, nullptr);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace pf::core
