// Commit churn test (DESIGN.md §5g): random edit scripts applied
// command-by-command to two identically-seeded systems —
//
//   F  tuple_dispatch on   (the tuple-space classifier under test)
//   G  tuple_dispatch off  (scan-path verdict oracle)
//
// Every commit relowers the whole staging base, so the two systems publish
// the same program; they differ only in how Authorize dispatches over it.
// After every single edit a short seeded operation stream, and after the
// full script a long one, must produce identical verdicts, STATE
// dictionaries, LOG records, native-target fires, per-rule hit counters and
// drop counts on F and G. Eval counters legitimately drop under the
// classifier (that is the optimization), so they are not compared.
//
// Seeds cycle through every fuzz generator flavor (fuzz_rules.h), so the
// classifier is exercised over state protocols, native escapes, deep JUMP
// nests, and degenerate sparse chains, not just plain label rules.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "src/apps/programs.h"
#include "src/core/engine.h"
#include "src/core/pftables.h"
#include "src/sim/sysimage.h"
#include "tests/core/decision_rig.h"
#include "tests/core/fuzz_rules.h"

namespace pf::core {
namespace {

constexpr int kOps = 1500;
constexpr int kOpsPerEdit = 64;
constexpr int kTasks = 3;
constexpr int kEdits = 24;
constexpr uint64_t kSeedBase = 0xdc17;  // consecutive seeds cycle the flavors
constexpr int kSeedCount = 16;

EngineConfig MakeCfg(bool tuple) {
  EngineConfig cfg;
  cfg.tuple_dispatch = tuple;
  return cfg;
}

// One booted system under churn. Both systems use the same sim seed, so
// inode numbers and label sids line up and command scripts are portable
// between them.
struct System {
  std::unique_ptr<sim::Kernel> kernel;
  Engine* engine = nullptr;
  std::unique_ptr<Pftables> pft;
  std::unique_ptr<uint64_t> count_fires = std::make_unique<uint64_t>(0);
  std::vector<std::unique_ptr<sim::Task>> tasks;
  std::vector<std::shared_ptr<sim::Inode>> pins;

  explicit System(const EngineConfig& cfg) {
    kernel = std::make_unique<sim::Kernel>(0x5eed);
    sim::BuildSysImage(*kernel);
    apps::InstallPrograms(*kernel);
    engine = InstallProcessFirewall(*kernel, cfg);
    pft = std::make_unique<Pftables>(engine);
    fuzzgen::RegisterFuzzModules(*pft, count_fires.get());
    kernel->MkFileAt("/tmp/t", "x", 0666, 0, 0, "tmp_t");
    for (int i = 0; i < kTasks; ++i) {
      auto task = std::make_unique<sim::Task>();
      task->pid = static_cast<sim::Pid>(300 + i);
      task->comm = "churn";
      task->exe = sim::kBinTrue;
      task->cred.sid = kernel->labels().Intern(i == 0 ? "staff_t" : "user_t");
      task->cwd = kernel->vfs().root()->id();
      task->mm.Reset(kernel->AslrStackBase());
      kernel->MapImage(*task, kernel->LookupNoHooks(sim::kBinTrue), sim::kBinTrue);
      const sim::Mapping* map = task->mm.FindMappingByPath(sim::kBinTrue);
      for (int f = 0; f <= i; ++f) {
        task->mm.PushFrame(map->base + 0x100 * static_cast<uint64_t>(f + 1), 16, false);
      }
      tasks.push_back(std::move(task));
    }
  }
};

// Everything observable from one replay of the seeded operation stream.
struct RunResult {
  std::vector<int64_t> verdicts;
  std::vector<std::map<std::string, int64_t>> dicts;
  std::string log_lines;
  uint64_t count_fires = 0;
  std::vector<uint64_t> hits;  // per-rule hit counters, chain-sorted order
  EngineStats stats;
};

RunResult Replay(System& sys, uint64_t seed, int ops) {
  RunResult out;
  const char* kPaths[] = {"/etc/passwd", "/etc/shadow", "/tmp/t", "/bin/true"};
  std::mt19937_64 rng(seed ^ 0x0bdeadbeefULL);
  out.verdicts.reserve(static_cast<size_t>(ops));
  for (int i = 0; i < ops; ++i) {
    sim::Task& task = *sys.tasks[rng() % kTasks];
    if (rng() % 4 != 0) {
      ++task.syscall_count;
    }
    sim::AccessRequest req;
    req.task = &task;
    switch (rng() % 8) {
      case 0:
      case 1:
      case 2: {
        auto inode = sys.kernel->LookupNoHooks(kPaths[rng() % std::size(kPaths)]);
        req.op = sim::Op::kFileOpen;
        req.inode = inode.get();
        req.id = inode->id();
        req.syscall_nr = sim::SyscallNr::kOpen;
        sys.pins.push_back(std::move(inode));
        break;
      }
      case 3: {
        auto inode = sys.kernel->LookupNoHooks(kPaths[rng() % std::size(kPaths)]);
        req.op = sim::Op::kFileGetattr;
        req.inode = inode.get();
        req.id = inode->id();
        req.syscall_nr = sim::SyscallNr::kStat;
        sys.pins.push_back(std::move(inode));
        break;
      }
      case 4:
        req.op = sim::Op::kSocketBind;
        req.name = "/tmp/sock";
        req.syscall_nr = sim::SyscallNr::kBind;
        break;
      case 5:
        req.op = sim::Op::kSignalDeliver;
        req.sig = sim::kSigUsr1;
        req.sig_sender = 1;
        req.syscall_nr = sim::SyscallNr::kKill;
        break;
      default:
        req.op = sim::Op::kSyscallBegin;
        req.syscall_nr = static_cast<sim::SyscallNr>(rng() % 8);
        break;
    }
    out.verdicts.push_back(sys.engine->Authorize(req));
  }
  for (auto& task : sys.tasks) {
    out.dicts.push_back(sys.engine->TaskState(*task).dict);
  }
  out.log_lines = sys.engine->log().ToJsonLines();
  out.count_fires = *sys.count_fires;
  for (const auto& [name, chain] : sys.engine->ruleset().filter().chains()) {
    for (const auto& r : chain.rules()) {
      out.hits.push_back(r->hits.load(std::memory_order_relaxed));
    }
  }
  out.stats = sys.engine->stats();
  return out;
}

// Builds the next edit command as a pure function of the rng and the current
// (shared) rule-base shape, read from `shape_engine`. `pool` supplies
// flavor-appropriate append commands harvested from the fuzz generators.
std::string NextEdit(std::mt19937_64& rng, Engine& shape_engine,
                     const std::vector<std::string>& pool, int step) {
  const Table& filter = shape_engine.ruleset().filter();
  // Chains that currently hold rules (delete/flush candidates).
  std::vector<std::pair<std::string, size_t>> nonempty;
  for (const auto& [name, chain] : filter.chains()) {
    if (chain.size() > 0) {
      nonempty.emplace_back(name, chain.size());
    }
  }
  const uint64_t kind = rng() % 12;
  if (kind < 5 || nonempty.empty()) {  // append (the common edit)
    return pool[rng() % pool.size()];
  }
  if (kind < 7) {  // insert at a random position
    const std::string& line = pool[rng() % pool.size()];
    const size_t at = line.find(" -A ");
    const size_t chain_from = at + 4;
    const size_t chain_to = line.find(' ', chain_from);
    const std::string chain = line.substr(chain_from, chain_to - chain_from);
    const Chain* c = filter.Find(chain);
    const size_t pos = 1 + rng() % (c->size() + 1);
    return line.substr(0, at) + " -I " + chain + " " + std::to_string(pos) +
           line.substr(chain_to);
  }
  if (kind < 10) {  // delete a random rule
    const auto& [chain, size] = nonempty[rng() % nonempty.size()];
    return "pftables -D " + chain + " " + std::to_string(1 + rng() % size);
  }
  if (kind == 10) {  // flip a builtin policy
    return std::string("pftables -P output ") + (step % 2 == 0 ? "DROP" : "ACCEPT");
  }
  // Flush one chain: an emptied chain, and later appends into it again.
  const auto& [chain, size] = nonempty[rng() % nonempty.size()];
  (void)size;
  return "pftables -F " + chain;
}

// F (classifier) against G (scan oracle) over one replay: the verdict and
// side-effect surface must agree exactly.
void ExpectAgree(const RunResult& rf, const RunResult& rg, const std::string& where) {
  ASSERT_EQ(rf.verdicts, rg.verdicts) << where << ": verdicts";
  EXPECT_EQ(rf.dicts, rg.dicts) << where << ": STATE dicts";
  EXPECT_EQ(rf.log_lines, rg.log_lines) << where << ": LOG records";
  EXPECT_EQ(rf.count_fires, rg.count_fires) << where;
  EXPECT_EQ(rf.hits, rg.hits) << where << ": classifier changed a per-rule hit count";
  EXPECT_EQ(rf.stats.drops, rg.stats.drops) << where;
}

void RunChurn(uint64_t seed) {
  const std::string tag = "seed=0x" + [&] {
    char b[32];
    std::snprintf(b, sizeof(b), "%llx", static_cast<unsigned long long>(seed));
    return std::string(b);
  }() + " flavor=" + fuzzgen::FlavorName(fuzzgen::FlavorForSeed(seed));

  System f(MakeCfg(/*tuple=*/true));
  System g(MakeCfg(/*tuple=*/false));

  // Identical initial bases (batch-installed: one commit each). rule_rng is
  // advanced past the base batch so the pool batches below differ from it.
  std::mt19937_64 rule_rng(seed);
  (void)fuzzgen::RandomRules(rule_rng, fuzzgen::FlavorForSeed(seed));
  for (System* sys : {&f, &g}) {
    std::mt19937_64 r(seed);
    ASSERT_TRUE(sys->pft->ExecAll(fuzzgen::RandomRules(r, fuzzgen::FlavorForSeed(seed))).ok())
        << tag;
  }

  // Harvest an append-command pool from fresh generator batches (same flavor,
  // so every referenced chain already exists).
  std::vector<std::string> pool;
  for (int batch = 0; batch < 3; ++batch) {
    for (std::string& line :
         fuzzgen::RandomRules(rule_rng, fuzzgen::FlavorForSeed(seed))) {
      if (line.find(" -A ") != std::string::npos) {
        pool.push_back(std::move(line));
      }
    }
  }
  ASSERT_FALSE(pool.empty()) << tag;

  // The churn script, with one mid-script -N that changes the chain-name
  // set. After every command both systems must hold the same rule base and
  // decide a short operation stream alike.
  std::mt19937_64 edit_rng(seed ^ 0xed17ULL);
  for (int step = 0; step < kEdits; ++step) {
    const std::string cmd = step == kEdits / 2
                                ? "pftables -N churn_nc"
                                : NextEdit(edit_rng, *f.engine, pool, step);
    const std::string where = tag + " step " + std::to_string(step) + ": " + cmd;
    const Status sf = f.pft->Exec(cmd);
    const Status sg = g.pft->Exec(cmd);
    ASSERT_EQ(sf.ok(), sg.ok()) << where;
    ASSERT_TRUE(sf.ok()) << where << " rejected: " << sf.message();
    ASSERT_EQ(f.pft->Save(), g.pft->Save()) << where;
    const uint64_t replay_seed = seed + static_cast<uint64_t>(step);
    ExpectAgree(Replay(f, replay_seed, kOpsPerEdit), Replay(g, replay_seed, kOpsPerEdit),
                where);
    if (::testing::Test::HasFailure()) {
      return;
    }
  }
  ExpectAgree(Replay(f, seed, kOps), Replay(g, seed, kOps), tag + " after the script");
}

TEST(CommitChurnTest, TupleClassifierMatchesScanAfterEveryEdit) {
  for (int i = 0; i < kSeedCount; ++i) {
    RunChurn(kSeedBase + static_cast<uint64_t>(i));
    if (::testing::Test::HasFailure()) {
      return;  // first divergence wins; later seeds would bury the report
    }
  }
}

// A commit frees the generation the previous commit displaced. The first
// decision after a commit re-pins this thread's slot and drops its
// reference to the displaced generation; that must not be the last one, or
// the decision would pay for freeing a whole generation.
TEST(CommitChurnTest, DisplacedGenerationIsFreedByTheNextCommit) {
  DecisionRig rig({"pftables -A input -o FILE_OPEN -d shadow_t -j DROP"});
  EXPECT_EQ(rig.Decide(rig.Open("/etc/shadow")), kDeny);
  const std::weak_ptr<const CompiledRuleset> displaced = rig.engine->PublishedRuleset();
  ASSERT_TRUE(rig.pft->Exec("pftables -A input -o FILE_OPEN -d etc_t -j DROP").ok());
  EXPECT_EQ(rig.Decide(rig.Open("/etc/passwd")), kDeny);
  EXPECT_FALSE(displaced.expired()) << "a decision freed the displaced generation";
  ASSERT_TRUE(rig.pft->Exec("pftables -D input 2").ok());
  EXPECT_TRUE(displaced.expired()) << "the next commit kept the displaced generation";
}

}  // namespace
}  // namespace pf::core
