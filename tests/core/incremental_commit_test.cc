// Incremental-commit churn test (DESIGN.md §5g): random edit scripts applied
// command-by-command to three identically-seeded systems —
//
//   E  incremental_commits on,  tuple_dispatch on   (the delta path under test)
//   F  incremental_commits off, tuple_dispatch on   (from-scratch relower)
//   G  incremental_commits off, tuple_dispatch off  (scan-path verdict oracle)
//
// After every single edit the published program E actually executes (built by
// LowerProgramDelta splicing into a copy of the previous generation) must
// disassemble byte-identically to F's from-scratch relower of the same rule
// base. After the full script a seeded operation stream must produce
// bit-identical verdicts, STATE dictionaries, LOG records, List() renderings
// (per-rule eval/hit counters), and engine statistics between E and F; G
// additionally pins the verdict/side-effect surface of the tuple classifier
// to the scan path (eval counters legitimately drop under the classifier, so
// only hits are compared against G).
//
// Seeds cycle through every fuzz generator flavor (fuzz_rules.h), so the
// delta path is exercised over state protocols, native escapes, deep JUMP
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
#include "src/core/program.h"
#include "src/sim/sysimage.h"
#include "tests/core/fuzz_rules.h"

namespace pf::core {
namespace {

constexpr int kOps = 1500;
constexpr int kTasks = 3;
constexpr int kEdits = 24;
constexpr uint64_t kSeedBase = 0xdc17;  // consecutive seeds cycle the flavors
constexpr int kSeedCount = 16;

EngineConfig MakeCfg(bool incremental, bool tuple) {
  EngineConfig cfg;
  cfg.tuple_dispatch = tuple;
  cfg.incremental_commits = incremental;
  return cfg;
}

// One booted system under churn. All three systems use the same sim seed, so
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

  // The program hook evaluation actually runs (for E: the delta-built
  // splice, not a fresh staging compile like ListCompiled()).
  std::string PublishedDisassembly() const {
    return DisassemblePfProgram(engine->PublishedRuleset()->program,
                                kernel->labels());
  }
};

// Everything observable from one replay of the seeded operation stream.
struct RunResult {
  std::vector<int64_t> verdicts;
  std::vector<std::map<std::string, int64_t>> dicts;
  std::string log_lines;
  std::string listing;
  uint64_t count_fires = 0;
  std::vector<uint64_t> hits;  // per-rule hit counters, chain-sorted order
  EngineStats stats;
};

RunResult Replay(System& sys, uint64_t seed) {
  RunResult out;
  const char* kPaths[] = {"/etc/passwd", "/etc/shadow", "/tmp/t", "/bin/true"};
  std::mt19937_64 rng(seed ^ 0x0bdeadbeefULL);
  out.verdicts.reserve(kOps);
  for (int i = 0; i < kOps; ++i) {
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
  out.listing = sys.pft->List();
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
  if (kind == 10) {  // flip a builtin policy (exercises set_policy edit_seq)
    return std::string("pftables -P output ") + (step % 2 == 0 ? "DROP" : "ACCEPT");
  }
  // Flush one chain: the dirty relower of an emptied chain plus, later,
  // appends into it again.
  const auto& [chain, size] = nonempty[rng() % nonempty.size()];
  (void)size;
  return "pftables -F " + chain;
}

void RunChurn(uint64_t seed) {
  const std::string tag = "seed=0x" + [&] {
    char b[32];
    std::snprintf(b, sizeof(b), "%llx", static_cast<unsigned long long>(seed));
    return std::string(b);
  }() + " flavor=" + fuzzgen::FlavorName(fuzzgen::FlavorForSeed(seed));

  System e(MakeCfg(/*incremental=*/true, /*tuple=*/true));
  System f(MakeCfg(/*incremental=*/false, /*tuple=*/true));
  System g(MakeCfg(/*incremental=*/false, /*tuple=*/false));

  // Identical initial bases (batch-installed: one commit each). rule_rng is
  // advanced past the base batch so the pool batches below differ from it.
  std::mt19937_64 rule_rng(seed);
  (void)fuzzgen::RandomRules(rule_rng, fuzzgen::FlavorForSeed(seed));
  for (System* sys : {&e, &f, &g}) {
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

  // The churn script: after every command, the program E publishes (built by
  // the delta path) must equal F's from-scratch relower bit for bit. One
  // mid-script -N changes the chain-name set, forcing (and covering) the
  // full-commit fallback inside an otherwise delta-committed history.
  std::mt19937_64 edit_rng(seed ^ 0xed17ULL);
  for (int step = 0; step < kEdits; ++step) {
    const std::string cmd = step == kEdits / 2
                                ? "pftables -N churn_nc"
                                : NextEdit(edit_rng, *e.engine, pool, step);
    const Status se = e.pft->Exec(cmd);
    const Status sf = f.pft->Exec(cmd);
    const Status sg = g.pft->Exec(cmd);
    ASSERT_EQ(se.ok(), sf.ok()) << tag << " step " << step << ": " << cmd;
    ASSERT_EQ(se.ok(), sg.ok()) << tag << " step " << step << ": " << cmd;
    ASSERT_TRUE(se.ok()) << tag << " step " << step << " rejected: " << cmd
                         << " -> " << se.message();
    ASSERT_EQ(e.PublishedDisassembly(), f.PublishedDisassembly())
        << tag << ": delta-built program diverged from scratch relower after step "
        << step << ": " << cmd;
    ASSERT_EQ(e.pft->Save(), f.pft->Save()) << tag << " step " << step;
  }

  // The edit history must actually have taken the path under test.
  EXPECT_GT(e.engine->delta_commits(), static_cast<uint64_t>(kEdits) / 2) << tag;
  EXPECT_GT(e.engine->full_commits(), 0u) << tag;  // install + -N fallback
  EXPECT_EQ(f.engine->delta_commits(), 0u) << tag;

  // Replay: E vs F is full bit-equivalence (same dispatch, different commit
  // path); E vs G pins the classifier to the scan oracle's verdict/effect
  // surface (eval counters legitimately differ — that is the optimization).
  RunResult re = Replay(e, seed);
  RunResult rf = Replay(f, seed);
  RunResult rg = Replay(g, seed);

  ASSERT_EQ(re.verdicts, rf.verdicts) << tag << ": E vs F verdicts";
  EXPECT_EQ(re.dicts, rf.dicts) << tag << ": E vs F STATE dicts";
  EXPECT_EQ(re.log_lines, rf.log_lines) << tag << ": E vs F LOG records";
  EXPECT_EQ(re.listing, rf.listing) << tag << ": E vs F List() (eval/hit counters)";
  EXPECT_EQ(re.count_fires, rf.count_fires) << tag;
  EXPECT_EQ(re.hits, rf.hits) << tag;
  EXPECT_EQ(re.stats.invocations, rf.stats.invocations) << tag;
  EXPECT_EQ(re.stats.drops, rf.stats.drops) << tag;
  EXPECT_EQ(re.stats.rules_evaluated, rf.stats.rules_evaluated) << tag;
  EXPECT_EQ(re.stats.ctx_fetches, rf.stats.ctx_fetches) << tag;

  ASSERT_EQ(re.verdicts, rg.verdicts) << tag << ": E vs G (scan oracle) verdicts";
  EXPECT_EQ(re.dicts, rg.dicts) << tag << ": E vs G STATE dicts";
  EXPECT_EQ(re.log_lines, rg.log_lines) << tag << ": E vs G LOG records";
  EXPECT_EQ(re.count_fires, rg.count_fires) << tag;
  EXPECT_EQ(re.hits, rg.hits) << tag << ": classifier changed a per-rule hit count";
  EXPECT_EQ(re.stats.drops, rg.stats.drops) << tag;
}

TEST(IncrementalCommitChurnTest, DeltaCommitsAreBitEquivalentAcrossSeeds) {
  for (int i = 0; i < kSeedCount; ++i) {
    RunChurn(kSeedBase + static_cast<uint64_t>(i));
    if (::testing::Test::HasFailure()) {
      return;  // first divergence wins; later seeds would bury the report
    }
  }
}

// A long alternating append/delete run on one chain: generations churn with
// tiny diffs, dead records accumulate, and eventually the compaction
// threshold (half the arena dead) must force a full relower — after which
// deltas resume on the compacted base. The published program must stay
// bit-equivalent to a scratch compile throughout.
TEST(IncrementalCommitChurnTest, CompactionThresholdTriggersAndRecovers) {
  System e(MakeCfg(/*incremental=*/true, /*tuple=*/true));
  System f(MakeCfg(/*incremental=*/false, /*tuple=*/true));
  for (System* sys : {&e, &f}) {
    ASSERT_TRUE(sys->pft->Exec("pftables -N t").ok());
    ASSERT_TRUE(sys->pft->Exec("pftables -A input -s staff_t -j t").ok());
  }
  uint64_t fulls_before = e.engine->full_commits();
  bool add = true;
  for (int i = 0; i < 160; ++i) {
    const std::string cmd = add ? "pftables -A t -o FILE_OPEN -d shadow_t -j DROP"
                                : "pftables -D t 1";
    ASSERT_TRUE(e.pft->Exec(cmd).ok()) << "step " << i;
    ASSERT_TRUE(f.pft->Exec(cmd).ok()) << "step " << i;
    add = !add;
    if (i % 16 == 0) {
      ASSERT_EQ(e.PublishedDisassembly(), f.PublishedDisassembly())
          << "diverged at step " << i;
    }
  }
  ASSERT_EQ(e.PublishedDisassembly(), f.PublishedDisassembly());
  EXPECT_GT(e.engine->delta_commits(), 60u);
  EXPECT_GT(e.engine->full_commits(), fulls_before)
      << "compaction threshold never forced a from-scratch relower";
}

}  // namespace
}  // namespace pf::core
