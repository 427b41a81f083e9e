// Commit churn test (DESIGN.md §5g): random edit scripts checked for
// history independence. Two identically-seeded systems —
//
//   F  applies the script one command at a time (appends, inserts,
//      deletes, flushes, policy flips, one mid-script -N), committing
//      after each;
//   G  after each of F's edits, replaces its whole rule base with F's
//      Save() dump in one batch (one commit).
//
// Every commit relowers the whole staging base, so a rule base must compile
// and decide the same however it was reached. After every edit F and G must
// list byte-identical `-L --compiled` programs, and a short seeded
// operation stream must give identical verdicts, STATE dictionaries, LOG
// records, native-target fires, and per-rule hit deltas over the stream
// (G's rules are fresh objects after each reload, so hits compare as
// deltas). After the full script a long stream must agree the same way.
//
// Seeds cycle through every fuzz generator flavor (fuzz_rules.h), so the
// edit paths are exercised over state protocols, native escapes, deep JUMP
// nests, and degenerate sparse chains, not just plain label rules.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
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

  System() {
    kernel = std::make_unique<sim::Kernel>(0x5eed);
    sim::BuildSysImage(*kernel);
    apps::InstallPrograms(*kernel);
    engine = InstallProcessFirewall(*kernel);
    pft = std::make_unique<Pftables>(engine);
    fuzzgen::RegisterFuzzModules(*pft, count_fires.get());
    kernel->MkFileAt("/tmp/t", "x", 0666, 0, 0, "tmp_t");
    for (int i = 0; i < kTasks; ++i) {
      auto task = std::make_unique<sim::Task>();
      task->pid = static_cast<sim::Pid>(300 + i);
      task->syscall_depth = 1;  // every request runs inside a system call
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

// Per-rule hit counters of the staging base, in chain-sorted order.
std::vector<uint64_t> Hits(const System& sys) {
  std::vector<uint64_t> hits;
  for (const auto& [name, chain] : sys.engine->ruleset().filter().chains()) {
    for (const auto& r : chain.rules()) {
      hits.push_back(r->hits.load(std::memory_order_relaxed));
    }
  }
  return hits;
}

// Everything observable from one replay of the seeded operation stream.
struct RunResult {
  std::vector<int64_t> verdicts;
  std::vector<std::map<std::string, int64_t>> dicts;
  std::string log_lines;        // records the stream logged
  uint64_t count_fires = 0;     // native-target fires during the stream
  std::vector<uint64_t> hits;   // per-rule hit deltas, chain-sorted order
};

RunResult Replay(System& sys, uint64_t seed, int ops) {
  RunResult out;
  sys.engine->log().Clear();
  const uint64_t fires_before = *sys.count_fires;
  out.hits = Hits(sys);
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
  out.count_fires = *sys.count_fires - fires_before;
  const std::vector<uint64_t> after = Hits(sys);
  for (size_t i = 0; i < after.size(); ++i) {
    out.hits[i] = after[i] - out.hits[i];
  }
  return out;
}

// Replaces the whole rule base of `sys` with `dump` in one batch: staging
// starts over from empty builtin chains, and the leading flush (a no-op on
// them) makes ExecAll commit exactly once, even for a dump with no rules.
Status Reload(System& sys, const std::string& dump) {
  sys.engine->ruleset() = RuleSet();
  std::vector<std::string> lines = {"pftables -F"};
  std::istringstream in(dump);
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
  }
  return sys.pft->ExecAll(lines);
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

// The staging base compiled and disassembled. `-L --compiled` lists the
// published generation, and after a -N, which publishes nothing, F's live
// generation still lacks the empty chain that G's reload committed.
std::string StagedListing(const System& s) {
  return DisassemblePfProgram(s.engine->CompileRuleset()->program, s.kernel->labels());
}

// F (edited step by step) against G (reloaded in one step): the compiled
// staging program, and one replay's verdict and side-effect surface, must
// agree exactly.
void ExpectAgree(System& f, System& g, uint64_t replay_seed, int ops,
                 const std::string& where) {
  ASSERT_EQ(StagedListing(f), StagedListing(g)) << where << ": compiled programs";
  const RunResult rf = Replay(f, replay_seed, ops);
  const RunResult rg = Replay(g, replay_seed, ops);
  ASSERT_EQ(rf.verdicts, rg.verdicts) << where << ": verdicts";
  EXPECT_EQ(rf.dicts, rg.dicts) << where << ": STATE dicts";
  EXPECT_EQ(rf.log_lines, rg.log_lines) << where << ": LOG records";
  EXPECT_EQ(rf.count_fires, rg.count_fires) << where << ": native-target fires";
  EXPECT_EQ(rf.hits, rg.hits) << where << ": per-rule hit deltas";
}

void RunChurn(uint64_t seed) {
  const std::string tag = "seed=0x" + [&] {
    char b[32];
    std::snprintf(b, sizeof(b), "%llx", static_cast<unsigned long long>(seed));
    return std::string(b);
  }() + " flavor=" + fuzzgen::FlavorName(fuzzgen::FlavorForSeed(seed));

  System f;
  System g;

  // The initial base, batch-installed on F (one commit) and reloaded from
  // F's dump on G.
  std::mt19937_64 rule_rng(seed);
  ASSERT_TRUE(
      f.pft->ExecAll(fuzzgen::RandomRules(rule_rng, fuzzgen::FlavorForSeed(seed))).ok())
      << tag;
  ASSERT_TRUE(Reload(g, f.pft->Save()).ok()) << tag;

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
  // set. After every command G reloads F's rule base, and both must list the
  // same compiled program and decide a short operation stream alike.
  std::mt19937_64 edit_rng(seed ^ 0xed17ULL);
  for (int step = 0; step < kEdits; ++step) {
    const std::string cmd = step == kEdits / 2
                                ? "pftables -N churn_nc"
                                : NextEdit(edit_rng, *f.engine, pool, step);
    const std::string where = tag + " step " + std::to_string(step) + ": " + cmd;
    const Status sf = f.pft->Exec(cmd);
    ASSERT_TRUE(sf.ok()) << where << " rejected: " << sf.message();
    const std::string dump = f.pft->Save();
    const Status sg = Reload(g, dump);
    ASSERT_TRUE(sg.ok()) << where << " reload rejected: " << sg.message();
    ASSERT_EQ(g.pft->Save(), dump) << where << ": the dump does not round-trip";
    ExpectAgree(f, g, seed + static_cast<uint64_t>(step), kOpsPerEdit, where);
    if (::testing::Test::HasFailure()) {
      return;
    }
  }
  ExpectAgree(f, g, seed, kOps, tag + " after the script");
}

TEST(CommitChurnTest, EditHistoryMatchesOneStepReloadAfterEveryEdit) {
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

// A thread that exits drops its worker-slot pin: the generation its last
// decision pinned is freed by the commits that follow, not held until the
// engine dies.
TEST(CommitChurnTest, ExitedThreadKeepsNoGenerationAlive) {
  DecisionRig rig({"pftables -A input -o FILE_OPEN -d shadow_t -j DROP"});
  const std::weak_ptr<const CompiledRuleset> pinned = rig.engine->PublishedRuleset();
  std::thread([&rig] { EXPECT_EQ(rig.Decide(rig.Open("/etc/shadow")), kDeny); }).join();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(rig.engine->CommitRuleset().ok());
  }
  EXPECT_TRUE(pinned.expired()) << "an exited thread still pins its last generation";
}

// Worker indices are reused once their thread exits, so threads that run
// one after another each pin through a slot (one refresh per first
// decision) instead of falling past the slot capacity onto the locked path.
TEST(CommitChurnTest, SequentialThreadsEachPinThroughASlot) {
  DecisionRig rig({"pftables -A input -o FILE_OPEN -d shadow_t -j DROP"});
  const uint64_t before = rig.engine->stats().ruleset_refreshes;
  constexpr int kThreads = 100;
  for (int i = 0; i < kThreads; ++i) {
    std::thread([&rig] { EXPECT_EQ(rig.Decide(rig.Open("/etc/shadow")), kDeny); }).join();
  }
  EXPECT_EQ(rig.engine->stats().ruleset_refreshes - before, uint64_t{kThreads});
}

}  // namespace
}  // namespace pf::core
