// Differential fuzzing of the evaluator's two dispatch strategies: seeded
// random rule bases (five generator flavors, see fuzz_rules.h) replayed over
// seeded random operation streams, with the strategy (portable switch loop /
// computed-goto threaded loop) as the only difference between runs.
//
// The two dispatch strategies expand the same handler bodies
// (exec_insn.inc), so a divergence between them is a dispatch bug: a wrong
// label-table slot, a skipped instruction, a mis-sequenced fetch. Everything
// observable must be bit-identical — the verdict sequence, per-task STATE
// dictionaries, LOG records, rule counters (via the List() rendering), and
// the engine statistics, including the context-fetch counters that would
// expose a divergent EnsureContext order.
//
// What the handlers themselves mean is pinned elsewhere: verdicts by the
// symbolic model (symbolic_diff_fuzz_test, explain_fuzz_test), counters and
// side effects by hand-derived engine tests and the mutant battery.
//
// Seed control (for CI sharding and reproduction):
//   --pf_fuzz_seed=0xNNN   run exactly one seed (also env PF_FUZZ_SEED)
//   PF_FUZZ_SEEDS=N        run N consecutive seeds from the fixed base
// The default is 16 seeds, cycling through every generator flavor, plus the
// pinned regression seeds. On a mismatch the failing seed and the
// compiled-program disassembly (pftables ListCompiled, i.e.
// `pftables -L --compiled`) are printed.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "src/apps/programs.h"
#include "src/core/engine.h"
#include "src/core/pftables.h"
#include "src/sim/sysimage.h"
#include "tests/core/fuzz_rules.h"

namespace pf::core {
namespace {

constexpr int kOps = 2000;
constexpr int kTasks = 3;

// Consecutive seeds from this base cycle through every fuzzgen::Flavor
// (flavor = seed % kFlavorCount).
constexpr uint64_t kSeedBase = 0xf002;
constexpr int kDefaultSeedCount = 16;

// Seeds past the default window, appended to every default run. 0xf037
// (mixed flavor) puts an entrypoint-indexed rule ahead of a plain rule that
// also fires, so with ept_chains on the indexed scan's plain-first order
// (paper §4.3), not chain order, decides.
constexpr uint64_t kRegressionSeeds[] = {0xf037};

// Filled by main() from --pf_fuzz_seed / PF_FUZZ_SEED / PF_FUZZ_SEEDS.
std::vector<uint64_t>& SeedList() {
  static std::vector<uint64_t> seeds;
  return seeds;
}

// The dispatch strategies under diff.
enum class Mode { kSwitch, kThreaded };

EngineConfig MakeConfig(Mode mode, bool ept) {
  EngineConfig cfg;
  cfg.threaded_eval = mode == Mode::kThreaded;
  cfg.ept_chains = ept;
  return cfg;
}

// --- workload ----------------------------------------------------------------

struct FuzzRun {
  std::vector<int64_t> verdicts;
  std::vector<std::map<std::string, int64_t>> dicts;
  std::string log_lines;
  std::string listing;
  std::string compiled_listing;  // ListCompiled() dump for failure reports
  std::vector<uint64_t> hits;    // per-rule hit counters in chain order
  uint64_t count_fires = 0;
  EngineStats stats;
};

// Builds a kernel (fixed sim seed: all runs see identical inode numbers and
// labels), installs the seed's flavor-specific rule base, and replays the
// seeded operation stream under the given engine configuration.
FuzzRun Replay(uint64_t seed, const EngineConfig& cfg) {
  FuzzRun out;
  sim::Kernel kernel{0x5eed};
  sim::BuildSysImage(kernel);
  apps::InstallPrograms(kernel);
  Engine* engine = InstallProcessFirewall(kernel, cfg);
  Pftables pft(engine);
  fuzzgen::RegisterFuzzModules(pft, &out.count_fires);

  std::mt19937_64 rule_rng(seed);
  Status s =
      pft.ExecAll(fuzzgen::RandomRules(rule_rng, fuzzgen::FlavorForSeed(seed)));
  if (!s.ok()) {
    ADD_FAILURE() << "rule install failed: " << s.message();
    return out;
  }

  kernel.MkFileAt("/tmp/t", "x", 0666, 0, 0, "tmp_t");
  std::vector<std::unique_ptr<sim::Task>> tasks;
  for (int i = 0; i < kTasks; ++i) {
    auto task = std::make_unique<sim::Task>();
    task->pid = static_cast<sim::Pid>(200 + i);
    task->syscall_depth = 1;  // every request runs inside a system call
    task->comm = "fuzz";
    task->exe = sim::kBinTrue;
    task->cred.sid = kernel.labels().Intern(i == 0 ? "staff_t" : "user_t");
    task->cwd = kernel.vfs().root()->id();
    task->mm.Reset(kernel.AslrStackBase());
    kernel.MapImage(*task, kernel.LookupNoHooks(sim::kBinTrue), sim::kBinTrue);
    const sim::Mapping* map = task->mm.FindMappingByPath(sim::kBinTrue);
    for (int f = 0; f <= i; ++f) {
      task->mm.PushFrame(map->base + 0x100 * static_cast<uint64_t>(f + 1), 16, false);
    }
    tasks.push_back(std::move(task));
  }

  std::vector<std::shared_ptr<sim::Inode>> pins;
  const char* kPaths[] = {"/etc/passwd", "/etc/shadow", "/tmp/t", "/bin/true"};
  std::mt19937_64 rng(seed ^ 0x0bdeadbeefULL);
  out.verdicts.reserve(kOps);
  for (int i = 0; i < kOps; ++i) {
    sim::Task& task = *tasks[rng() % kTasks];
    if (rng() % 4 != 0) {
      ++task.syscall_count;
    }
    sim::AccessRequest req;
    req.task = &task;
    switch (rng() % 8) {
      case 0:
      case 1:
      case 2: {
        auto inode = kernel.LookupNoHooks(kPaths[rng() % std::size(kPaths)]);
        req.op = sim::Op::kFileOpen;
        req.inode = inode.get();
        req.id = inode->id();
        req.syscall_nr = sim::SyscallNr::kOpen;
        pins.push_back(std::move(inode));
        break;
      }
      case 3: {
        auto inode = kernel.LookupNoHooks(kPaths[rng() % std::size(kPaths)]);
        req.op = sim::Op::kFileGetattr;
        req.inode = inode.get();
        req.id = inode->id();
        req.syscall_nr = sim::SyscallNr::kStat;
        pins.push_back(std::move(inode));
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
    out.verdicts.push_back(engine->Authorize(req));
  }

  for (auto& task : tasks) {
    out.dicts.push_back(engine->TaskState(*task).dict);
  }
  for (const auto& [name, chain] : engine->ruleset().filter().chains()) {
    for (const auto& r : chain.rules()) {
      out.hits.push_back(r->hits.load(std::memory_order_relaxed));
    }
  }
  out.log_lines = engine->log().ToJsonLines();
  out.listing = pft.List();
  out.compiled_listing = pft.ListCompiled();
  out.stats = engine->stats();
  return out;
}

// Verdicts, side effects, per-rule counters and every engine counter: what
// two dispatch strategies over the same instruction stream must agree on.
void ExpectBitEquivalent(const FuzzRun& want, const FuzzRun& got,
                         const std::string& what) {
  ASSERT_EQ(want.verdicts.size(), got.verdicts.size()) << what;
  for (size_t i = 0; i < want.verdicts.size(); ++i) {
    ASSERT_EQ(got.verdicts[i], want.verdicts[i])
        << what << ": verdicts diverge at op " << i;
  }
  EXPECT_EQ(got.dicts, want.dicts) << what << ": STATE dicts diverge";
  EXPECT_EQ(got.log_lines, want.log_lines) << what << ": LOG records diverge";
  EXPECT_EQ(got.count_fires, want.count_fires)
      << what << ": native target fire counts diverge";
  EXPECT_EQ(got.hits, want.hits) << what << ": per-rule hit counters diverge";
  EXPECT_EQ(got.stats.invocations, want.stats.invocations) << what;
  EXPECT_EQ(got.stats.drops, want.stats.drops) << what;
  EXPECT_EQ(got.stats.audited_drops, want.stats.audited_drops) << what;
  EXPECT_EQ(got.listing, want.listing)
      << what << ": List() rendering (rule evals/hits counters) diverges";

  const EngineStats& a = want.stats;
  const EngineStats& b = got.stats;
  EXPECT_EQ(b.rules_evaluated, a.rules_evaluated) << what << ": eval counts diverge";
  EXPECT_EQ(b.ept_chain_hits, a.ept_chain_hits) << what;
  EXPECT_EQ(b.unwinds, a.unwinds) << what;
  EXPECT_EQ(b.unwind_cache_hits, a.unwind_cache_hits) << what;
  EXPECT_EQ(b.ctx_fetches, a.ctx_fetches) << what << ": context fetch order diverges";
}

// Prints everything needed to replay a divergence offline: the exact seed,
// its flavor, and the compiled program as `pftables -L --compiled` shows it.
void DumpFailure(uint64_t seed, bool ept, const FuzzRun& compiled) {
  std::fprintf(stderr,
               "\n=== fuzz mismatch: reproduce with --pf_fuzz_seed=0x%llx "
               "(flavor %s, ept %s) ===\ncompiled program:\n%s\n",
               static_cast<unsigned long long>(seed),
               fuzzgen::FlavorName(fuzzgen::FlavorForSeed(seed)),
               ept ? "on" : "off", compiled.compiled_listing.c_str());
}

TEST(CompiledDiffFuzzTest, SwitchAndThreadedAgreeUnderDefaultContext) {
  for (uint64_t seed : SeedList()) {
    const std::string tag =
        "seed=" + std::to_string(seed) + " flavor=" +
        fuzzgen::FlavorName(fuzzgen::FlavorForSeed(seed));
    for (bool ept : {true, false}) {
      const std::string what = tag + (ept ? " ept=on" : " ept=off");
      FuzzRun swtch = Replay(seed, MakeConfig(Mode::kSwitch, ept));
      FuzzRun threaded = Replay(seed, MakeConfig(Mode::kThreaded, ept));
      ExpectBitEquivalent(swtch, threaded, what + " threaded-vs-switch");
      if (::testing::Test::HasFailure()) {
        DumpFailure(seed, ept, threaded);
        return;  // first divergence wins; later seeds would bury the dump
      }
    }
  }
}

TEST(CompiledDiffFuzzTest, ReplayIsDeterministic) {
  const uint64_t seed = SeedList().empty() ? kSeedBase : SeedList().front();
  FuzzRun a = Replay(seed, MakeConfig(Mode::kThreaded, /*ept=*/true));
  FuzzRun b = Replay(seed, MakeConfig(Mode::kThreaded, /*ept=*/true));
  EXPECT_EQ(a.verdicts, b.verdicts);
  EXPECT_EQ(a.log_lines, b.log_lines);
  EXPECT_EQ(a.listing, b.listing);
}

// The dispatch pair once more with context fetched eagerly and uncached
// (the FULL rung's knobs): every fetch handler then takes its
// already-present branch, which the default-context runs above rarely
// reach.
TEST(CompiledDiffFuzzTest, SwitchAndThreadedAgree) {
  for (uint64_t seed : SeedList()) {
    EngineConfig swtch_cfg = MakeConfig(Mode::kSwitch, /*ept=*/true);
    swtch_cfg.lazy_context = false;
    swtch_cfg.cache_context = false;
    EngineConfig threaded_cfg = swtch_cfg;
    threaded_cfg.threaded_eval = true;
    FuzzRun swtch = Replay(seed, swtch_cfg);
    FuzzRun threaded = Replay(seed, threaded_cfg);
    ExpectBitEquivalent(swtch, threaded,
                        "seed=" + std::to_string(seed) +
                            " eager context threaded-vs-switch");
    if (::testing::Test::HasFailure()) {
      DumpFailure(seed, /*ept=*/true, threaded);
      return;
    }
  }
}

}  // namespace
}  // namespace pf::core

// Custom main (overrides gtest_main's): resolves the seed list before any
// test runs. Precedence: --pf_fuzz_seed flag, then PF_FUZZ_SEED, then
// PF_FUZZ_SEEDS (a count of consecutive seeds, for CI sharding), then the
// 16-seed default; the regression seeds join every run but a single-seed one.
int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);

  uint64_t single = 0;
  bool have_single = false;
  int count = pf::core::kDefaultSeedCount;
  for (int i = 1; i < argc; ++i) {
    constexpr const char kFlag[] = "--pf_fuzz_seed=";
    if (std::strncmp(argv[i], kFlag, sizeof(kFlag) - 1) == 0) {
      single = std::strtoull(argv[i] + sizeof(kFlag) - 1, nullptr, 0);
      have_single = true;
    }
  }
  if (const char* env = std::getenv("PF_FUZZ_SEED"); env != nullptr && !have_single) {
    single = std::strtoull(env, nullptr, 0);
    have_single = true;
  }
  if (const char* env = std::getenv("PF_FUZZ_SEEDS"); env != nullptr) {
    count = std::atoi(env);
    if (count < 1) {
      count = 1;
    }
  }

  std::vector<uint64_t>& seeds = pf::core::SeedList();
  if (have_single) {
    seeds = {single};
  } else {
    for (int i = 0; i < count; ++i) {
      seeds.push_back(pf::core::kSeedBase + static_cast<uint64_t>(i));
    }
    for (uint64_t seed : pf::core::kRegressionSeeds) {
      if (seed >= pf::core::kSeedBase + static_cast<uint64_t>(count)) {
        seeds.push_back(seed);
      }
    }
  }
  return RUN_ALL_TESTS();
}
