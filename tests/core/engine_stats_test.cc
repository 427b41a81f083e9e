// Engine statistics under concurrency. Each per-worker counter block has one
// writer, the thread holding its worker index, which bumps it with a plain
// load and store; threads whose index is past Engine::kStatsBlocks share one
// overflow block that adds atomically; and ResetStats() records a baseline
// instead of zeroing blocks whose owners may be mid-bump. The test pins all
// three: a reset inside an owner's bump keeps the owner's count; with more
// threads live than blocks, a read racing resets never exceeds the
// decisions begun since (nor wraps in a torn read); and a known batch is
// counted exactly, the overflow block's share included.

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/apps/programs.h"
#include "src/core/engine.h"
#include "src/core/pftables.h"
#include "src/sim/sysimage.h"

namespace pf::core {
namespace {

// A deny-shadow rule plus entrypoint-indexed rules: a denied decision bumps
// the invocation and drop counters, an allowed one the invocation,
// context-fetch, unwind and index-hit counters. No counter moves twice in
// one decision.
struct Rig {
  sim::Kernel kernel{0x5eed};
  Engine* engine = nullptr;
  std::unique_ptr<Pftables> pft;
  std::shared_ptr<sim::Inode> shadow;
  std::shared_ptr<sim::Inode> passwd;

  Rig() {
    sim::BuildSysImage(kernel);
    apps::InstallPrograms(kernel);
    engine = InstallProcessFirewall(kernel);
    pft = std::make_unique<Pftables>(engine);
    std::vector<std::string> rules = {"pftables -o FILE_OPEN -d shadow_t -j DROP"};
    for (int i = 0; i < 16; ++i) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "pftables -p /bin/true -i 0x%x -o FILE_OPEN -j CONTINUE",
                    0x100 + i * 0x40);
      rules.emplace_back(buf);
    }
    const Status s = pft->ExecAll(rules);
    EXPECT_TRUE(s.ok()) << s.message();
    shadow = kernel.LookupNoHooks("/etc/shadow");
    passwd = kernel.LookupNoHooks("/etc/passwd");
  }

  // A task on /bin/true whose entrypoint is the first indexed offset.
  std::unique_ptr<sim::Task> MakeTask(int idx) {
    auto task = std::make_unique<sim::Task>();
    task->pid = static_cast<sim::Pid>(2000 + idx);
    task->syscall_depth = 1;
    task->comm = "stats";
    task->exe = sim::kBinTrue;
    task->cred.sid = kernel.labels().Intern("staff_t");
    task->cwd = kernel.vfs().root()->id();
    task->mm.Reset(kernel.AslrStackBase());
    kernel.MapImage(*task, kernel.LookupNoHooks(sim::kBinTrue), sim::kBinTrue);
    const sim::Mapping* map = task->mm.FindMappingByPath(sim::kBinTrue);
    task->mm.PushFrame(map->base + 0x100, 16, false);
    return task;
  }

  // Decision `i` of a new system call on `task`: even ones are denied.
  int64_t Decide(sim::Task& task, uint64_t i) {
    ++task.syscall_count;
    sim::Inode* inode = i % 2 == 0 ? shadow.get() : passwd.get();
    sim::AccessRequest req;
    req.task = &task;
    req.op = sim::Op::kFileOpen;
    req.inode = inode;
    req.id = inode->id();
    req.syscall_nr = sim::SyscallNr::kOpen;
    return engine->Authorize(req);
  }
};

// Every counter of `s` stays within `bound`.
void ExpectWithin(const EngineStats& s, uint64_t bound, const char* who, int round) {
  ASSERT_LE(s.invocations, bound) << who << " " << round;
  ASSERT_LE(s.drops, bound) << who << " " << round;
  ASSERT_LE(s.ctx_fetches[static_cast<size_t>(Ctx::kEntrypoint)], bound) << who << " " << round;
  ASSERT_LE(s.unwinds, bound) << who << " " << round;
  ASSERT_LE(s.ept_chain_hits, bound) << who << " " << round;
}

// A worker's bump is a load and a store of its own counter. A reset that
// stored zeros into worker blocks would lose to an owner that loaded just
// before it and stores just after: the pre-reset count comes back. That
// window is a few nanoseconds wide, so this test stands in for the owner
// and puts the reset inside it.
TEST(EngineStatsTest, ResetInsideAnOwnersBumpKeepsTheCount) {
  Rig rig;
  std::unique_ptr<sim::Task> task = rig.MakeTask(0);
  for (uint64_t i = 0; i < 5; ++i) {
    rig.Decide(*task, i);
  }
  std::atomic<uint64_t>& invocations =
      rig.engine->StatsBlock(WorkerIndex()).counters[static_cast<size_t>(Stat::kInvocations)];
  const uint64_t loaded = invocations.load(std::memory_order_relaxed);
  rig.engine->ResetStats();
  invocations.store(loaded + 1, std::memory_order_relaxed);
  EXPECT_EQ(rig.engine->stats().invocations, 1u) << "the reset lost to the owner's store";
  rig.Decide(*task, 5);
  EXPECT_EQ(rig.engine->stats().invocations, 2u);
}

// With a baseline, a read after a reset counts at most the decisions begun
// since that reset began, plus one in flight per thread. The main thread
// checks that right after each reset; a reader thread checks it
// concurrently against the last reset to complete, torn snapshots included.
TEST(EngineStatsTest, CountsStayExactPastTheBlockCountUnderConcurrentReset) {
  constexpr int kThreads = static_cast<int>(Engine::kStatsBlocks) + 8;
  constexpr int kResets = 2000;
  constexpr int kReads = 200;
  constexpr uint64_t kBatch = 40;
  Rig rig;
  std::vector<std::unique_ptr<sim::Task>> tasks;
  for (int t = 0; t < kThreads; ++t) {
    tasks.push_back(rig.MakeTask(t));
  }
  // Decisions begun, one counter per thread so the deciders share no hot
  // cache line the engine itself does not.
  struct alignas(64) Begun {
    std::atomic<uint64_t> n{0};
  };
  std::vector<Begun> begun(kThreads);
  auto total_begun = [&] {
    uint64_t sum = 0;
    for (const Begun& b : begun) {
      sum += b.n.load();
    }
    return sum;
  };

  // Every thread takes its worker index with a first decision and holds it
  // to the end, so all of them are live at once throughout.
  std::barrier leased(kThreads + 1);
  std::barrier raced(kThreads + 1);
  std::barrier counted(kThreads + 1);
  std::atomic<bool> stop{false};
  std::atomic<size_t> max_index{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      rig.Decide(*tasks[t], 1);
      const size_t mine = WorkerIndex();
      size_t seen = max_index.load();
      while (mine > seen && !max_index.compare_exchange_weak(seen, mine)) {
      }
      leased.arrive_and_wait();
      for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        begun[t].n.fetch_add(1);
        rig.Decide(*tasks[t], i);
      }
      raced.arrive_and_wait();  // main resets here
      raced.arrive_and_wait();
      for (uint64_t i = 0; i < kBatch; ++i) {
        rig.Decide(*tasks[t], i);
      }
      counted.arrive_and_wait();  // main reads the batch here
      counted.arrive_and_wait();
    });
  }
  leased.arrive_and_wait();

  // Decisions begun before the last reset to complete began.
  std::atomic<uint64_t> completed_from{0};
  std::atomic<bool> stop_reader{false};
  std::atomic<int> reads{0};
  std::thread reader([&] {
    while (!stop_reader.load()) {
      const uint64_t from = completed_from.load(std::memory_order_acquire);
      const EngineStats s = rig.engine->stats();
      ExpectWithin(s, total_begun() - from + kThreads, "concurrent read", reads.load());
      reads.fetch_add(1);
    }
  });
  for (int r = 0; r < kResets || reads.load() < kReads; ++r) {
    const uint64_t before = total_begun();
    rig.engine->ResetStats();
    completed_from.store(before, std::memory_order_release);
    const EngineStats s = rig.engine->stats();
    ExpectWithin(s, total_begun() - before + kThreads, "reset", r);
  }
  stop_reader = true;
  reader.join();
  stop = true;
  raced.arrive_and_wait();
  rig.engine->ResetStats();
  raced.arrive_and_wait();
  counted.arrive_and_wait();
  const EngineStats s = rig.engine->stats();
  counted.arrive_and_wait();
  for (std::thread& th : threads) {
    th.join();
  }

  ASSERT_GE(max_index.load(), Engine::kStatsBlocks) << "no thread reached the overflow block";
  const uint64_t total = uint64_t{kThreads} * kBatch;
  EXPECT_FALSE(s.torn);
  EXPECT_EQ(s.invocations, total);
  EXPECT_EQ(s.drops, total / 2);
  EXPECT_EQ(s.ctx_fetches[static_cast<size_t>(Ctx::kEntrypoint)], total / 2);
  EXPECT_EQ(s.unwinds, total / 2) << "every decision opens a new system call";
  EXPECT_EQ(s.ept_chain_hits, total / 2);
}

}  // namespace
}  // namespace pf::core
