// Adversarial-robustness fuzzing of the kernel-side unwinders (paper §4.4):
// a malicious process may write anything into its user memory. For hundreds
// of seeded random corruptions, the unwinders must (a) never read outside
// the user region (enforced by CopyFromUser, crash = test failure),
// (b) terminate within the frame limits, (c) never fabricate frames with
// PCs outside mapped images, and (d) agree with the innermost-only walks the
// engine's context cache uses, on the status and the first frame.

#include <gtest/gtest.h>

#include "src/core/unwind.h"
#include "src/sim/kernel.h"
#include "src/sim/rng.h"
#include "src/sim/sysimage.h"

namespace pf::core {
namespace {

class UnwindFuzz : public ::testing::TestWithParam<uint64_t> {
 protected:
  UnwindFuzz() : kernel_(0xfacade) { sim::BuildSysImage(kernel_); }

  // Gives `task` a plausible stack (the tests then corrupt it).
  void InitTask(sim::Task& task, sim::SplitMix64& rng) {
    task.pid = 9;
    task.exe = sim::kBinTrue;
    task.mm.Reset(kernel_.AslrStackBase());
    kernel_.MapImage(task, kernel_.LookupNoHooks(sim::kBinTrue), sim::kBinTrue);
    const sim::Mapping* map = task.mm.FindMappingByPath(sim::kBinTrue);
    int frames = static_cast<int>(rng.Range(1, 12));
    for (int i = 0; i < frames; ++i) {
      task.mm.PushFrame(map->base + rng.Range(0x10, 0x3fff00), rng.Range(0, 64),
                        rng.Chance(0.3));
    }
  }

  sim::Kernel kernel_;
};

TEST_P(UnwindFuzz, RandomStackCorruptionIsContained) {
  sim::SplitMix64 rng(GetParam());
  sim::Task task;
  InitTask(task, rng);
  // Corrupt a handful of random user-memory words, possibly including the
  // FP register itself.
  int corruptions = static_cast<int>(rng.Range(1, 12));
  for (int i = 0; i < corruptions; ++i) {
    sim::Addr at = task.mm.region_base() + (rng.Below(sim::kUserRegionSize - 8) & ~7ULL);
    task.mm.WriteU64(at, rng.Next());
  }
  if (rng.Chance(0.3)) {
    task.mm.set_fp(rng.Next());
  }
  UnwindResult res = UnwindUserStack(task);
  EXPECT_LE(res.frames.size(), static_cast<size_t>(kMaxUnwindFrames));
  for (const BinFrame& f : res.frames) {
    EXPECT_NE(task.mm.FindMapping(f.pc), nullptr)
        << "unwinder fabricated a PC outside every image";
  }
  // The innermost-only walk (what the engine caches) runs the same checks.
  const InnermostFrame top = UnwindInnermost(task);
  EXPECT_EQ(top.status, res.status);
  ASSERT_EQ(top.found, !res.frames.empty());
  EXPECT_EQ(top.usable(), res.usable());
  if (top.found) {
    EXPECT_EQ(top.frame.pc, res.frames.front().pc);
    EXPECT_EQ(top.frame.image, res.frames.front().image);
    EXPECT_EQ(top.frame.offset, res.frames.front().offset);
  }
}

TEST_P(UnwindFuzz, RandomInterpListCorruptionIsContained) {
  sim::SplitMix64 rng(GetParam() ^ 0x1234);
  sim::Task task;
  InitTask(task, rng);
  // Build a random interpreter list, then corrupt node links.
  sim::Addr head = sim::kNullAddr;
  int nodes = static_cast<int>(rng.Range(1, 20));
  for (int i = 0; i < nodes; ++i) {
    sim::Addr node = task.mm.ArenaAlloc(24);
    if (node == sim::kNullAddr) {
      break;
    }
    task.mm.WriteU64(node, head);
    uint32_t vals[4] = {static_cast<uint32_t>(rng.Next()),
                        static_cast<uint32_t>(rng.Next()),
                        static_cast<uint32_t>(rng.Below(4)), 0};
    task.mm.CopyToUser(node + 8, vals, 16);
    head = node;
  }
  task.mm.set_interp_head(head);
  for (int i = 0; i < 4; ++i) {
    sim::Addr at = task.mm.region_base() + (rng.Below(sim::kArenaSize) & ~7ULL);
    task.mm.WriteU64(at, rng.Next());
  }
  if (rng.Chance(0.25)) {
    task.mm.set_interp_head(rng.Next());
  }
  InterpUnwindResult res = UnwindInterpStack(task);
  EXPECT_LE(res.frames.size(), static_cast<size_t>(kMaxInterpFrames));
  const InterpTop top = UnwindInterpTop(task);
  EXPECT_EQ(top.status, res.status);
  ASSERT_EQ(top.found, !res.frames.empty());
  if (top.found) {
    EXPECT_EQ(top.lang, res.frames.front().lang);
    EXPECT_EQ(top.script_id, res.frames.front().script_id);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnwindFuzz, ::testing::Range<uint64_t>(1, 121));

}  // namespace
}  // namespace pf::core
