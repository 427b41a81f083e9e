// Entrypoint context retrieval: binary stack unwinding across the three
// methods (FP chain, unwind tables, prologue scan), interpreter backtraces,
// and — critically — robustness against malicious user memory (paper §4.4).

#include <gtest/gtest.h>

#include "src/core/unwind.h"
#include "src/sim/sched.h"
#include "src/sim/sysimage.h"
#include "tests/testutil.h"

namespace pf::core {
namespace {

using sim::Addr;
using sim::InterpFrame;
using sim::InterpLang;
using sim::Pid;
using sim::Proc;
using sim::SpawnOpts;
using sim::UserFrame;

class UnwindTest : public pf::testing::SimTest {
 protected:
  // Spawns a proc with /bin/true mapped, runs `body` inside it.
  void RunProc(std::function<void(Proc&)> body,
               const std::string& exe = sim::kBinTrue) {
    SpawnOpts opts;
    opts.exe = exe;
    Pid pid = sched().Spawn(opts, std::move(body));
    sched().RunUntilExit(pid);
  }
};

TEST_F(UnwindTest, UnwindsFramePointerChain) {
  RunProc([&](Proc& p) {
    UserFrame f1(p, sim::kBinTrue, 0x100);
    UserFrame f2(p, sim::kBinTrue, 0x200);
    UserFrame f3(p, sim::kBinTrue, 0x300);
    UnwindResult res = UnwindUserStack(p.task());
    ASSERT_EQ(res.status, UnwindStatus::kOk);
    // _start frame (pushed at spawn) + 3 explicit frames, innermost first.
    ASSERT_EQ(res.frames.size(), 4u);
    EXPECT_EQ(res.frames[0].offset, 0x300u);
    EXPECT_EQ(res.frames[1].offset, 0x200u);
    EXPECT_EQ(res.frames[2].offset, 0x100u);
    EXPECT_EQ(res.frames[3].offset, sim::kEntryOffset);
    EXPECT_EQ(res.frames[0].image, kernel().LookupNoHooks(sim::kBinTrue)->id());
  });
}

TEST_F(UnwindTest, OffsetsAreAslrIndependent) {
  uint64_t offset_run1 = 0;
  Addr pc_run1 = 0;
  RunProc([&](Proc& p) {
    UserFrame f(p, sim::kBinTrue, 0x4242);
    UnwindResult res = UnwindUserStack(p.task());
    ASSERT_TRUE(res.usable());
    offset_run1 = res.frames[0].offset;
    pc_run1 = res.frames[0].pc;
  });
  RunProc([&](Proc& p) {
    UserFrame f(p, sim::kBinTrue, 0x4242);
    UnwindResult res = UnwindUserStack(p.task());
    ASSERT_TRUE(res.usable());
    EXPECT_EQ(res.frames[0].offset, offset_run1) << "relative offsets must match";
    EXPECT_NE(res.frames[0].pc, pc_run1) << "ASLR must randomize absolute PCs";
  });
}

TEST_F(UnwindTest, CrossLibraryFrames) {
  RunProc([&](Proc& p) {
    int64_t fd = p.Open(sim::kLibDbus, sim::kORdOnly);
    ASSERT_GE(fd, 0);
    ASSERT_GT(p.MmapFd(static_cast<int>(fd)), 0);
    UserFrame f1(p, sim::kBinTrue, 0x900);
    UserFrame f2(p, sim::kLibDbus, 0x39231);
    UnwindResult res = UnwindUserStack(p.task());
    ASSERT_TRUE(res.usable());
    EXPECT_EQ(res.frames[0].image, kernel().LookupNoHooks(sim::kLibDbus)->id());
    EXPECT_EQ(res.frames[0].offset, 0x39231u);
    EXPECT_EQ(res.frames[1].image, kernel().LookupNoHooks(sim::kBinTrue)->id());
  });
}

TEST_F(UnwindTest, EhInfoRecoversBrokenChainAndDetectsTampering) {
  // Build a no-FP binary whose frames break the chain; eh-info allows
  // recovery via unwind tables.
  auto nofp = kernel().MkFileAt("/usr/bin/nofp", "\x7f" "ELF", 0755, 0, 0, "bin_t");
  auto img = std::make_unique<sim::BinaryImage>();
  img->entry_key = "/usr/bin/nofp";
  img->has_frame_pointers = false;
  img->has_eh_info = true;
  nofp->binary = std::move(img);

  RunProc(
      [&](Proc& p) {
        UserFrame f1(p, "/usr/bin/nofp", 0x500);
        UserFrame f2(p, "/usr/bin/nofp", 0x600);
        UnwindResult res = UnwindUserStack(p.task());
        ASSERT_EQ(res.status, UnwindStatus::kOk);
        ASSERT_EQ(res.frames.size(), 3u);
        EXPECT_EQ(res.frames[0].offset, 0x600u);
        EXPECT_EQ(res.frames[1].offset, 0x500u);

        // Now tamper: overwrite the caller's stored return PC. The table
        // cross-validation must abort instead of trusting corrupt memory.
        const auto& gt = p.task().mm.frames();
        sim::Addr caller_record = gt[gt.size() - 2].record;
        p.task().mm.WriteU64(caller_record + 8, 0xdeadbeef);
        UnwindResult tampered = UnwindUserStack(p.task());
        EXPECT_EQ(tampered.status, UnwindStatus::kAborted);
      },
      "/usr/bin/nofp");
}

TEST_F(UnwindTest, PrologueScanRecoversWithoutEhInfo) {
  auto bare = kernel().MkFileAt("/usr/bin/bare", "\x7f" "ELF", 0755, 0, 0, "bin_t");
  auto img = std::make_unique<sim::BinaryImage>();
  img->entry_key = "/usr/bin/bare";
  img->has_frame_pointers = false;
  img->has_eh_info = false;
  bare->binary = std::move(img);

  RunProc(
      [&](Proc& p) {
        UserFrame f1(p, "/usr/bin/bare", 0x700);
        UserFrame f2(p, "/usr/bin/bare", 0x800);
        UnwindResult res = UnwindUserStack(p.task());
        // The heuristic must recover at least the innermost frames.
        ASSERT_TRUE(res.usable());
        EXPECT_EQ(res.frames[0].offset, 0x800u);
        EXPECT_GE(res.frames.size(), 2u);
      },
      "/usr/bin/bare");
}

TEST_F(UnwindTest, CorruptFpRegisterAborts) {
  RunProc([&](Proc& p) {
    UserFrame f(p, sim::kBinTrue, 0x100);
    p.task().mm.set_fp(0x1234);  // points outside the user region
    UnwindResult res = UnwindUserStack(p.task());
    EXPECT_EQ(res.status, UnwindStatus::kAborted);
  });
}

TEST_F(UnwindTest, CyclicChainTerminatesBounded) {
  RunProc([&](Proc& p) {
    UserFrame f1(p, sim::kBinTrue, 0x100);
    UserFrame f2(p, sim::kBinTrue, 0x200);
    // Make the inner frame's saved-FP point at itself: a naive unwinder
    // would loop forever. Monotonicity forces the fallback paths (here the
    // unwind tables recover the true chain); the walk must stay bounded.
    sim::Mm& mm = p.task().mm;
    mm.WriteU64(mm.fp(), mm.fp());
    UnwindResult res = UnwindUserStack(p.task());
    EXPECT_LE(res.frames.size(), static_cast<size_t>(kMaxUnwindFrames));
    if (res.status == UnwindStatus::kOk) {
      // Recovery via tables must yield the true frames, not the forged loop.
      ASSERT_EQ(res.frames.size(), 3u);  // f2, f1, _start
      EXPECT_EQ(res.frames[0].offset, 0x200u);
      EXPECT_EQ(res.frames[1].offset, 0x100u);
    }
  });
}

TEST_F(UnwindTest, CyclicChainWithoutRecoveryInfoStillTerminates) {
  auto bare = kernel().MkFileAt("/usr/bin/bare2", "\x7f" "ELF", 0755, 0, 0, "bin_t");
  auto img = std::make_unique<sim::BinaryImage>();
  img->entry_key = "/usr/bin/bare2";
  img->has_frame_pointers = true;  // FP chain exists, but we forge a cycle
  img->has_eh_info = false;
  bare->binary = std::move(img);
  RunProc(
      [&](Proc& p) {
        UserFrame f1(p, "/usr/bin/bare2", 0x100);
        UserFrame f2(p, "/usr/bin/bare2", 0x200);
        sim::Mm& mm = p.task().mm;
        mm.WriteU64(mm.fp(), mm.fp());
        UnwindResult res = UnwindUserStack(p.task());
        EXPECT_LE(res.frames.size(), static_cast<size_t>(kMaxUnwindFrames));
      },
      "/usr/bin/bare2");
}

TEST_F(UnwindTest, ReturnAddressOutsideImagesAborts) {
  RunProc([&](Proc& p) {
    UserFrame f(p, sim::kBinTrue, 0x100);
    sim::Mm& mm = p.task().mm;
    mm.WriteU64(mm.fp() + 8, 0x4141414141414141ULL);
    UnwindResult res = UnwindUserStack(p.task());
    EXPECT_EQ(res.status, UnwindStatus::kAborted);
  });
}

TEST_F(UnwindTest, EmptyStackIsValidAndEmpty) {
  sim::Task task;
  task.mm.Reset(0x7ffc00000000ULL);
  UnwindResult res = UnwindUserStack(task);
  EXPECT_EQ(res.status, UnwindStatus::kOk);
  EXPECT_TRUE(res.frames.empty());
  EXPECT_FALSE(res.usable());
}

TEST_F(UnwindTest, InterpreterBacktrace) {
  RunProc([&](Proc& p) {
    InterpFrame f1(p, InterpLang::kPhp, "/var/www/app/index.php", 3);
    InterpFrame f2(p, InterpLang::kPhp, "/var/www/app/lib.php", 17);
    InterpUnwindResult res = UnwindInterpStack(p.task());
    ASSERT_EQ(res.status, UnwindStatus::kOk);
    ASSERT_EQ(res.frames.size(), 2u);
    EXPECT_EQ(res.frames[0].script_path, "/var/www/app/lib.php");
    EXPECT_EQ(res.frames[0].line, 17u);
    EXPECT_EQ(res.frames[1].script_path, "/var/www/app/index.php");
    EXPECT_EQ(res.frames[0].lang, InterpLang::kPhp);
  });
}

TEST_F(UnwindTest, InterpreterFramesUnwindAfterPop) {
  RunProc([&](Proc& p) {
    InterpFrame f1(p, InterpLang::kBash, "/etc/init.d/rc", 1);
    {
      InterpFrame f2(p, InterpLang::kBash, "/etc/init.d/apache2", 42);
    }
    InterpUnwindResult res = UnwindInterpStack(p.task());
    ASSERT_EQ(res.status, UnwindStatus::kOk);
    ASSERT_EQ(res.frames.size(), 1u);
    EXPECT_EQ(res.frames[0].script_path, "/etc/init.d/rc");
  });
}

TEST_F(UnwindTest, CyclicInterpListAborts) {
  RunProc([&](Proc& p) {
    InterpFrame f1(p, InterpLang::kPython, "/usr/bin/dstat", 10);
    InterpFrame f2(p, InterpLang::kPython, "/usr/bin/dstat", 20);
    // Forge a cycle: the newest node points at itself.
    sim::Mm& mm = p.task().mm;
    mm.WriteU64(f2.node(), f2.node());
    InterpUnwindResult res = UnwindInterpStack(p.task());
    EXPECT_EQ(res.status, UnwindStatus::kAborted);
  });
}

TEST_F(UnwindTest, NoInterpreterMeansEmptyOk) {
  RunProc([&](Proc& p) {
    InterpUnwindResult res = UnwindInterpStack(p.task());
    EXPECT_EQ(res.status, UnwindStatus::kOk);
    EXPECT_TRUE(res.frames.empty());
  });
}

}  // namespace
}  // namespace pf::core
