// The allow path allocates nothing once its syscall's unwind is cached: a
// decision that reuses the per-syscall stack snapshot reaches its task state,
// the snapshot and the compiled program without touching the heap. This
// binary replaces the global operator new to count allocations made while a
// decision runs.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "src/apps/programs.h"
#include "src/core/engine.h"
#include "src/core/pftables.h"
#include "src/sim/sysimage.h"

namespace {
thread_local bool g_counting = false;
thread_local size_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  if (g_counting) {
    ++g_allocations;
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace pf::core {
namespace {

TEST(HotPathAllocTest, AllowReusingTheSyscallsUnwindAllocatesNothing) {
  sim::Kernel kernel{0x5eed};
  sim::BuildSysImage(kernel);
  apps::InstallPrograms(kernel);
  Engine* engine = InstallProcessFirewall(kernel);
  Pftables pft(engine);
  // An entrypoint-indexed rule for another binding: every FILE_OPEN needs
  // the caller's entrypoint, and this one is allowed. The image path is
  // longer than a short-string buffer, so copying it would allocate.
  ASSERT_TRUE(pft.Exec("pftables -p /usr/bin/apache2 -i 0x900 -o FILE_OPEN -j DROP").ok());

  sim::Task task;
  task.pid = 500;
  task.exe = sim::kApache;
  task.cred.sid = kernel.labels().Intern("httpd_t");
  task.mm.Reset(kernel.AslrStackBase());
  kernel.MapImage(task, kernel.LookupNoHooks(sim::kApache), sim::kApache);
  const sim::Mapping* map = task.mm.FindMappingByPath(sim::kApache);
  task.mm.PushFrame(map->base + 0x100, 16, false);

  auto inode = kernel.LookupNoHooks("/etc/passwd");
  sim::AccessRequest req;
  req.task = &task;
  req.op = sim::Op::kFileOpen;
  req.inode = inode.get();
  req.id = inode->id();
  req.syscall_nr = sim::SyscallNr::kOpen;

  ++task.syscall_count;
  ASSERT_EQ(engine->Authorize(req), 0);  // unwinds and caches the snapshot
  const EngineStats before = engine->stats();

  g_allocations = 0;
  g_counting = true;
  const int64_t verdict = engine->Authorize(req);  // same syscall: reuses it
  g_counting = false;
  EXPECT_EQ(verdict, 0);
  EXPECT_EQ(g_allocations, 0u);

  const EngineStats after = engine->stats();
  EXPECT_EQ(after.unwinds, before.unwinds);
  EXPECT_EQ(after.unwind_cache_hits, before.unwind_cache_hits + 1);
}

}  // namespace
}  // namespace pf::core
