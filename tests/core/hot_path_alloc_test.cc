// The allow path allocates nothing once the task's PF state exists: a
// decision reaches its task state, the context cache and the compiled
// program without touching the heap, whether it reuses its syscall's unwind
// or unwinds afresh, and so does an interpreter-stack fetch. This binary
// replaces the global operator new to count allocations made while a
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

class HotPathAllocTest : public ::testing::Test {
 protected:
  HotPathAllocTest() {
    sim::BuildSysImage(kernel);
    apps::InstallPrograms(kernel);
    engine = InstallProcessFirewall(kernel);
    pft = std::make_unique<Pftables>(engine);

    task.pid = 500;
    task.syscall_depth = 1;  // the requests run inside a system call
    task.exe = sim::kApache;
    task.cred.sid = kernel.labels().Intern("httpd_t");
    task.mm.Reset(kernel.AslrStackBase());
    kernel.MapImage(task, kernel.LookupNoHooks(sim::kApache), sim::kApache);
    const sim::Mapping* map = task.mm.FindMappingByPath(sim::kApache);
    task.mm.PushFrame(map->base + 0x100, 16, false);

    inode = kernel.LookupNoHooks("/etc/passwd");
    req.task = &task;
    req.op = sim::Op::kFileOpen;
    req.inode = inode.get();
    req.id = inode->id();
    req.syscall_nr = sim::SyscallNr::kOpen;
  }

  // Authorizes `req` and returns the heap allocations it made; the verdict
  // must be an allow.
  size_t CountAllocations() {
    g_allocations = 0;
    g_counting = true;
    const int64_t verdict = engine->Authorize(req);
    g_counting = false;
    EXPECT_EQ(verdict, 0);
    return g_allocations;
  }

  sim::Kernel kernel{0x5eed};
  Engine* engine = nullptr;
  std::unique_ptr<Pftables> pft;
  sim::Task task;
  std::shared_ptr<sim::Inode> inode;
  sim::AccessRequest req;
};

// An entrypoint-indexed rule for another call site: every FILE_OPEN needs
// the caller's entrypoint, and this one is allowed. The image path is longer
// than a short-string buffer, so copying it would allocate.
constexpr const char* kEntrypointRule =
    "pftables -p /usr/bin/apache2 -i 0x900 -o FILE_OPEN -j DROP";

TEST_F(HotPathAllocTest, AllowReusingTheSyscallsUnwindAllocatesNothing) {
  ASSERT_TRUE(pft->Exec(kEntrypointRule).ok());
  ++task.syscall_count;
  ASSERT_EQ(engine->Authorize(req), 0);  // unwinds and fills the cache
  const EngineStats before = engine->stats();

  EXPECT_EQ(CountAllocations(), 0u);  // same syscall: reuses it

  const EngineStats after = engine->stats();
  EXPECT_EQ(after.unwinds, before.unwinds);
  EXPECT_EQ(after.unwind_cache_hits, before.unwind_cache_hits + 1);
}

TEST_F(HotPathAllocTest, DecisionThatUnwindsAllocatesNothing) {
  ASSERT_TRUE(pft->Exec(kEntrypointRule).ok());
  ++task.syscall_count;
  ASSERT_EQ(engine->Authorize(req), 0);  // creates the task's PF state
  const EngineStats before = engine->stats();

  ++task.syscall_count;  // a new syscall: the cached unwind is stale
  EXPECT_EQ(CountAllocations(), 0u);

  const EngineStats after = engine->stats();
  EXPECT_EQ(after.unwinds, before.unwinds + 1);
  EXPECT_EQ(after.unwind_cache_hits, before.unwind_cache_hits);
}

TEST_F(HotPathAllocTest, InterpContextFetchAllocatesNothing) {
  // The rule needs the interpreter stack and does not match the running
  // script, whose path is too long for a short-string buffer.
  ASSERT_TRUE(
      pft->Exec("pftables -o FILE_OPEN -m INTERP --script gcalendar.php --lang php -j DROP")
          .ok());
  const sim::Addr node = task.mm.ArenaAlloc(24);
  ASSERT_NE(node, sim::kNullAddr);
  const uint32_t script_id = task.RegisterScript("/var/www/application/index-page.php");
  const uint32_t line = 7;
  const uint32_t lang = static_cast<uint32_t>(sim::InterpLang::kPhp);
  task.mm.WriteU64(node, sim::kNullAddr);
  task.mm.CopyToUser(node + 8, &script_id, 4);
  task.mm.CopyToUser(node + 12, &line, 4);
  task.mm.CopyToUser(node + 16, &lang, 4);
  task.mm.set_interp_head(node);

  ++task.syscall_count;
  ASSERT_EQ(engine->Authorize(req), 0);  // creates the task's PF state
  const uint64_t fetches = engine->stats().ctx_fetches[static_cast<size_t>(Ctx::kInterpStack)];

  ++task.syscall_count;
  EXPECT_EQ(CountAllocations(), 0u) << "a fresh interpreter-stack walk";
  EXPECT_EQ(CountAllocations(), 0u) << "a cached interpreter-stack record";
  EXPECT_EQ(engine->stats().ctx_fetches[static_cast<size_t>(Ctx::kInterpStack)],
            fetches + 2);
}

}  // namespace
}  // namespace pf::core
