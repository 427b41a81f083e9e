// Per-task PF state lives in the task's own security slot
// (sim::Task::security), one slot per engine: fork copies the STATE
// dictionary, exec drops the unwind snapshots, exit frees what the state
// holds, and two engines on one kernel never see each other's dictionaries
// — whether or not they were registered through Kernel::AddModule.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>

#include "src/apps/programs.h"
#include "src/core/engine.h"
#include "src/core/pftables.h"
#include "src/sim/sched.h"
#include "src/sim/sysimage.h"

namespace pf::core {
namespace {

using Dict = std::map<std::string, int64_t>;

struct Rig {
  sim::Kernel kernel{0x5eed};

  Rig() {
    sim::BuildSysImage(kernel);
    apps::InstallPrograms(kernel);
  }

  // A raw task on /bin/true with one user frame at image offset 0x100.
  std::unique_ptr<sim::Task> MakeTask(sim::Pid pid) {
    auto task = std::make_unique<sim::Task>();
    task->pid = pid;
    task->comm = "slot";
    task->exe = sim::kBinTrue;
    task->cred.sid = kernel.labels().Intern("staff_t");
    task->cwd = kernel.vfs().root()->id();
    task->mm.Reset(kernel.AslrStackBase());
    kernel.MapImage(*task, kernel.LookupNoHooks(sim::kBinTrue), sim::kBinTrue);
    const sim::Mapping* map = task->mm.FindMappingByPath(sim::kBinTrue);
    task->mm.PushFrame(map->base + 0x100, 16, false);
    return task;
  }

  static int64_t Bind(Engine& engine, sim::Task& task) {
    ++task.syscall_count;
    sim::AccessRequest req;
    req.task = &task;
    req.op = sim::Op::kSocketBind;
    req.name = "/tmp/sock";
    req.syscall_nr = sim::SyscallNr::kBind;
    return engine.Authorize(req);
  }

  int64_t Open(Engine& engine, sim::Task& task, const char* path) {
    ++task.syscall_count;
    auto inode = kernel.LookupNoHooks(path);
    sim::AccessRequest req;
    req.task = &task;
    req.op = sim::Op::kFileOpen;
    req.inode = inode.get();
    req.id = inode->id();
    req.syscall_nr = sim::SyscallNr::kOpen;
    return engine.Authorize(req);
  }
};

TEST(TaskSlotTest, ForkCopiesTheDictionaryAndWritesStayApart) {
  Rig rig;
  Engine* engine = InstallProcessFirewall(rig.kernel);
  Pftables pft(engine);
  ASSERT_TRUE(pft.ExecAll({
                     "pftables -o SOCKET_BIND -j STATE --set --key b --value 1",
                     "pftables -o FILE_OPEN -d shadow_t -j STATE --set --key b --value 2",
                     "pftables -o FILE_OPEN -d etc_t -j STATE --set --key c --value 5",
                 })
                  .ok());
  auto parent = rig.MakeTask(400);
  auto child = rig.MakeTask(401);
  EXPECT_EQ(Rig::Bind(*engine, *parent), 0);
  engine->OnTaskFork(*parent, *child);
  EXPECT_EQ(engine->TaskState(*child).dict, (Dict{{"b", 1}}));

  EXPECT_EQ(rig.Open(*engine, *child, "/etc/shadow"), 0);   // child: b=2
  EXPECT_EQ(rig.Open(*engine, *parent, "/etc/passwd"), 0);  // parent: c=5
  EXPECT_EQ(engine->TaskState(*parent).dict, (Dict{{"b", 1}, {"c", 5}}));
  EXPECT_EQ(engine->TaskState(*child).dict, (Dict{{"b", 2}}));
  EXPECT_NE(parent->security[engine->slot()], child->security[engine->slot()]);
}

TEST(TaskSlotTest, ExecDropsUnwindsAndExitFreesTheState) {
  Rig rig;
  Engine* engine = InstallProcessFirewall(rig.kernel);
  Pftables pft(engine);
  ASSERT_TRUE(pft.ExecAll({
                     "pftables -o SOCKET_BIND -j STATE --set --key b --value 1",
                     "pftables -p /bin/true -i 0x100 -o FILE_OPEN -d shadow_t -j DROP",
                 })
                  .ok());
  auto task = rig.MakeTask(402);
  EXPECT_EQ(Rig::Bind(*engine, *task), 0);
  EXPECT_LT(rig.Open(*engine, *task, "/etc/shadow"), 0) << "the unwind fills the cache";
  PfTaskState& state = engine->TaskState(*task);
  std::weak_ptr<const StackSnapshot> snapshot = state.stack.load();
  ASSERT_FALSE(snapshot.expired());

  engine->OnTaskExec(*task);
  EXPECT_TRUE(snapshot.expired()) << "exec must drop the unwind snapshot";
  EXPECT_EQ(state.dict, (Dict{{"b", 1}})) << "exec keeps the dictionary";

  EXPECT_LT(rig.Open(*engine, *task, "/etc/shadow"), 0);
  snapshot = state.stack.load();
  ASSERT_FALSE(snapshot.expired());
  engine->OnTaskExit(*task);
  EXPECT_TRUE(snapshot.expired()) << "exit must free the unwind snapshot";
  EXPECT_TRUE(state.dict.empty()) << "exit must free the dictionary";
}

TEST(TaskSlotTest, RegisteredAndUnregisteredEnginesKeepSeparateDictionaries) {
  Rig rig;
  Engine* registered = InstallProcessFirewall(rig.kernel);
  Engine loose(rig.kernel, {});
  Pftables reg_pft(registered);
  Pftables loose_pft(&loose);
  ASSERT_TRUE(reg_pft.Exec("pftables -o SOCKET_BIND -j STATE --set --key b --value 1").ok());
  ASSERT_TRUE(
      loose_pft.Exec("pftables -o SOCKET_BIND -j STATE --set --key b --value 2").ok());
  EXPECT_NE(registered->slot(), loose.slot());

  auto task = rig.MakeTask(403);
  EXPECT_EQ(Rig::Bind(*registered, *task), 0);
  EXPECT_EQ(Rig::Bind(loose, *task), 0);
  EXPECT_EQ(registered->TaskState(*task).dict, (Dict{{"b", 1}}));
  EXPECT_EQ(loose.TaskState(*task).dict, (Dict{{"b", 2}}));
}

// A module that forwards the hooks to an engine it owns, registered in the
// engine's place: the engine is built first and adopts the slot AddModule
// hands the wrapper.
class ForwardingModule : public sim::SecurityModule {
 public:
  explicit ForwardingModule(std::unique_ptr<Engine> engine) : engine_(std::move(engine)) {}
  std::string_view ModuleName() const override { return "pf"; }
  int64_t Authorize(sim::AccessRequest& req) override { return engine_->Authorize(req); }
  void OnTaskExit(sim::Task& task) override { engine_->OnTaskExit(task); }
  void OnTaskFork(sim::Task& parent, sim::Task& child) override {
    engine_->OnTaskFork(parent, child);
  }
  void OnTaskExec(sim::Task& task) override { engine_->OnTaskExec(task); }

 private:
  std::unique_ptr<Engine> engine_;
};

TEST(TaskSlotTest, EngineRegisteredBehindAWrapperUsesTheWrappersSlot) {
  Rig rig;
  auto owned = std::make_unique<Engine>(rig.kernel, EngineConfig{});
  Engine* engine = owned.get();
  const size_t slot =
      rig.kernel.AddModule(std::make_unique<ForwardingModule>(std::move(owned)));
  engine->set_slot(slot);
  EXPECT_EQ(engine->slot(), slot);
  Pftables pft(engine);
  ASSERT_TRUE(pft.Exec("pftables -o SOCKET_BIND -j STATE --set --key b --value 1").ok());

  // Through the kernel's own hooks: the child inherits b=1 across fork.
  sim::Scheduler sched(rig.kernel);
  sim::Pid pid = sched.Spawn({.name = "wrapped", .exe = sim::kBinTrue}, [&](sim::Proc& p) {
    int64_t fd = p.Socket();
    p.Bind(static_cast<int>(fd), "/tmp/s");
    int64_t child = p.Fork([&](sim::Proc& c) {
      const Dict& dict = engine->TaskState(c.task()).dict;
      c.Exit(dict == Dict{{"b", 1}} ? 0 : 1);
    });
    int status = -1;
    p.Waitpid(static_cast<sim::Pid>(child), &status);
    p.Exit(status);
  });
  EXPECT_EQ(sched.RunUntilExit(pid), 0);
  EXPECT_NE(rig.kernel.FindModule("pf"), nullptr);
}

}  // namespace
}  // namespace pf::core
