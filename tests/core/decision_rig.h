// A booted kernel with one engine and one task, for engine-level tests whose
// expectations are worked out by hand: install a rule base as pftables
// text, build one request, Authorize it, and read back the verdict, the
// per-rule hit and eval counters, and the task's STATE dictionary. Every
// decision goes through the shipping program evaluator.
#ifndef TESTS_CORE_DECISION_RIG_H_
#define TESTS_CORE_DECISION_RIG_H_

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/engine.h"
#include "src/core/pftables.h"
#include "src/sim/sysimage.h"

namespace pf::core {

inline constexpr int64_t kAllow = 0;
inline constexpr int64_t kDeny = sim::SysError(sim::Err::kAcces);

struct DecisionRig {
  sim::Kernel kernel{0x5eed};
  Engine* engine = nullptr;
  std::unique_ptr<Pftables> pft;
  // A staff_t task running /bin/true with an empty call stack; Frame()
  // pushes frames (the last one pushed is the entrypoint).
  sim::Task task;
  std::vector<std::shared_ptr<sim::Inode>> pins;  // keeps request inodes alive

  explicit DecisionRig(const std::vector<std::string>& rules, EngineConfig cfg = {}) {
    sim::BuildSysImage(kernel);
    engine = InstallProcessFirewall(kernel, cfg);
    pft = std::make_unique<Pftables>(engine);
    const Status s = pft->ExecAll(rules);
    EXPECT_TRUE(s.ok()) << s.message();
    task.pid = 55;
    // Decide() models each request as the first hook of a new system call.
    task.syscall_depth = 1;
    task.comm = "rig";
    task.exe = sim::kBinTrue;
    task.cred.sid = kernel.labels().Intern("staff_t");
    task.cwd = kernel.vfs().root()->id();
    task.mm.Reset(kernel.AslrStackBase());
    kernel.MapImage(task, kernel.LookupNoHooks(sim::kBinTrue), sim::kBinTrue);
  }

  // Pushes a call frame whose pc is /bin/true's mapping base + `offset`.
  void Frame(uint64_t offset) {
    const sim::Mapping* map = task.mm.FindMappingByPath(sim::kBinTrue);
    task.mm.PushFrame(map->base + offset, 16, false);
  }

  // A request on `path`'s inode (no hooks run for the lookup itself).
  sim::AccessRequest On(sim::Op op, const std::string& path,
                        sim::SyscallNr nr = sim::SyscallNr::kOpen) {
    auto inode = kernel.LookupNoHooks(path);
    EXPECT_NE(inode, nullptr) << path;
    sim::AccessRequest req;
    req.task = &task;
    req.op = op;
    req.inode = inode.get();
    req.id = inode->id();
    req.syscall_nr = nr;
    pins.push_back(std::move(inode));
    return req;
  }
  sim::AccessRequest Open(const std::string& path) { return On(sim::Op::kFileOpen, path); }

  // A request that carries no object (signal delivery, bind, syscall entry).
  sim::AccessRequest Bare(sim::Op op, sim::SyscallNr nr = sim::SyscallNr::kNull) {
    sim::AccessRequest req;
    req.task = &task;
    req.op = op;
    req.syscall_nr = nr;
    return req;
  }

  // Authorizes `req` as the first hook of a new system call.
  int64_t Decide(sim::AccessRequest req) {
    ++task.syscall_count;
    return engine->Authorize(req);
  }

  const Rule& RuleAt(const std::string& chain, size_t pos) const {
    return *engine->ruleset().filter().Find(chain)->rules().at(pos - 1);
  }
  // Counters of rule `pos` (1-based, as pftables -L numbers it).
  uint64_t Hits(size_t pos, const std::string& chain = "input") const {
    return RuleAt(chain, pos).hits.load(std::memory_order_relaxed);
  }
  uint64_t Evals(size_t pos, const std::string& chain = "input") const {
    return RuleAt(chain, pos).evals.load(std::memory_order_relaxed);
  }

  std::map<std::string, int64_t>& Dict() { return engine->TaskState(task).dict; }
};

}  // namespace pf::core

#endif  // TESTS_CORE_DECISION_RIG_H_
