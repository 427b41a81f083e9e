// One booted simulated system under test, driven block by block.
//
// A System is a kernel with the system image, the workload's files, the
// Process Firewall with the workload's rule base, and one long-lived worker
// process. The director (the benchmark's main thread) hands the worker one
// block of ops at a time through a scheduler checkpoint; the worker times
// every op itself, so the hand-off is never inside a measurement.
#ifndef PERFBENCH_SYSTEM_H_
#define PERFBENCH_SYSTEM_H_

#include <memory>
#include <vector>

#include "perfbench/trace.h"
#include "perfbench/workload.h"
#include "src/core/engine.h"
#include "src/core/pftables.h"
#include "src/sim/sched.h"

namespace pf::perfbench {

enum class Mode {
  kPf,        // InstallProcessFirewall with the shipping EngineConfig
  kPfTraced,  // the same engine registered behind the timing PfShim
  kNoPf,      // the same rule base with EngineConfig::enabled = false
};

// Forwards every SecurityModule virtual to an Engine the benchmark built
// itself, timing each Authorize call as a span. Registered as "pf".
class PfShim : public sim::SecurityModule {
 public:
  PfShim(std::unique_ptr<core::Engine> engine, Tracer* tracer)
      : engine_(std::move(engine)), tracer_(tracer) {}

  std::string_view ModuleName() const override { return "pf"; }
  int64_t Authorize(sim::AccessRequest& req) override {
    tracer_->Begin(SpanKind::kAuthorize);
    const int64_t rv = engine_->Authorize(req);
    tracer_->NoteAuthorize(req.op, tracer_->End());
    return rv;
  }
  void OnSyscallEnter(sim::Task& task) override { engine_->OnSyscallEnter(task); }
  void OnSyscallExit(sim::Task& task) override { engine_->OnSyscallExit(task); }
  void OnTaskExit(sim::Task& task) override { engine_->OnTaskExit(task); }
  void OnTaskFork(sim::Task& parent, sim::Task& child) override {
    engine_->OnTaskFork(parent, child);
  }
  void OnTaskExec(sim::Task& task) override { engine_->OnTaskExec(task); }

 private:
  std::unique_ptr<core::Engine> engine_;
  Tracer* tracer_;
};

// Counters read after warm-up and at the end of the timed window.
struct Snapshot {
  uint64_t authorize_calls = 0;  // Kernel::authorize_calls()
  uint64_t syscalls = 0;         // the worker task's syscall count
  uint64_t denied = 0;           // ops the engine refused
  uint64_t audit_emitted = 0;
  uint64_t audit_records = 0;
  uint64_t audit_suppressed = 0;
  uint64_t audit_drained = 0;
  uint64_t audit_ring_drops = 0;
  uint64_t delta_commits = 0;
  uint64_t full_commits = 0;
};

// Results of one round of the timed window on one system. Work is counted
// in process CPU time (ProcessCpuNs), which leaves out the time the host
// gave the CPU to someone else; latencies are wall-clock.
struct Round {
  uint64_t ops = 0;
  int64_t block_cpu_ns = 0;   // inside blocks: the ops
  int64_t upkeep_cpu_ns = 0;  // between blocks: rule edits and audit drains
  NsHistogram latency_ns;

  void Add(const Round& other) {
    ops += other.ops;
    block_cpu_ns += other.block_cpu_ns;
    upkeep_cpu_ns += other.upkeep_cpu_ns;
    latency_ns.Merge(other.latency_ns);
  }
};

class System {
 public:
  // Boots, installs the rule base, spawns the worker and runs the warm-up
  // blocks. Aborts the benchmark (exit 1) when the rule base is refused.
  System(Mode mode, const Workload& workload, uint64_t seed);
  ~System();

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  // Runs one block of ops in the worker.
  void RunBlock(const std::vector<Op>& ops);
  // Applies and times one-rule edit `n` (see EditCommand); a refused edit
  // counts in edit_failures.
  void Edit(uint64_t n);
  // Drains and times the audit rings.
  void DrainAudit();
  // Zeroes the engine counters and tracer aggregates and takes `start`.
  void StartWindow();
  Snapshot Take() const;
  // Returns the current round's results, adds them to the window's totals
  // and starts the next round.
  Round TakeRound();
  const Round& window() const { return window_; }

  Mode mode() const { return mode_; }
  core::Engine& engine() { return *engine_; }
  Tracer* tracer() { return tracer_.get(); }

  double setup_s = 0;  // process CPU time of the constructor
  double install_s = 0;
  Snapshot start;

  uint64_t wrong = 0;      // includes warm-up ops
  uint64_t attempted = 0;  // includes warm-up ops
  std::vector<int64_t> edit_ns;
  std::vector<int64_t> verify_ns;
  std::vector<int64_t> drain_ns;
  uint64_t edit_failures = 0;

 private:
  void WorkerBody(sim::Proc& proc);

  Mode mode_;
  const Workload& workload_;
  std::unique_ptr<Tracer> tracer_;  // outlives the kernel's shim
  std::unique_ptr<sim::Kernel> kernel_;
  core::Engine* engine_ = nullptr;  // owned by the kernel or the shim
  std::unique_ptr<core::Pftables> pftables_;
  std::unique_ptr<sim::Scheduler> sched_;
  sim::Pid worker_ = sim::kInvalidPid;

  // Hand-off state. The scheduler's baton orders every access: the
  // director writes before RunUntilLabel and reads after it returns.
  const std::vector<Op>* block_ = nullptr;
  bool stop_ = false;
  bool timing_ = false;  // inside the timed window
  uint64_t next_op_ = 0;
  uint64_t client_denied_ = 0;
  Round round_;
  Round window_;
};

}  // namespace pf::perfbench

#endif  // PERFBENCH_SYSTEM_H_
