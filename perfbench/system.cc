#include "perfbench/system.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "src/apps/programs.h"
#include "src/sim/sysimage.h"

namespace pf::perfbench {

constexpr const char* kBlockLabel = "block";

System::System(Mode mode, const Workload& workload, uint64_t seed)
    : mode_(mode), workload_(workload) {
  const int64_t cpu0 = ProcessCpuNs();
  kernel_ =std::make_unique<sim::Kernel>(seed);
  kernel_->set_syscall_cost_ns(0);
  sim::BuildSysImage(*kernel_);
  apps::InstallPrograms(*kernel_);
  workload_.BuildImage(*kernel_);
  if (mode_ == Mode::kPfTraced) {
    tracer_ = std::make_unique<Tracer>();
    auto engine = std::make_unique<core::Engine>(*kernel_, core::EngineConfig{});
    engine_ = engine.get();
    engine_->set_slot(
        kernel_->AddModule(std::make_unique<PfShim>(std::move(engine), tracer_.get())));
  } else {
    engine_ = core::InstallProcessFirewall(*kernel_);
  }
  pftables_ = std::make_unique<core::Pftables>(engine_);
  const int64_t t_install = NowNs();
  core::Status status = pftables_->ExecAll(workload_.rules());
  install_s = static_cast<double>(NowNs() - t_install) / 1e9;
  if (!status.ok()) {
    std::fprintf(stderr, "rule base refused: %s\n", status.message().c_str());
    std::exit(1);
  }
  if (workload_.audit()) {
    engine_->audit().Enable();
  }
  if (mode_ == Mode::kNoPf) {
    engine_->config().enabled = false;
  }
  sched_ = std::make_unique<sim::Scheduler>(*kernel_);
  sim::SpawnOpts opts;
  opts.name = "apache-worker";
  opts.exe = sim::kApache;
  opts.cred.sid = kernel_->labels().Intern("httpd_t");
  worker_ = sched_->Spawn(opts, [this](sim::Proc& proc) { WorkerBody(proc); });
  if (!sched_->RunUntilLabel(worker_, kBlockLabel)) {
    std::fprintf(stderr, "worker exited during start-up\n");
    std::exit(1);
  }
  std::vector<Op> ops;
  for (uint64_t b = 0; b < workload_.warmup_blocks(); ++b) {
    workload_.Generate(b, &ops);
    RunBlock(ops);
    if (workload_.audit()) {
      engine_->audit().Drain();
    }
  }
  setup_s = static_cast<double>(ProcessCpuNs() - cpu0) / 1e9;
}

System::~System() {
  stop_ = true;
  sched_->RunUntilExit(worker_);
  sched_.reset();
  pftables_.reset();
  kernel_.reset();
}

void System::WorkerBody(sim::Proc& proc) {
  std::unique_ptr<Client> client =
      workload_.MakeClient(proc, mode_ != Mode::kNoPf, tracer_.get());
  for (;;) {
    proc.Checkpoint(kBlockLabel);
    if (stop_) {
      return;
    }
    const std::vector<Op>& block = *block_;
    const int64_t cpu0 = ProcessCpuNs();
    int64_t prev = NowNs();
    for (const Op& op : block) {
      if (tracer_) {
        tracer_->set_op(next_op_);
        tracer_->Begin(SpanKind::kOp);
      }
      const bool ok = client->Run(op);
      if (tracer_) {
        tracer_->End();
      }
      const int64_t now = NowNs();
      if (timing_) {
        round_.latency_ns.Add(now - prev);
      }
      prev = now;
      ++next_op_;
      wrong += ok ? 0 : 1;
    }
    attempted += block.size();
    if (timing_) {
      round_.ops += block.size();
      round_.block_cpu_ns += ProcessCpuNs() - cpu0;
    }
    client_denied_ = client->denied();
  }
}

void System::RunBlock(const std::vector<Op>& ops) {
  block_ = &ops;
  if (!sched_->RunUntilLabel(worker_, kBlockLabel)) {
    std::fprintf(stderr, "worker exited mid-run\n");
    std::exit(1);
  }
  workload_.AfterBlock(*kernel_);
}

void System::Edit(uint64_t n) {
  if (tracer_) {
    tracer_->set_op(next_op_);
  }
  const core::Chain* input = engine_->ruleset().filter().Find("input");
  const std::string cmd = EditCommand(n, input == nullptr ? 0 : input->size());
  const int64_t cpu0 = ProcessCpuNs();
  int64_t ns;
  core::Status status;
  {
    ScopedSpan span(tracer_.get(), SpanKind::kCommit);
    const int64_t t0 = NowNs();
    status = pftables_->Exec(cmd);
    ns = NowNs() - t0;
  }
  if (timing_) {
    round_.upkeep_cpu_ns += ProcessCpuNs() - cpu0;
  }
  if (!status.ok()) {
    std::fprintf(stderr, "edit refused: %s: %s\n", cmd.c_str(), status.message().c_str());
    ++edit_failures;
    return;
  }
  edit_ns.push_back(ns);
  verify_ns.push_back(static_cast<int64_t>(engine_->PublishedRuleset()->verify_ns));
}

void System::DrainAudit() {
  if (tracer_) {
    tracer_->set_op(next_op_);
  }
  const int64_t cpu0 = ProcessCpuNs();
  {
    ScopedSpan span(tracer_.get(), SpanKind::kDrain);
    const int64_t t0 = NowNs();
    engine_->audit().Drain();
    drain_ns.push_back(NowNs() - t0);
  }
  if (timing_) {
    round_.upkeep_cpu_ns += ProcessCpuNs() - cpu0;
  }
}

Round System::TakeRound() {
  window_.Add(round_);
  return std::exchange(round_, Round{});
}

void System::StartWindow() {
  engine_->ResetStats();
  if (tracer_) {
    tracer_->Reset();
  }
  timing_ = true;
  round_ = Round{};
  start = Take();
}

Snapshot System::Take() const {
  Snapshot s;
  s.authorize_calls = kernel_->authorize_calls();
  if (const sim::Task* task = sched_->FindTask(worker_)) {
    s.syscalls = task->syscall_count;
  }
  s.denied = client_denied_;
  const audit::AuditHub& hub = engine_->audit();
  s.audit_emitted = hub.emitted();
  s.audit_records = hub.records();
  s.audit_suppressed = hub.suppressed();
  s.audit_drained = hub.drained();
  s.audit_ring_drops = hub.ring_drops();
  s.delta_commits = engine_->delta_commits();
  s.full_commits = engine_->full_commits();
  return s;
}

}  // namespace pf::perfbench
