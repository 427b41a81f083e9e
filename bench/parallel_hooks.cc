// Parallel syscall-replay load generator: M worker threads replay a recorded
// open/bind/signal workload against one shared engine, reporting hooks/sec
// at 1, 2, 4 and 8 threads. Each worker drives its own task (disjoint pids,
// as distinct processes would on real CPUs); the rule base, statistics and
// per-task state table are shared.
//
// Output is one JSON object per line (machine-diffable across runs):
//   {"bench":"parallel_hooks","config":"EPTSPC","threads":4,...}
//
// Usage: parallel_hooks [--ops N] [--all-configs] [--json FILE]

#include <atomic>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"

namespace pf::bench {
namespace {

// One recorded operation of the replay trace.
struct TraceOp {
  enum Kind { kOpen, kBind, kSignal } kind = kOpen;
  int path = 0;       // index into the opened-paths set
  bool new_syscall = true;
};

constexpr int kTraceLen = 4096;

std::vector<TraceOp> RecordTrace(uint64_t seed) {
  std::vector<TraceOp> trace;
  trace.reserve(kTraceLen);
  std::mt19937_64 rng(seed);
  for (int i = 0; i < kTraceLen; ++i) {
    TraceOp op;
    uint64_t r = rng() % 10;
    if (r < 7) {
      op.kind = TraceOp::kOpen;
      op.path = static_cast<int>(rng() % 4);
    } else if (r < 9) {
      op.kind = TraceOp::kBind;
    } else {
      op.kind = TraceOp::kSignal;
    }
    op.new_syscall = rng() % 4 != 0;
    trace.push_back(op);
  }
  return trace;
}

struct WorkerTask {
  std::unique_ptr<sim::Task> task;
  std::vector<std::shared_ptr<sim::Inode>> pins;
  std::vector<sim::AccessRequest> opens;  // prebuilt per path
  sim::AccessRequest bind;
  sim::AccessRequest signal;
};

WorkerTask MakeWorkerTask(System& sys, int idx) {
  WorkerTask w;
  w.task = std::make_unique<sim::Task>();
  sim::Task& task = *w.task;
  task.pid = static_cast<sim::Pid>(500 + idx);
  task.syscall_depth = 1;  // every request runs inside a system call
  task.comm = "load";
  task.exe = sim::kBinTrue;
  task.cred.sid = sys.kernel->labels().Intern("staff_t");
  task.cwd = sys.kernel->vfs().root()->id();
  task.mm.Reset(sys.kernel->AslrStackBase());
  sys.kernel->MapImage(task, sys.kernel->LookupNoHooks(sim::kBinTrue), sim::kBinTrue);
  const sim::Mapping* map = task.mm.FindMappingByPath(sim::kBinTrue);
  for (int f = 0; f < 2 + idx % 3; ++f) {
    task.mm.PushFrame(map->base + 0x100 * static_cast<uint64_t>(f + 1), 16, false);
  }
  const char* paths[] = {"/etc/passwd", "/etc/shadow", "/var/www/index.html",
                         "/var/log/app.log"};
  for (const char* p : paths) {
    auto inode = sys.kernel->LookupNoHooks(p);
    if (!inode) {
      inode = sys.kernel->MkFileAt(p, "x", 0644, 0, 0, "var_t");
    }
    sim::AccessRequest req;
    req.task = &task;
    req.op = sim::Op::kFileOpen;
    req.inode = inode.get();
    req.id = inode->id();
    req.syscall_nr = sim::SyscallNr::kOpen;
    w.pins.push_back(std::move(inode));
    w.opens.push_back(req);
  }
  w.bind.task = &task;
  w.bind.op = sim::Op::kSocketBind;
  w.bind.name = "/tmp/sock";
  w.bind.syscall_nr = sim::SyscallNr::kBind;
  w.signal.task = &task;
  w.signal.op = sim::Op::kSignalDeliver;
  w.signal.sig = sim::kSigUsr1;
  w.signal.sig_sender = 1;
  w.signal.syscall_nr = sim::SyscallNr::kKill;
  return w;
}

uint64_t ReplayTrace(core::Engine* engine, WorkerTask& w,
                     const std::vector<TraceOp>& trace, uint64_t ops) {
  uint64_t done = 0;
  uint64_t acc = 0;
  while (done < ops) {
    const TraceOp& op = trace[done % trace.size()];
    if (op.new_syscall) {
      ++w.task->syscall_count;
    }
    switch (op.kind) {
      case TraceOp::kOpen:
        acc += static_cast<uint64_t>(engine->Authorize(w.opens[static_cast<size_t>(
            op.path)]) != 0);
        break;
      case TraceOp::kBind:
        acc += static_cast<uint64_t>(engine->Authorize(w.bind) != 0);
        break;
      case TraceOp::kSignal:
        acc += static_cast<uint64_t>(engine->Authorize(w.signal) != 0);
        break;
    }
    ++done;
  }
  return acc;  // denial count; returned so the work cannot be optimized out
}

struct RunResult {
  int threads = 0;
  uint64_t ops = 0;
  double wall_s = 0;
  double hooks_per_sec = 0;
  uint64_t drops = 0;
};

RunResult RunOnce(const core::EngineConfig& cfg, int threads, uint64_t ops_per_thread,
                  const std::vector<TraceOp>& trace) {
  System sys;
  sys.engine->config() = cfg;
  sys.InstallRules(SyntheticRuleBase(256));
  sys.InstallRules({"pftables -o FILE_OPEN -d shadow_t -j DROP"});
  std::vector<WorkerTask> tasks;
  tasks.reserve(static_cast<size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    tasks.push_back(MakeWorkerTask(sys, i));
  }
  std::atomic<uint64_t> denials{0};
  Stopwatch sw;
  sw.Start();
  {
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        denials.fetch_add(ReplayTrace(sys.engine, tasks[static_cast<size_t>(t)], trace,
                                      ops_per_thread));
      });
    }
    for (auto& w : workers) {
      w.join();
    }
  }
  RunResult res;
  res.threads = threads;
  res.ops = ops_per_thread * static_cast<uint64_t>(threads);
  res.wall_s = sw.ElapsedUs() / 1e6;
  res.hooks_per_sec = res.wall_s > 0 ? static_cast<double>(res.ops) / res.wall_s : 0;
  res.drops = sys.engine->stats().drops;
  if (res.drops != denials.load()) {
    std::fprintf(stderr, "stat mismatch: engine drops=%llu, observed=%llu\n",
                 static_cast<unsigned long long>(res.drops),
                 static_cast<unsigned long long>(denials.load()));
    std::abort();
  }
  return res;
}

std::string ToJson(const char* config, const RunResult& r, double speedup) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "{\"bench\":\"parallel_hooks\",\"config\":\"%s\",\"threads\":%d,"
                "\"ops\":%llu,\"wall_s\":%.4f,\"hooks_per_sec\":%.0f,"
                "\"speedup_vs_1t\":%.2f,\"drops\":%llu,\"hw_threads\":%u}",
                config, r.threads, static_cast<unsigned long long>(r.ops), r.wall_s,
                r.hooks_per_sec, speedup, static_cast<unsigned long long>(r.drops),
                std::thread::hardware_concurrency());
  return buf;
}

int Main(int argc, char** argv) {
  uint64_t ops_per_thread = 200000;
  bool all_configs = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--ops") == 0 && i + 1 < argc) {
      ops_per_thread = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--all-configs") == 0) {
      all_configs = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  struct NamedConfig {
    const char* name;
    core::EngineConfig cfg;
  };
  std::vector<NamedConfig> configs;
  core::EngineConfig eptspc;  // defaults: lazy + cache + entrypoint chains
  configs.push_back({"EPTSPC", eptspc});
  if (all_configs) {
    core::EngineConfig full = eptspc;
    full.lazy_context = false;
    full.cache_context = false;
    full.ept_chains = false;
    core::EngineConfig concache = full;
    concache.cache_context = true;
    core::EngineConfig lazycon = concache;
    lazycon.lazy_context = true;
    configs.push_back({"LAZYCON", lazycon});
    configs.push_back({"CONCACHE", concache});
    configs.push_back({"FULL", full});
  }

  const std::vector<TraceOp> trace = RecordTrace(0x7eca11);
  std::vector<std::string> lines;
  for (const NamedConfig& nc : configs) {
    double base_rate = 0;
    for (int threads : {1, 2, 4, 8}) {
      RunResult r = RunOnce(nc.cfg, threads, ops_per_thread, trace);
      if (threads == 1) {
        base_rate = r.hooks_per_sec;
      }
      double speedup = base_rate > 0 ? r.hooks_per_sec / base_rate : 0;
      lines.push_back(ToJson(nc.name, r, speedup));
      std::printf("%s\n", lines.back().c_str());
      std::fflush(stdout);
    }
  }
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    for (const std::string& l : lines) {
      out << l << "\n";
    }
  }
  return 0;
}

}  // namespace
}  // namespace pf::bench

int main(int argc, char** argv) { return pf::bench::Main(argc, argv); }
