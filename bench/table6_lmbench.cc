// Table 6: lmbench-style system-call microbenchmarks across the Process
// Firewall's optimization ablation:
//
//   DISABLED  PF compiled in but switched off
//   BASE      PF on, only the default-allow rule (no rule base)
//   FULL      1218-rule base, no optimizations (eager context, no caching,
//             linear chain scan)
//   CONCACHE  + context caching (reuse unwinds across hooks in a syscall)
//   LAZYCON   + lazy context retrieval (fetch only what rules need)
//   EPTSPC    + entrypoint-specific chains (hash lookup instead of scan)
//
// Every rung runs the engine's one evaluator, the verified arena program;
// the rungs differ only in the three paper optimizations.
//
// The paper's shape: resource-access syscalls (stat/open) suffer most
// unoptimized (~110%) and drop to ~10% with all optimizations; non-resource
// syscalls stay under a few percent.
//
// With --json PATH, machine-readable results (us per op for every cell) are
// also written to PATH for bench/run_bench.sh to fold into BENCH_engine.json.

#include "bench/bench_util.h"

namespace pf::bench {
namespace {

using sim::Pid;
using sim::Proc;

constexpr int kLightIters = 6000;
constexpr int kForkIters = 150;
constexpr int kRepeats = 5;

struct Config {
  const char* name;
  bool enabled;
  bool rules;
  core::EngineConfig engine;
};

// Each column adds exactly one optimization to the one before it.
const Config kConfigs[] = {
    {"DISABLED", false, false, {}},
    {"BASE", true, false,
     {.lazy_context = true, .cache_context = true, .ept_chains = true}},
    {"FULL", true, true,
     {.lazy_context = false, .cache_context = false, .ept_chains = false}},
    {"CONCACHE", true, true,
     {.lazy_context = false, .cache_context = true, .ept_chains = false}},
    {"LAZYCON", true, true,
     {.lazy_context = true, .cache_context = true, .ept_chains = false}},
    {"EPTSPC", true, true,
     {.lazy_context = true, .cache_context = true, .ept_chains = true}},
};

struct Workload {
  const char* name;
  int iters;
  // Runs `iters` operations inside the proc; file descriptors set up first.
  std::function<void(Proc&, int)> body;
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"null", kLightIters,
       [](Proc& p, int n) {
         for (int i = 0; i < n; ++i) {
           p.Null();
         }
       }},
      {"stat", kLightIters,
       [](Proc& p, int n) {
         sim::StatBuf st;
         for (int i = 0; i < n; ++i) {
           p.Stat("/etc/passwd", &st);
         }
       }},
      {"read", kLightIters,
       [](Proc& p, int n) {
         int fd = static_cast<int>(p.Open("/etc/passwd", sim::kORdOnly));
         std::string buf;
         for (int i = 0; i < n; ++i) {
           p.Read(fd, &buf, 16);
         }
         p.Close(fd);
       }},
      {"write", kLightIters,
       [](Proc& p, int n) {
         int fd = static_cast<int>(
             p.Open("/tmp/sink", sim::kOWrOnly | sim::kOCreat | sim::kOTrunc));
         for (int i = 0; i < n; ++i) {
           p.Write(fd, "x");
           // Keep the file small: rewind by reopening occasionally.
           if ((i & 0x3ff) == 0x3ff) {
             p.Close(fd);
             fd = static_cast<int>(
                 p.Open("/tmp/sink", sim::kOWrOnly | sim::kOCreat | sim::kOTrunc));
           }
         }
         p.Close(fd);
       }},
      {"fstat", kLightIters,
       [](Proc& p, int n) {
         int fd = static_cast<int>(p.Open("/etc/passwd", sim::kORdOnly));
         sim::StatBuf st;
         for (int i = 0; i < n; ++i) {
           p.Fstat(fd, &st);
         }
         p.Close(fd);
       }},
      {"open+close", kLightIters / 2,
       [](Proc& p, int n) {
         for (int i = 0; i < n; ++i) {
           p.Close(static_cast<int>(p.Open("/etc/passwd", sim::kORdOnly)));
         }
       }},
      {"fork+exit", kForkIters,
       [](Proc& p, int n) {
         for (int i = 0; i < n; ++i) {
           int64_t child = p.Fork([](Proc& c) { c.Exit(0); });
           p.Waitpid(static_cast<sim::Pid>(child));
         }
       }},
      {"fork+execve", kForkIters,
       [](Proc& p, int n) {
         auto env = p.task().env;
         for (int i = 0; i < n; ++i) {
           int64_t child = p.Fork([env](Proc& c) {
             c.Execve(sim::kBinTrue, {sim::kBinTrue}, env);
             c.Exit(127);
           });
           p.Waitpid(static_cast<sim::Pid>(child));
         }
       }},
      {"fork+sh -c", kForkIters / 2,
       [](Proc& p, int n) {
         auto env = p.task().env;
         for (int i = 0; i < n; ++i) {
           int64_t child = p.Fork([env](Proc& c) {
             c.Execve(sim::kBinSh, {sim::kBinSh, "-c", sim::kBinTrue}, env);
             c.Exit(127);
           });
           p.Waitpid(static_cast<sim::Pid>(child));
         }
       }},
  };
  return kWorkloads;
}

double MeasureUs(const Config& config, const Workload& work, bool traced = false) {
  std::vector<double> runs;
  for (int r = 0; r < kRepeats; ++r) {
    System sys;
    // Calibrate the baseline kernel-entry cost to the paper's testbed
    // (lmbench null syscall = 11.675 us in Table 6) so overhead percentages
    // are comparable.
    sys.kernel->set_syscall_cost_ns(11500);
    sys.engine->config() = config.engine;
    sys.engine->config().enabled = config.enabled;
    if (config.rules) {
      sys.InstallRules(apps::RuleLibrary::DefaultRuleBase());
      sys.InstallRules(SyntheticRuleBase(1200));
    }
    if (traced) {
      sys.engine->trace().Enable();
    }
    double us = 0;
    Pid pid = sys.sched->Spawn({.name = "lmbench", .exe = sim::kBinTrue}, [&](Proc& p) {
      sim::UserFrame frame(p, sim::kBinTrue, 0x4000);  // a realistic call depth
      Stopwatch sw;
      sw.Start();
      work.body(p, work.iters);
      us = sw.ElapsedUs() / work.iters;
    });
    sys.sched->RunUntilExit(pid);
    runs.push_back(us);
  }
  return SummarizeTrimmed(runs).mean;
}

}  // namespace

void Run(const char* json_path) {
  Caption("Table 6: lmbench microbenchmarks (us per operation; % overhead vs DISABLED)");
  std::printf("%-12s", "syscall");
  for (const Config& c : kConfigs) {
    std::printf(" %16s", c.name);
  }
  std::printf("\n");

  JsonWriter json;
  json.BeginObject("table6");
  for (const Workload& work : Workloads()) {
    double base = 0;
    std::printf("%-12s", work.name);
    json.BeginObject(work.name);
    for (const Config& config : kConfigs) {
      double us = MeasureUs(config, work);
      json.Number(config.name, us);
      if (&config == &kConfigs[0]) {
        base = us;
        std::printf(" %12.3f    ", us);
      } else {
        std::printf(" %9.3f (%4.0f%%)", us, OverheadPct(base, us));
      }
      std::fflush(stdout);
    }
    json.EndObject();
    std::printf("\n");
  }
  json.EndObject();

  // Trace-overhead rider (DESIGN.md §5e): the two resource syscalls the
  // paper's table stresses, re-measured with every tracepoint stream live
  // (decision + rule + ctx records into the rings, plus latency
  // histograms). The ISSUE's acceptance bound: tracing-enabled stat on the
  // FULL rung stays under +15% vs. the same rung untraced.
  Caption("Trace overhead: full tracepoint streams enabled vs. disabled");
  std::printf("%-12s %12s %12s %10s\n", "syscall/rung", "untraced_us", "traced_us",
              "overhead");
  json.BeginObject("table6_trace");
  const char* kTraceRungs[] = {"FULL", "EPTSPC"};
  const char* kTraceWorkloads[] = {"stat", "open+close"};
  for (const char* wname : kTraceWorkloads) {
    const Workload* work = nullptr;
    for (const Workload& w : Workloads()) {
      if (std::string(w.name) == wname) {
        work = &w;
      }
    }
    json.BeginObject(wname);
    for (const char* rname : kTraceRungs) {
      const Config* config = nullptr;
      for (const Config& c : kConfigs) {
        if (std::string(c.name) == rname) {
          config = &c;
        }
      }
      const double off = MeasureUs(*config, *work, /*traced=*/false);
      const double on = MeasureUs(*config, *work, /*traced=*/true);
      json.BeginObject(rname);
      json.Number("untraced_us", off);
      json.Number("traced_us", on);
      json.Number("overhead_pct", OverheadPct(off, on));
      json.EndObject();
      std::printf("%-6s %-5s %12.3f %12.3f %8.1f%%\n", wname, rname, off, on,
                  OverheadPct(off, on));
      std::fflush(stdout);
    }
    json.EndObject();
  }
  json.EndObject();
  json.WriteTo(json_path);
  std::printf("\nExpected shape (paper): FULL hits resource syscalls hardest (stat ~110%%),\n"
              "each optimization reduces it, and EPTSPC lands near BASE (<11%% on any\n"
              "one syscall; <3%% for syscalls not performing resource access). The\n"
              "program evaluator pays no per-rule virtual calls, so the unoptimized\n"
              "rungs sit below the paper's iptables-style walker figures.\n");
}

}  // namespace pf::bench

int main(int argc, char** argv) {
  pf::bench::Run(pf::bench::JsonPathFromArgs(argc, argv));
  return 0;
}
