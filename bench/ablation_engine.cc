// Engine ablations (google-benchmark): the design choices DESIGN.md calls
// out, measured in isolation against a hand-built authorization request —
// no scheduler in the loop.
//
//   * linear rule scan vs. entrypoint-indexed chains, over rule-base size,
//     and the two dispatch strategies
//   * user-stack unwinding vs. call depth, and the per-syscall context cache
//   * lazy vs. eager context retrieval
//   * pftables rule compilation throughput

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/analysis/symbolic/model.h"
#include "src/audit/hub.h"
#include "src/core/verify.h"

namespace pf::bench {
namespace {

// A System plus a hand-crafted task with /bin/true mapped and a call stack
// of the requested depth.
struct EngineFixture {
  System sys;
  sim::Task task;

  explicit EngineFixture(int frames = 2, int rules = 0, bool indexed = true) {
    if (rules > 0) {
      sys.InstallRules(SyntheticRuleBase(rules));
    }
    sys.engine->config().ept_chains = indexed;
    task.pid = 77;
    task.syscall_depth = 1;  // the requests run inside a system call
    task.comm = "bench";
    task.exe = sim::kBinTrue;
    task.cred.sid = sys.kernel->labels().Intern("staff_t");
    task.cwd = sys.kernel->vfs().root()->id();
    task.mm.Reset(sys.kernel->AslrStackBase());
    sys.kernel->MapImage(task, sys.kernel->LookupNoHooks(sim::kBinTrue), sim::kBinTrue);
    const sim::Mapping* map = task.mm.FindMappingByPath(sim::kBinTrue);
    for (int i = 0; i < frames; ++i) {
      task.mm.PushFrame(map->base + 0x100 * static_cast<uint64_t>(i + 1), 16, false);
    }
  }

  sim::AccessRequest OpenRequest() {
    sim::AccessRequest req;
    req.task = &task;
    req.op = sim::Op::kFileOpen;
    auto inode = sys.kernel->LookupNoHooks("/etc/passwd");
    req.inode = inode.get();
    req.id = inode->id();
    req.syscall_nr = sim::SyscallNr::kOpen;
    keep_alive_ = inode;
    return req;
  }

  std::shared_ptr<sim::Inode> keep_alive_;
};

// Authorize over a synthetic base of range(0) rules, with a fresh syscall
// every iteration (the context cache never hits), scanning every rule of
// the op's bucket.
void BM_AuthorizeCompiledScan(benchmark::State& state) {
  EngineFixture fx(/*frames=*/2, /*rules=*/static_cast<int>(state.range(0)),
                   /*indexed=*/false);
  sim::AccessRequest req = fx.OpenRequest();
  for (auto _ : state) {
    ++fx.task.syscall_count;
    benchmark::DoNotOptimize(fx.sys.engine->Authorize(req));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AuthorizeCompiledScan)
    ->Arg(16)
    ->Arg(128)
    ->Arg(512)
    ->Arg(1218)
    ->Arg(2048)
    ->Arg(10000)
    ->Arg(50000)
    ->Arg(100000)
    ->Arg(200000);

// The program evaluator with the computed-goto threaded dispatcher turned
// off: the same arena program run through the portable switch loop. The
// delta against BM_AuthorizeCompiledScan is the pure dispatch-strategy win;
// the bench-smoke CI job asserts threaded <= switch * 1.15 medians.
void BM_AuthorizeSwitchScan(benchmark::State& state) {
  EngineFixture fx(/*frames=*/2, /*rules=*/static_cast<int>(state.range(0)),
                   /*indexed=*/false);
  fx.sys.engine->config().threaded_eval = false;
  sim::AccessRequest req = fx.OpenRequest();
  for (auto _ : state) {
    ++fx.task.syscall_count;
    benchmark::DoNotOptimize(fx.sys.engine->Authorize(req));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AuthorizeSwitchScan)->Arg(16)->Arg(128)->Arg(512)->Arg(1218)->Arg(2048);

// The shipping configuration: entrypoint-indexed chains (paper §4.3, the
// EPTSPC rung) over the same synthetic bases as BM_AuthorizeCompiledScan.
// Every synthetic rule pins an entrypoint and none names /bin/true, so each
// decision scans the op bucket's plain rules (none) and misses the index:
// latency stays flat while the scan grows linearly. The bench-smoke CI job
// asserts 100k rules within 3x of 1218.
void BM_AuthorizeCompiledIndexed(benchmark::State& state) {
  EngineFixture fx(/*frames=*/2, /*rules=*/static_cast<int>(state.range(0)),
                   /*indexed=*/true);
  sim::AccessRequest req = fx.OpenRequest();
  for (auto _ : state) {
    ++fx.task.syscall_count;
    benchmark::DoNotOptimize(fx.sys.engine->Authorize(req));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AuthorizeCompiledIndexed)
    ->Arg(16)
    ->Arg(128)
    ->Arg(512)
    ->Arg(1218)
    ->Arg(2048)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(200000);

// The tracing tax with every tracepoint stream live (decision + rule +
// ctx records, latency histograms): compare against
// BM_AuthorizeCompiledIndexed at equal rule counts. The ISSUE's acceptance
// bound for the *disabled* case (<2% vs. a PF_NO_TRACE build) is asserted
// by the bench-smoke CI job over BM_AuthorizeCompiledIndexed itself.
void BM_AuthorizeCompiledTraced(benchmark::State& state) {
  EngineFixture fx(/*frames=*/2, /*rules=*/static_cast<int>(state.range(0)),
                   /*indexed=*/true);
  fx.sys.engine->trace().Enable();
  sim::AccessRequest req = fx.OpenRequest();
  for (auto _ : state) {
    ++fx.task.syscall_count;
    benchmark::DoNotOptimize(fx.sys.engine->Authorize(req));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["trace_records"] =
      static_cast<double>(fx.sys.engine->trace().records());
  state.counters["trace_drops"] =
      static_cast<double>(fx.sys.engine->trace().drops());
}
BENCHMARK(BM_AuthorizeCompiledTraced)->Arg(16)->Arg(128)->Arg(512)->Arg(1218)->Arg(2048);

// The audit tax with the security-event pipeline armed (suppression off,
// every kind enabled). The workload is an allowed open, so no records are
// emitted: this measures the pure observer prologue/epilogue the audit
// pipeline adds to every decision — the ISSUE's <5% acceptance bound for
// the *enabled* case, asserted by the bench-smoke CI job as the geometric
// mean across rule counts vs. BM_AuthorizeCompiledIndexed in this binary
// (a PF_AUDIT=OFF build runs alongside as the compile gate and reference).
void BM_AuthorizeCompiledAudited(benchmark::State& state) {
  EngineFixture fx(/*frames=*/2, /*rules=*/static_cast<int>(state.range(0)),
                   /*indexed=*/true);
  audit::AuditHub::Config acfg;
  acfg.bucket_capacity = 0;
  fx.sys.engine->audit().Enable(acfg);
  sim::AccessRequest req = fx.OpenRequest();
  for (auto _ : state) {
    ++fx.task.syscall_count;
    benchmark::DoNotOptimize(fx.sys.engine->Authorize(req));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["audit_emitted"] =
      static_cast<double>(fx.sys.engine->audit().emitted());
}
BENCHMARK(BM_AuthorizeCompiledAudited)->Arg(16)->Arg(128)->Arg(512)->Arg(1218)->Arg(2048);

// Commit-time cost of the whole compilation pipeline (arena lowering with
// its dispatch tables, verification) over the staging rule base — the price every
// pftables commit pays, since each one relowers the whole base.
void BM_CompileProgram(benchmark::State& state) {
  System sys;
  sys.InstallRules(SyntheticRuleBase(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    auto snap = sys.engine->CompileRuleset();
    benchmark::DoNotOptimize(snap->program.arena.data());
  }
  state.SetItemsProcessed(state.iterations());
  auto snap = sys.engine->CompileRuleset();
  state.counters["arena_words"] = static_cast<double>(snap->program.arena.size());
}
BENCHMARK(BM_CompileProgram)->Arg(128)->Arg(1218)->Arg(2048)->Arg(100000);

// The load-time verifier pass alone, over an already-lowered program: the
// marginal cost verification adds to every commit. The bench-smoke CI job
// asserts it stays under 10% of BM_CompileProgram at 1218 rules.
void BM_VerifyProgram(benchmark::State& state) {
  System sys;
  sys.InstallRules(SyntheticRuleBase(static_cast<int>(state.range(0))));
  auto snap = sys.engine->CompileRuleset();
  for (auto _ : state) {
    core::VerifyResult vr = core::VerifyProgram(snap->program);
    benchmark::DoNotOptimize(vr.report.empty());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VerifyProgram)->Arg(128)->Arg(1218)->Arg(2048);

// The symbolic decision-space model (src/analysis/symbolic/) over the same
// synthetic bases: the full-partition build pfcheck's exact tier and pfdiff
// run per invocation. The bench-smoke CI job budgets the 1218-rule build at
// < 250 ms (summary.symbolic_analysis_us).
void BM_BuildSymbolicModel(benchmark::State& state) {
  System sys;
  sys.InstallRules(SyntheticRuleBase(static_cast<int>(state.range(0))));
  auto snap = sys.engine->CompileRuleset();
  size_t regions = 0;
  for (auto _ : state) {
    const analysis::symbolic::SymbolicModel model =
        analysis::symbolic::BuildModel(*snap, sys.engine->policy());
    regions = model.region_count;
    benchmark::DoNotOptimize(regions);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["regions"] = static_cast<double>(regions);
}
BENCHMARK(BM_BuildSymbolicModel)->Arg(128)->Arg(1218)->Arg(10000)->Arg(100000);

void BM_UnwindDepth(benchmark::State& state) {
  EngineFixture fx(/*frames=*/static_cast<int>(state.range(0)));
  for (auto _ : state) {
    core::UnwindResult res = core::UnwindUserStack(fx.task);
    benchmark::DoNotOptimize(res.frames.size());
  }
}
BENCHMARK(BM_UnwindDepth)->Arg(2)->Arg(8)->Arg(16)->Arg(32)->Arg(63);

// The per-syscall context cache (paper §4.2, the CONCACHE rung): eight
// hooks per system call, as pathname resolution makes, over an 8-frame
// stack. With the cache on, the first hook of each system call unwinds and
// the other seven reuse it; `unwinds_per_call` reports the measured rate.
void BM_ContextCache(benchmark::State& state) {
  const bool cached = state.range(0) != 0;
  EngineFixture fx(/*frames=*/8, /*rules=*/64, /*indexed=*/true);
  fx.sys.engine->config().cache_context = cached;
  sim::AccessRequest req = fx.OpenRequest();
  const uint64_t unwinds_before = fx.sys.engine->stats().unwinds;
  // Counted here: state.iterations() reads 0 inside the timed loop.
  uint64_t calls = 0;
  for (auto _ : state) {
    if (calls++ % 8 == 0) {
      ++fx.task.syscall_count;
    }
    benchmark::DoNotOptimize(fx.sys.engine->Authorize(req));
  }
  state.counters["unwinds_per_call"] =
      static_cast<double>(fx.sys.engine->stats().unwinds - unwinds_before) /
      static_cast<double>(calls);
}
BENCHMARK(BM_ContextCache)->Arg(0)->Arg(1);

void BM_LazyVsEagerContext(benchmark::State& state) {
  const bool lazy = state.range(0) != 0;
  // Rules the open reaches and evaluates, none of which needs an
  // entrypoint: lazy mode fetches only the object and skips every unwind.
  EngineFixture fx(/*frames=*/16, /*rules=*/0, /*indexed=*/true);
  core::Pftables pft(fx.sys.engine);
  for (int i = 0; i < 32; ++i) {
    pft.Exec("pftables -o FILE_OPEN -d shadow_t -j DROP");
  }
  fx.sys.engine->config().lazy_context = lazy;
  fx.sys.engine->config().cache_context = false;
  sim::AccessRequest req = fx.OpenRequest();
  for (auto _ : state) {
    ++fx.task.syscall_count;
    benchmark::DoNotOptimize(fx.sys.engine->Authorize(req));
  }
}
BENCHMARK(BM_LazyVsEagerContext)->Arg(0)->Arg(1);

void BM_PftablesCompile(benchmark::State& state) {
  System sys;
  core::Pftables pft(sys.engine);
  size_t i = 0;
  for (auto _ : state) {
    pft.Exec("pftables -p /usr/bin/php5 -i 0x" + std::to_string(1000 + (i % 4096)) +
             " -o FILE_OPEN -d ~{SYSHIGH} -j DROP");
    if (++i % 4096 == 0) {
      pft.Exec("pftables -F input");
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PftablesCompile);

// Unwinding method comparison (paper §4.4): precise frame-pointer chains
// vs. unwind-table recovery vs. the prologue-scan heuristic, at equal depth.
void BM_UnwindMethod(benchmark::State& state) {
  const int method = static_cast<int>(state.range(0));  // 0=fp, 1=eh, 2=prologue
  System sys;
  std::string path = "/usr/bin/method" + std::to_string(method);
  auto inode = sys.kernel->MkFileAt(path, "\x7f" "ELF", 0755, 0, 0, "bin_t");
  auto img = std::make_unique<sim::BinaryImage>();
  img->entry_key = path;
  img->has_frame_pointers = method == 0;
  img->has_eh_info = method == 1;
  inode->binary = std::move(img);

  sim::Task task;
  task.pid = 78;
  task.exe = path;
  task.mm.Reset(sys.kernel->AslrStackBase());
  sys.kernel->MapImage(task, inode, path);
  const sim::Mapping* map = task.mm.FindMappingByPath(path);
  for (int i = 0; i < 12; ++i) {
    task.mm.PushFrame(map->base + 0x100 * static_cast<uint64_t>(i + 1), 16,
                      !map->has_frame_pointers);
  }
  for (auto _ : state) {
    core::UnwindResult res = core::UnwindUserStack(task);
    benchmark::DoNotOptimize(res.frames.size());
  }
  state.SetLabel(method == 0 ? "fp-chain" : method == 1 ? "unwind-tables" : "prologue");
}
BENCHMARK(BM_UnwindMethod)->Arg(0)->Arg(1)->Arg(2);

void BM_InterpUnwind(benchmark::State& state) {
  EngineFixture fx;
  // Build an interpreter frame list of the requested depth directly in the
  // task's arena.
  int depth = static_cast<int>(state.range(0));
  sim::Addr head = sim::kNullAddr;
  for (int i = 0; i < depth; ++i) {
    sim::Addr node = fx.task.mm.ArenaAlloc(24);
    uint32_t script_id = fx.task.RegisterScript("/var/www/s" + std::to_string(i));
    uint32_t line = static_cast<uint32_t>(i);
    uint32_t lang = 1;
    fx.task.mm.WriteU64(node, head);
    fx.task.mm.CopyToUser(node + 8, &script_id, 4);
    fx.task.mm.CopyToUser(node + 12, &line, 4);
    fx.task.mm.CopyToUser(node + 16, &lang, 4);
    head = node;
  }
  fx.task.mm.set_interp_head(head);
  for (auto _ : state) {
    core::InterpUnwindResult res = core::UnwindInterpStack(fx.task);
    benchmark::DoNotOptimize(res.frames.size());
  }
}
BENCHMARK(BM_InterpUnwind)->Arg(1)->Arg(8)->Arg(32);

}  // namespace
}  // namespace pf::bench

BENCHMARK_MAIN();
