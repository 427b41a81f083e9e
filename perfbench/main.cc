// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload web|scale|churn --seed N --seconds S --trace 0|1
//             [--spans PATH]
//
// Each run boots a PF-on system (the shipping EngineConfig) and a
// PF-disabled twin with the same rule base, and alternates blocks of one
// seeded op sequence between them for S seconds. Every op's outcome is
// checked against the workload's ground truth. With --trace 1 a third
// system runs the same engine behind the timing shim and the run reports
// the per-layer ledger instead of the end-to-end metrics; --spans writes
// its spans as a Chrome trace.
//
// The last line of stdout is one JSON object: correct, attempted, failed
// and metrics ({name: {value, unit}}). The exit code is non-zero when any
// op, edit or audit-conservation check failed.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/system.h"
#include "perfbench/trace.h"
#include "perfbench/workload.h"

namespace pf::perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans;
};

bool ParseArgs(int argc, char** argv, Args* out) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      out->workload = value;
    } else if (key == "--seed") {
      out->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      out->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      out->trace = value == "1";
    } else if (key == "--spans") {
      out->spans = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return argc % 2 == 1 && !out->workload.empty() && out->seconds > 0;
}

// Nearest-rank quantile, q in (0, 1]; 0 for an empty sample.
template <typename T>
double Quantile(std::vector<T> xs, double q) {
  if (xs.empty()) {
    return 0;
  }
  auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(xs.size())));
  rank = std::clamp<size_t>(rank, 1, xs.size());
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(rank - 1), xs.end());
  return static_cast<double>(xs[rank - 1]);
}

double Mean(const std::vector<int64_t>& xs) {
  double sum = 0;
  for (int64_t x : xs) {
    sum += static_cast<double>(x);
  }
  return xs.empty() ? 0 : sum / static_cast<double>(xs.size());
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// Closed-loop CPU cost of an op: the op itself plus its share of the rule
// edits and audit drains between blocks.
double UsPerOp(const Round& r) {
  return Ratio(static_cast<double>(r.block_cpu_ns + r.upkeep_cpu_ns) / 1e3,
               static_cast<double>(r.ops));
}

double OpsPerSecond(const Round& r) { return Ratio(1e6, UsPerOp(r)); }

class Report {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) {
      value = 0;
    }
    metrics_.push_back({name, value, unit});
  }

  void Print(bool correct, uint64_t attempted, uint64_t failed) const {
    for (const Metric& m : metrics_) {
      std::printf("  %-44s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                correct ? "true" : "false", static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                  metrics_[i].name.c_str(), metrics_[i].value, metrics_[i].unit);
    }
    std::printf("}}\n");
  }

 private:
  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Metric> metrics_;
};

// Audit conservation over the timed window: every emitted record was
// admitted or suppressed, every admitted record was drained or counted as a
// ring drop, and the engine audited exactly the denials the ops observed.
bool AuditConserved(const System& s, const Snapshot& end) {
  const Snapshot& a = s.start;
  const uint64_t emitted = end.audit_emitted - a.audit_emitted;
  const uint64_t records = end.audit_records - a.audit_records;
  const uint64_t suppressed = end.audit_suppressed - a.audit_suppressed;
  const uint64_t drained = end.audit_drained - a.audit_drained;
  const uint64_t drops = end.audit_ring_drops - a.audit_ring_drops;
  const uint64_t denied = end.denied - a.denied;
  const bool ok = emitted == records + suppressed && records == drained + drops &&
                  emitted == denied;
  std::printf("audit conservation: emitted=%llu records=%llu suppressed=%llu drained=%llu "
              "ring_drops=%llu observed_denials=%llu -> %s\n",
              static_cast<unsigned long long>(emitted),
              static_cast<unsigned long long>(records),
              static_cast<unsigned long long>(suppressed),
              static_cast<unsigned long long>(drained),
              static_cast<unsigned long long>(drops),
              static_cast<unsigned long long>(denied), ok ? "ok" : "VIOLATED");
  return ok;
}

constexpr const char* kCtxNames[] = {"object",   "link_target", "adversary_access",
                                     "entrypoint", "user_stack", "interp_stack"};
static_assert(std::size(kCtxNames) == static_cast<size_t>(core::Ctx::kCount));

// Hook ops the workloads fire; each gets a per-op mean and call rate.
constexpr sim::Op kHookOps[] = {
    sim::Op::kSyscallBegin, sim::Op::kDirSearch, sim::Op::kFileOpen,
    sim::Op::kFileRead,     sim::Op::kFileWrite, sim::Op::kFileGetattr,
    sim::Op::kFileExec,     sim::Op::kFileMmap,  sim::Op::kFork,
};

// One round of the window on every system, with its cost: the PF-disabled
// system's CPU time per op in that round. It tells how much the host slowed
// the round (through caches and memory; ProcessCpuNs already leaves out time
// the CPU was taken away) and does not depend on what PF costs.
struct RoundSet {
  std::vector<Round> systems;
  double cost = 0;
};

// The quietest `keep` rounds seen so far. End-to-end figures pool only
// these, so a spell of host interference (which only ever slows ops down)
// does not move them.
class QuietRounds {
 public:
  QuietRounds(size_t keep, size_t nopf) : keep_(keep), nopf_(nopf) {}

  void Add(std::vector<Round> systems) {
    const Round& ref = systems[nopf_];
    const double cost = Ratio(static_cast<double>(ref.block_cpu_ns), static_cast<double>(ref.ops));
    sets_.push_back({std::move(systems), cost});
    if (sets_.size() > keep_) {
      sets_.erase(std::max_element(
          sets_.begin(), sets_.end(),
          [](const RoundSet& x, const RoundSet& y) { return x.cost < y.cost; }));
    }
  }

  // System `i`'s kept rounds, pooled.
  Round Pooled(size_t i) const {
    Round out;
    for (const RoundSet& set : sets_) {
      out.Add(set.systems[i]);
    }
    return out;
  }

 private:
  size_t keep_;
  size_t nopf_;  // index of the PF-disabled system
  std::vector<RoundSet> sets_;
};

void AddEndToEnd(Report& r, const Round& pf, const Round& nopf,
                 const std::vector<double>& setups) {
  r.Add("setup_s", Quantile(setups, 0.5), "s");
  r.Add("ops_per_s", OpsPerSecond(pf), "1/s");
  r.Add("op_p50_us", pf.latency_ns.Quantile(0.50) / 1e3, "us");
  r.Add("op_p95_us", pf.latency_ns.Quantile(0.95) / 1e3, "us");
  r.Add("pf_added_us_per_op", UsPerOp(pf) - UsPerOp(nopf), "us");
  r.Add("peak_rss_mb", PeakRssMb(), "MB");
}

// Mean duration of an empty span: the timer cost inside every span.
double EmptySpanNs() {
  constexpr int kSpans = 20000;
  Tracer t;
  for (int i = 0; i < kSpans; ++i) {
    t.Begin(SpanKind::kAuthorize);
    t.End();
  }
  return static_cast<double>(t.totals(SpanKind::kAuthorize).total_ns) / kSpans;
}

void AddPerLayer(Report& r, System& t, const Snapshot& end, const System& pf,
                 const System& nopf, const Round& pf_quiet) {
  const Tracer& tr = *t.tracer();
  const core::EngineStats st = t.engine().stats();
  const Snapshot& a = t.start;
  const double ops = static_cast<double>(t.window().ops);
  auto per_op = [ops](double x) { return Ratio(x, ops); };
  auto d = [](uint64_t e, uint64_t s) { return static_cast<double>(e - s); };
  auto us = [](int64_t ns) { return static_cast<double>(ns) / 1e3; };
  auto mean_us = [&us](const SpanTotals& s, bool self) {
    return Ratio(us(self ? s.self_ns : s.total_ns), static_cast<double>(s.count));
  };

  // sim
  r.Add("sim.hooks_per_op", per_op(d(end.authorize_calls, a.authorize_calls)), "count");
  r.Add("sim.syscalls_per_op", per_op(d(end.syscalls, a.syscalls)), "count");
  r.Add("sim.op_us_nopf", UsPerOp(nopf.window()), "us");
  r.Add("sim.fork_exec_us", mean_us(tr.totals(SpanKind::kForkExec), false), "us");
  r.Add("sim.syscall.self_us_per_op", per_op(us(tr.totals(SpanKind::kSyscall).self_ns)),
        "us");

  // core: Authorize as seen through the shim
  const SpanTotals& auth = tr.totals(SpanKind::kAuthorize);
  const double auth_us_per_op = per_op(us(auth.self_ns));
  r.Add("core.authorize.calls_per_op", per_op(static_cast<double>(auth.count)), "count");
  r.Add("core.authorize.self_us_per_op", auth_us_per_op, "us");
  r.Add("core.authorize.p50_ns", tr.authorize_ns().Quantile(0.50), "ns");
  r.Add("core.authorize.p99_ns", tr.authorize_ns().Quantile(0.99), "ns");
  for (sim::Op op : kHookOps) {
    const std::string name = "core.authorize." + std::string(sim::OpName(op));
    const SpanTotals& h = tr.by_hook(op);
    r.Add(name + ".mean_ns", Ratio(static_cast<double>(h.total_ns), static_cast<double>(h.count)),
          "ns");
    r.Add(name + ".per_op", per_op(static_cast<double>(h.count)), "count");
  }

  // core: engine counters over the window
  const double decisions = static_cast<double>(st.invocations);
  const double lookups =
      static_cast<double>(st.vcache_hits + st.vcache_misses + st.vcache_bypasses);
  r.Add("core.decisions_per_op", per_op(decisions), "count");
  r.Add("core.drops_per_op", per_op(static_cast<double>(st.drops)), "count");
  r.Add("core.vcache.lookups_per_op", per_op(lookups), "count");
  r.Add("core.vcache.hit_ratio", Ratio(static_cast<double>(st.vcache_hits), lookups), "ratio");
  r.Add("core.vcache.miss_ratio", Ratio(static_cast<double>(st.vcache_misses), lookups),
        "ratio");
  r.Add("core.vcache.bypass_ratio", Ratio(static_cast<double>(st.vcache_bypasses), lookups),
        "ratio");
  r.Add("core.vcache.state_hit_ratio",
        Ratio(static_cast<double>(st.vcache_state_hits), lookups), "ratio");
  const double unwind_requests = static_cast<double>(st.unwinds + st.unwind_cache_hits);
  r.Add("core.ctx.unwind_requests_per_op", per_op(unwind_requests), "count");
  r.Add("core.ctx.unwinds_per_op", per_op(static_cast<double>(st.unwinds)), "count");
  r.Add("core.ctx.unwind_cache_hit_ratio",
        Ratio(static_cast<double>(st.unwind_cache_hits), unwind_requests), "ratio");
  for (size_t c = 0; c < std::size(kCtxNames); ++c) {
    r.Add(std::string("core.ctx.fetch.") + kCtxNames[c] + "_per_op",
          per_op(static_cast<double>(st.ctx_fetches[c])), "count");
  }
  r.Add("core.eval.rules_per_decision", Ratio(static_cast<double>(st.rules_evaluated), decisions),
        "count");
  r.Add("core.ruleset.refreshes_per_op", per_op(static_cast<double>(st.ruleset_refreshes)),
        "count");
  // One-rule edits: churn's own, or the probe edits after the window.
  const Snapshot commits = t.Take();
  const double delta = d(commits.delta_commits, a.delta_commits);
  const double full = d(commits.full_commits, a.full_commits);
  r.Add("core.commit.count", static_cast<double>(t.edit_ns.size()), "count");
  r.Add("core.commit.p50_us", Quantile(t.edit_ns, 0.50) / 1e3, "us");
  r.Add("core.commit.p99_us", Quantile(t.edit_ns, 0.99) / 1e3, "us");
  r.Add("core.commit.delta_ratio", Ratio(delta, delta + full), "ratio");
  r.Add("core.commit.verify_us", Mean(t.verify_ns) / 1e3, "us");
  r.Add("core.setup.install_s", t.install_s, "s");

  // audit
  const double emitted = d(end.audit_emitted, a.audit_emitted);
  r.Add("audit.emitted_per_op", per_op(emitted), "count");
  r.Add("audit.records_per_op", per_op(d(end.audit_records, a.audit_records)), "count");
  r.Add("audit.suppressed_ratio", Ratio(d(end.audit_suppressed, a.audit_suppressed), emitted),
        "ratio");
  r.Add("audit.ring_drops", d(end.audit_ring_drops, a.audit_ring_drops), "count");
  r.Add("audit.drains", static_cast<double>(t.drain_ns.size()), "count");
  r.Add("audit.drain_us", Mean(t.drain_ns) / 1e3, "us");

  // apps
  for (auto [kind, name] : {std::pair{SpanKind::kHandleRequest, "apps.handle_request"},
                            std::pair{SpanKind::kPhpInclude, "apps.php_include"}}) {
    const SpanTotals& s = tr.totals(kind);
    r.Add(std::string(name) + ".self_us", mean_us(s, true), "us");
    r.Add(std::string(name) + ".calls_per_op", per_op(static_cast<double>(s.count)), "count");
  }

  // bench: the share of the PF delta that shimmed Authorize time explains,
  // after taking out the timer cost each Authorize span carries, and what
  // tracing costs.
  const double pf_added = UsPerOp(pf.window()) - UsPerOp(nopf.window());
  const double bias_ns = EmptySpanNs();
  const double auth_corrected_us =
      auth_us_per_op - per_op(static_cast<double>(auth.count)) * bias_ns / 1e3;
  r.Add("bench.pf_added_us_per_op", pf_added, "us");
  // The PF-on p99, pooled like the end-to-end op_p95_us. On a shared host it
  // followed the host more than the engine (see README.md), so it has no
  // bound.
  r.Add("bench.op_p99_us", pf_quiet.latency_ns.Quantile(0.99) / 1e3, "us");
  r.Add("bench.span_bias_ns", bias_ns, "ns");
  r.Add("bench.pf_added_explained_pct", Ratio(auth_corrected_us, pf_added) * 100, "%");
  r.Add("bench.trace_overhead_pct",
        (Ratio(OpsPerSecond(pf.window()), OpsPerSecond(t.window())) - 1) * 100, "%");
  uint64_t spans = 0;
  for (size_t k = 0; k < kSpanKinds; ++k) {
    spans += tr.totals(static_cast<SpanKind>(k)).count;
  }
  r.Add("bench.spans", static_cast<double>(spans), "count");
}

int Run(const Args& args) {
  std::unique_ptr<Workload> wl = MakeWorkload(args.workload, args.seed);
  if (!wl) {
    std::fprintf(stderr, "unknown workload '%s' (web, scale, churn)\n", args.workload.c_str());
    return 2;
  }
  // The systems that are timed are built first, so their worker threads
  // take the lowest engine worker slots (Engine::PinRuleset).
  std::vector<std::unique_ptr<System>> timed;
  timed.push_back(std::make_unique<System>(Mode::kPf, *wl, args.seed));
  timed.push_back(std::make_unique<System>(Mode::kNoPf, *wl, args.seed));
  if (args.trace) {
    timed.push_back(std::make_unique<System>(Mode::kPfTraced, *wl, args.seed));
  }
  System& pf = *timed[0];
  System& nopf = *timed[1];

  uint64_t attempted = 0;
  uint64_t failed = 0;
  // setup_s is the median of the PF-on system's set-up and kExtraSetups
  // more. The extra ones are spread over the window, one every
  // rounds / kExtraSetups rounds, so a spell of host interference slows
  // only a few of them. The untraced run makes them; the traced one has
  // no setup_s.
  constexpr int kExtraSetups = 14;
  std::vector<double> setups = {pf.setup_s};
  int extra_setups = args.trace ? kExtraSetups : 0;

  // The window is cut into 100 ms rounds; the quietest tenth is kept.
  const int rounds = std::max(1, static_cast<int>(std::lround(args.seconds * 10)));
  QuietRounds quiet(std::max(1, rounds / 10), 1);
  for (auto& s : timed) {
    s->StartWindow();
  }
  std::vector<Op> ops;
  uint64_t block = wl->warmup_blocks();
  uint64_t edits = 0;
  const int64_t start_ns = NowNs();
  for (int k = 0; k < rounds; ++k) {
    for (; extra_setups < kExtraSetups && extra_setups * rounds <= k * kExtraSetups;
         ++extra_setups) {
      System extra(Mode::kPf, *wl, args.seed);
      setups.push_back(extra.setup_s);
      attempted += extra.attempted;
      failed += extra.wrong;
    }
    const int64_t round_end =
        start_ns + static_cast<int64_t>(args.seconds * 1e9 * (k + 1) / rounds);
    do {
      wl->Generate(block, &ops);
      for (size_t i = 0; i < timed.size(); ++i) {
        // Rotate the order so no system always runs right after another.
        System& s = *timed[(i + block) % timed.size()];
        if (wl->edits_in_window() && s.mode() != Mode::kNoPf) {
          s.Edit(edits);
        }
        s.RunBlock(ops);
        if (wl->audit()) {
          s.DrainAudit();
        }
      }
      edits += wl->edits_in_window() ? 1 : 0;
      ++block;
    } while (NowNs() < round_end);
    std::vector<Round> round;
    for (auto& s : timed) {
      round.push_back(s->TakeRound());
    }
    quiet.Add(std::move(round));
  }
  std::vector<Snapshot> ends;
  for (auto& s : timed) {
    ends.push_back(s->Take());
  }
  // Where the workload makes no edits of its own, the traced run times
  // `probe_edits` edits on the traced system after the window.
  if (args.trace) {
    for (int n = 0; n < wl->probe_edits(); ++n) {
      timed[2]->Edit(static_cast<uint64_t>(n));
    }
  }

  bool conserved = true;
  for (size_t i = 0; i < timed.size(); ++i) {
    const System& s = *timed[i];
    attempted += s.attempted;
    failed += s.wrong + s.edit_failures;
    if (wl->audit()) {
      conserved = AuditConserved(s, ends[i]) && conserved;
    }
  }
  std::printf("workload=%s seed=%llu window=%.1fs ops: pf=%llu nopf=%llu\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              static_cast<unsigned long long>(pf.window().ops),
              static_cast<unsigned long long>(nopf.window().ops));
  // The whole window, for comparison with the pooled quiet rounds.
  std::printf("full window: ops_per_s=%.1f op_p50_us=%.3f op_p95_us=%.3f "
              "pf_added_us_per_op=%.4f\n",
              OpsPerSecond(pf.window()), pf.window().latency_ns.Quantile(0.50) / 1e3,
              pf.window().latency_ns.Quantile(0.95) / 1e3,
              UsPerOp(pf.window()) - UsPerOp(nopf.window()));
  std::printf("set-ups (CPU s), median %.6f, min %.6f:", Quantile(setups, 0.5),
              Quantile(setups, 1.0 / static_cast<double>(setups.size())));
  for (double x : setups) {
    std::printf(" %.6f", x);
  }
  std::printf("\nfail_frac = %.6g (%llu of %llu)\n",
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));

  Report report;
  if (args.trace) {
    System& traced = *timed[2];
    AddPerLayer(report, traced, ends[2], pf, nopf, quiet.Pooled(0));
    if (!args.spans.empty() && !traced.tracer()->WriteChromeTrace(args.spans)) {
      std::fprintf(stderr, "cannot write %s\n", args.spans.c_str());
      return 1;
    }
  } else {
    AddEndToEnd(report, quiet.Pooled(0), quiet.Pooled(1), setups);
  }
  const bool correct = failed == 0 && conserved;
  report.Print(correct, attempted, failed);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace pf::perfbench

int main(int argc, char** argv) {
  // Every thread runs on the CPU the benchmark started on (threads inherit
  // the mask). The simulated processes take turns anyway, and a worker that
  // wakes on another CPU starts with cold caches: unpinned, web requests
  // split into a 9 us and a 13 us mode whose mix changed from run to run.
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  CPU_SET(sched_getcpu(), &cpus);
  sched_setaffinity(0, sizeof(cpus), &cpus);
  pf::perfbench::Args args;
  if (!pf::perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload web|scale|churn --seed N --seconds S "
                 "--trace 0|1 [--spans PATH]\n");
    return 2;
  }
  return pf::perfbench::Run(args);
}
