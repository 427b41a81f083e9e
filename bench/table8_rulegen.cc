// Table 8: entrypoint classification vs. invocation threshold, over the
// synthetic two-week deployment trace (5,234 entrypoints, ~410k accesses),
// plus the §6.3.2 launch-environment consistency study (318 programs).
//
// Ground truth is known by construction, so "False Positives" counts rules
// that would actually misfire. Paper shape: false positives decay with the
// threshold and reach zero at the trace's latest class switch (1149).

#include <algorithm>
#include <cinttypes>

#include "bench/bench_util.h"
#include "src/analysis/symbolic/model.h"
#include "src/rulegen/synthetic.h"

namespace pf::bench {
namespace {

void Run() {
  using rulegen::AnalyzeThresholds;
  using rulegen::GenerateDeploymentTrace;
  using rulegen::Table8Row;

  rulegen::SyntheticTrace trace = GenerateDeploymentTrace();
  Caption("Table 8: entrypoint classification vs. invocation threshold");
  std::printf("synthetic deployment trace: %zu entrypoints, %" PRIu64 " access records\n\n",
              trace.entrypoints.size(), trace.total_accesses);
  std::printf("%10s %10s %10s %10s %14s %16s\n", "Threshold", "High Only", "Low Only",
              "Both", "Rules Produced", "False Positives");
  for (const Table8Row& row :
       AnalyzeThresholds(trace, {0, 5, 10, 50, 100, 500, 1000, 1149, 5000})) {
    std::printf("%10" PRIu64 " %10" PRIu64 " %10" PRIu64 " %10" PRIu64 " %14" PRIu64
                " %16" PRIu64 "\n",
                row.threshold, row.high_only, row.low_only, row.both, row.rules_produced,
                row.false_positives);
  }
  std::printf("\nPaper reference rows: t=0 -> 4570/664/0, 5234 rules, 525 FP;\n"
              "t=1149 -> 4229/480/525, 30 rules, 0 FP.\n");

  // Cause analysis of late-switching entrypoints (paper: of 28 entrypoints
  // switching after 50 invocations, 18 were library entrypoints).
  uint64_t late = 0;
  uint64_t late_library = 0;
  for (const auto& e : trace.entrypoints) {
    if (e.truth == rulegen::SyntheticEpt::Truth::kBoth && e.switch_at > 50) {
      ++late;
      if (e.in_library) {
        ++late_library;
      }
    }
  }
  std::printf("\nLate (>50 invocations) class switches: %" PRIu64 ", of which %" PRIu64
              " in library entrypoints (paper: 18 of 28)\n",
              late, late_library);

  Caption("Section 6.3.2: launch-environment consistency");
  rulegen::ConsistencyReport report = rulegen::AnalyzeLaunchConsistency();
  std::printf("programs launched: %d, consistent environment every launch: %d "
              "(paper: 232 of 318)\n",
              report.programs, report.consistent);
}

// Beyond the paper: the rule-generation pipeline at production rule counts
// (ROADMAP / DESIGN.md §5g). A distributor deployment that keeps every
// suggested entrypoint rule lands in the tens-of-thousands; this section
// materializes synthetic distributor bases at 1218 (the paper's PF Full) up
// to 200k rules and reports what commit-time costs: parse+install, the full
// lowering, the verifier, and the longest rule list an entrypoint-indexed
// decision scans (one op bucket's plain rules, or one entrypoint's rules).
uint32_t MaxIndexedSlice(const core::PfProgram& prog) {
  uint32_t longest = 0;
  for (const core::ProgramChain& pc : prog.chains) {
    for (const core::ProgramBucket& pb : pc.ops) {
      longest = std::max(longest, pb.plain_len);
    }
    for (const core::EptItem& item : pc.ept.items) {
      longest = std::max(longest, item.len);
    }
  }
  return longest;
}

void RunScale() {
  Caption("Rule generation at scale: commit-time costs, 1218 -> 200k rules");
  std::printf("%8s %12s %12s %12s %10s %12s %10s\n", "Rules", "install ms", "compile ms",
              "verify ms", "max slice", "symbolic ms", "regions");
  for (int count : {1218, 10000, 50000, 100000, 200000}) {
    System sys;
    Stopwatch sw;
    sw.Start();
    sys.InstallRules(SyntheticRuleBase(count));
    const double install_us = sw.ElapsedUs();
    sw.Start();
    auto snap = sys.engine->CompileRuleset();
    const double compile_us = sw.ElapsedUs();
    // The symbolic decision-space model over the same compiled base: the
    // full-partition build whose 1218-rule wall time the CI budget bounds.
    const analysis::symbolic::SymbolicModel model =
        analysis::symbolic::BuildModel(*snap, sys.engine->policy());
    std::printf("%8d %12.1f %12.1f %12.1f %10u %12.1f %10zu\n", count, install_us / 1e3,
                compile_us / 1e3, static_cast<double>(snap->verify_ns) / 1e6,
                MaxIndexedSlice(snap->program), static_cast<double>(model.build_us) / 1e3,
                model.region_count);
  }
}

}  // namespace
}  // namespace pf::bench

int main() {
  pf::bench::Run();
  pf::bench::RunScale();
  return 0;
}
