// pfcheck: static analyzer for Process Firewall rule bases.
//
// Loads a rule base onto a booted simulated system (so label names and
// program paths resolve exactly as they would at install time), compiles
// it the way the engine's commit path does, and runs the full analysis
// suite: shadowing/dead rules, JUMP-graph sanity, and STATE protocol
// lints.
//
//   pfcheck --library              analyze the shipped paper rule base
//   pfcheck file.rules ...         analyze pftables-save format dumps
//   pfcheck --json ...             machine-readable report (with timing)
//   pfcheck --diff old.rules ...   also diff old.rules -> the analyzed base
//
// The pairwise shadow pass (analyzer.cc) is the fast heuristic tier; the
// symbolic decision-space model (src/analysis/symbolic/) is the exact tier.
// pfcheck runs both, reports the symbolic model's dead rules, and
// cross-checks that every pairwise shadow finding is confirmed by the
// symbolic pass — a violation is itself reported as an analyzer bug
// ("analysis-mismatch").
//
// Exit status: 0 clean (or warnings only), 1 error-severity diagnostics,
// 2 the rule base failed to load at all.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/analysis/analyzer.h"
#include "src/analysis/symbolic/diff.h"
#include "src/analysis/symbolic/model.h"
#include "src/apps/programs.h"
#include "src/apps/rule_library.h"
#include "src/core/engine.h"
#include "src/core/pftables.h"
#include "src/sim/sysimage.h"

namespace {

void PrintUsage(std::FILE* to) {
  std::fputs(
      "usage: pfcheck [--json] [--library] [rule-file...]\n"
      "\n"
      "Static analysis of Process Firewall rule bases: shadowed and dead\n"
      "rules, JUMP-graph defects (undefined chains, cycles, depth), and STATE\n"
      "protocol mismatches.\n"
      "\n"
      "  --library   analyze the shipped paper rule base (R1-R12 + link rules)\n"
      "  --json      emit a JSON report with analysis timing\n"
      "  --diff F    semantically diff rule base F against the analyzed base\n"
      "  rule-file   a pftables-save format dump (as produced by Save())\n",
      to);
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool library = false;
  std::string diff_path;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--library") {
      library = true;
    } else if (arg == "--diff" && i + 1 < argc) {
      diff_path = argv[++i];
    } else if (arg == "-h" || arg == "--help") {
      PrintUsage(stdout);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "pfcheck: unknown flag %s\n", arg.c_str());
      PrintUsage(stderr);
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  if (!library && files.empty()) {
    library = true;  // nothing else to analyze; default to the shipped base
  }

  using pf::core::Status;

  // Boot the simulated system so rule installation resolves label names and
  // program paths against the same image the engine authorizes against.
  pf::sim::Kernel kernel(0x5eed);
  pf::sim::BuildSysImage(kernel);
  pf::apps::InstallPrograms(kernel);
  pf::core::Engine* engine = pf::core::InstallProcessFirewall(kernel);
  pf::core::Pftables pftables(engine);

  if (library) {
    Status s = pftables.ExecAll(pf::apps::RuleLibrary::DefaultRuleBase());
    if (!s.ok()) {
      std::fprintf(stderr, "pfcheck: loading shipped library failed: %s\n",
                   s.message().c_str());
      return 2;
    }
  }
  for (const std::string& path : files) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "pfcheck: cannot open %s\n", path.c_str());
      return 2;
    }
    std::ostringstream dump;
    dump << in.rdbuf();
    Status s = pftables.Restore(dump.str());
    if (!s.ok()) {
      std::fprintf(stderr, "pfcheck: %s: %s\n", path.c_str(), s.message().c_str());
      return 2;
    }
  }

  // Compile once (the commit path's staging compile) and analyze. Timing is
  // averaged over a few runs so the JSON number is stable enough for the
  // benchmark harness to track.
  auto compiled = engine->CompileRuleset();
  pf::analysis::AnalysisReport report;
  constexpr int kTimingIters = 10;
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kTimingIters; ++i) {
    report = pf::analysis::AnalyzeRuleset(*compiled, engine->policy());
  }
  auto t1 = std::chrono::steady_clock::now();
  const double analysis_us =
      std::chrono::duration<double, std::micro>(t1 - t0).count() / kTimingIters;

  // Symbolic decision-space model (the exact tier; DESIGN.md "Symbolic
  // decision-space analysis"). Its dead-rule findings subsume the pairwise
  // pass's shadow findings, which is asserted below as a cross-check.
  namespace sym = pf::analysis::symbolic;
  const sym::SymbolicModel model = sym::BuildModel(*compiled, engine->policy());
  for (const sym::RuleLocusInfo& dead : model.dead) {
    report.Add(pf::analysis::Severity::kWarning, "dead-rule",
               {"filter", dead.chain, dead.pos},
               "no request in the decision space can fire this rule "
               "(symbolic analysis)");
  }
  // Cross-check: every pairwise shadow/unreachable finding claims its rule
  // can never fire, so the exact pass must agree. A disagreement means one
  // of the analyzers is wrong — surface it as an error on the spot.
  if (!model.indeterminate) {
    std::set<std::pair<std::string, std::size_t>> dead_set;
    for (const sym::RuleLocusInfo& dead : model.dead) {
      dead_set.emplace(dead.chain, dead.pos);
    }
    for (const pf::analysis::Diagnostic& d : report.diagnostics()) {
      if ((d.code == "shadowed-rule" || d.code == "unreachable-rule") &&
          d.locus.pos != 0 &&
          dead_set.find({d.locus.chain, d.locus.pos}) == dead_set.end()) {
        report.Add(pf::analysis::Severity::kError, "analysis-mismatch", d.locus,
                   "pairwise pass reports '" + d.code +
                       "' but the symbolic model proves the rule can fire");
      }
    }
  }
  report.Sort();

  // Optional semantic diff: old base from --diff file, new base = analyzed.
  sym::DiffResult diff;
  bool have_diff = false;
  if (!diff_path.empty()) {
    std::ifstream in(diff_path);
    if (!in) {
      std::fprintf(stderr, "pfcheck: cannot open %s\n", diff_path.c_str());
      return 2;
    }
    std::ostringstream dump;
    dump << in.rdbuf();
    pf::core::Engine old_engine(kernel, engine->config());
    pf::core::Pftables old_front(&old_engine);
    std::vector<std::string> lines;
    std::istringstream stream(dump.str());
    for (std::string line; std::getline(stream, line);) {
      lines.push_back(line);
    }
    if (Status s = old_front.ExecAll(lines); !s.ok()) {
      std::fprintf(stderr, "pfcheck: %s: %s\n", diff_path.c_str(), s.message().c_str());
      return 2;
    }
    diff = sym::DiffRulesets(*old_engine.CompileRuleset(), *compiled, engine->policy());
    have_diff = true;
  }

  const pf::core::Table& filter = engine->ruleset().filter();
  const std::size_t rules = filter.total_rules();
  const std::size_t nchains = filter.chains().size();

  // The load-time verifier's verdict for the same compile (engine commit
  // gate, DESIGN.md §5f) — reported separately from the analyzer lints: a
  // verification error means the program artifact itself is unsafe to run.
  const bool verified = compiled->verified;
  const double verify_us = static_cast<double>(compiled->verify_ns) / 1000.0;

  if (json) {
    std::ostringstream out;
    // `schema` versions the machine-readable surface (same contract as the
    // pfdiff object): consumers gate on it before parsing. Version 2 dropped
    // the "automata" object along with the automaton tier, version 3 the
    // "classifier" object along with the tuple-space classifier.
    out << "{\"pfcheck\": {\"schema\": 3, \"rules\": " << rules
        << ", \"chains\": " << nchains
        << ", \"analysis_us\": " << analysis_us
        << ", \"verified\": " << (verified ? "true" : "false")
        << ", \"verify_us\": " << verify_us
        << ", \"verifier\": " << compiled->verify_report.RenderJson()
        << ", \"symbolic\": {\"regions\": " << model.region_count
        << ", \"max_op_regions\": " << model.max_op_regions
        << ", \"dead_rules\": " << model.dead.size()
        << ", \"analysis_us\": " << model.build_us
        << ", \"indeterminate\": " << (model.indeterminate ? "true" : "false")
        << ", \"exact_state\": " << (model.exact_state ? "true" : "false");
    if (have_diff) {
      // Embed the pfdiff object ({"pfdiff": {...}}) under "diff".
      const std::string diff_json = sym::RenderDiffJson(diff);
      const std::size_t open = diff_json.find('{', diff_json.find("\"pfdiff\""));
      const std::size_t close = diff_json.rfind('}');
      out << ", \"diff\": "
          << diff_json.substr(open, diff_json.rfind('}', close - 1) + 1 - open);
    }
    out << "}"
        << ", \"errors\": " << report.errors()
        << ", \"warnings\": " << report.warnings()
        << ", \"diagnostics\": " << report.RenderJson() << "}}\n";
    std::fputs(out.str().c_str(), stdout);
  } else {
    if (!compiled->verify_report.empty()) {
      std::fputs(compiled->verify_report.RenderText().c_str(), stdout);
    }
    if (!report.empty()) {
      std::fputs(report.RenderText().c_str(), stdout);
    }
    std::printf(
        "pfcheck: %zu rule(s) in %zu chain(s): %zu error(s), %zu warning(s) [%.1f us], "
        "program %s [%.1f us]\n",
        rules, nchains, report.errors(), report.warnings(), analysis_us,
        verified ? "verified" : "REJECTED by verifier", verify_us);
    std::printf(
        "pfcheck: symbolic model: %zu region(s) (max %zu per op), %zu dead rule(s)%s%s "
        "[%llu us]\n",
        model.region_count, model.max_op_regions, model.dead.size(),
        model.indeterminate ? ", INDETERMINATE" : "",
        model.exact_state ? "" : ", inexact STATE",
        static_cast<unsigned long long>(model.build_us));
    if (have_diff) {
      std::fputs(sym::RenderDiffText(diff).c_str(), stdout);
    }
  }
  return report.HasErrors() || !verified ? 1 : 0;
}
