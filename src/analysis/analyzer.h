// Static analysis of compiled Process Firewall rule bases.
//
// The analyzer runs over the same CompiledRuleset the engine traverses (not
// over rule text), so what it proves is a property of what hook evaluation
// will actually do: dispatch buckets, the entrypoint-chain index, the JUMP
// depth bound, and the per-op root-chain selection are all the engine's own.
// Three analysis families (DESIGN.md "Static analysis of rule bases"):
//
//  * Shadowing / dead rules — pairwise match-space subsumption: a rule whose
//    match space is covered by an earlier terminal (ACCEPT/DROP/RETURN) rule
//    in the same chain can never fire. Label sets (including negation and
//    SYSHIGH) are expanded against the MAC policy; -m modules compare via
//    MatchModule::Subsumes. Also: rules whose label sets expand to the empty
//    set, and rules unreachable for every op that could enter their chain.
//  * JUMP-graph validation — undefined jump targets, jump cycles, chains no
//    jump reaches, RETURN in a root chain, and the kMaxChainDepth bound.
//  * State-protocol lints — STATE checks of keys no rule sets, STATE --set
//    of keys no rule checks, and matches/targets whose context (signal
//    numbers, syscall args, symlink targets, ...) is never supplied by any
//    op that reaches them.
#ifndef SRC_ANALYSIS_ANALYZER_H_
#define SRC_ANALYSIS_ANALYZER_H_

#include "src/analysis/diagnostics.h"
#include "src/core/engine.h"
#include "src/sim/mac_policy.h"

namespace pf::analysis {

struct AnalyzerOptions {
  bool shadowing = true;
  bool jump_graph = true;
  bool state_protocol = true;
  int max_depth = core::kMaxChainDepth;
};

// Analyzes one compiled snapshot against the MAC policy the engine would
// expand SYSHIGH / negated label sets with. The report is sorted by locus.
AnalysisReport AnalyzeRuleset(const core::CompiledRuleset& rs,
                              const sim::MacPolicy& policy,
                              const AnalyzerOptions& opts = {});

// Compiles the engine's *staging* rule base (uncommitted edits included —
// exactly what pftables -L shows and --check gates on) and analyzes it.
AnalysisReport AnalyzeEngine(core::Engine& engine, const AnalyzerOptions& opts = {});

}  // namespace pf::analysis

#endif  // SRC_ANALYSIS_ANALYZER_H_
