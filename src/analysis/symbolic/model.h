// Symbolic decision-space model of a compiled Process Firewall rule base.
//
// BuildModel runs the engine's traversal — root-chain selection, the per-op
// rule filter, the plain-then-entrypoint-indexed order, JUMP edges, the
// depth bound, chain policies — over *regions* of the finite atom universe
// (universe.h) instead of single packets. The result is, per operation, a
// partition of the full decision space into disjoint regions, each mapped to
// the verdict the engine would return for every concrete request in it plus
// the ordered side effects (STATE writes, LOG records) it would perform.
// The model works its traversal out from each chain's rules
// (Chain::rules()), never from the program's dispatch tables, so the
// differential tests check lowering's bucketing against a reading of its
// own.
//
// Exactness: with only builtin match modules, literal STATE operands, and
// statically-kinded targets, region membership predicts the engine verdict
// exactly (the differential fuzz test enforces this tuple by tuple).
// Extension modules without Symbolize() become uninterpreted boolean
// dimensions — the partition stays sound (every concrete request still lands
// in exactly one region with the right verdict once the predicate's truth is
// known) and rule firing stays over-approximated, so dead-rule findings
// ("this rule can never fire") are never false positives.
#ifndef SRC_ANALYSIS_SYMBOLIC_MODEL_H_
#define SRC_ANALYSIS_SYMBOLIC_MODEL_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/symbolic/region.h"
#include "src/analysis/symbolic/universe.h"
#include "src/core/engine.h"

namespace pf::analysis::symbolic {

enum class OutcomeKind {
  kAllow,
  kDrop,
  // A custom target without StaticKind() decides here: the engine's verdict
  // is not statically known. Regions stop at the first such target.
  kIndeterminate,
};

std::string_view OutcomeName(OutcomeKind k);

// One cell of the per-op partition.
struct DecisionRegion {
  Region region;
  OutcomeKind outcome = OutcomeKind::kAllow;
  // Side effects fired on the way (rendered targets, traversal order).
  std::vector<std::string> effects;
  // What decided: "chain:pos" of the terminal rule, "policy:chain" for a
  // builtin DROP policy, "default" for the engine's default allow, or
  // "no-applicable-chain" for ops no chain covers.
  std::string decided_by;
};

// Which inputs can ever enter a chain (pfquery's reachability queries).
struct ChainReach {
  bool entered = false;
  uint64_t ops = 0;      // bit i: entered while deciding op i
  DimSet ept{{}, false};      // union of entrypoint atoms over every entry
  DimSet subjects{{}, false}; // union of subject atoms over every entry
};

struct RuleLocusInfo {
  std::string chain;
  size_t pos = 0;  // 1-based, like pftables -L and the pairwise analyzer
  const core::Rule* rule = nullptr;
};

struct ModelOptions {
  // Mirror of EngineConfig::ept_chains: traverse indexed chains in
  // plain-then-indexed order. Verdict-neutral in the engine only when rule
  // bases follow the deny-then-default-allow discipline, so the model
  // replicates the configured order instead of assuming neutrality.
  bool ept_chains = true;
};

struct SymbolicModel {
  std::shared_ptr<const Universe> universe;
  std::array<std::vector<DecisionRegion>, sim::kOpCount> by_op;

  // Every filter-table rule, and the subset the model proves can fire.
  std::vector<RuleLocusInfo> loci;
  std::set<const core::Rule*> fired;
  // Rules no region of any op fires: exact dead rules (empty unless the
  // model stayed determinate — see indeterminate below).
  std::vector<RuleLocusInfo> dead;

  std::map<std::string, ChainReach> reach;

  // True when some reachable target had no StaticKind(): outcomes past it
  // are unknown and dead-rule reporting is suppressed (a dynamic target
  // could continue into later rules).
  bool indeterminate = false;
  // False when STATE --set used variable operands (slot predicates became
  // uninterpreted): verdicts stay sound but witnesses lose slot precision.
  bool exact_state = true;

  size_t region_count = 0;
  size_t max_op_regions = 0;
  uint64_t build_us = 0;

  // The partition cell containing a full atom assignment (exactly one by
  // construction; nullptr only if the assignment is out of range).
  const DecisionRegion* Find(sim::Op op,
                             const std::vector<uint32_t>& assignment) const;
};

// Builds the model of `rs` against `policy`. Pass a shared `universe` (built
// jointly over several rule bases) to make models comparable region-by-region;
// by default the rule base gets its own universe.
SymbolicModel BuildModel(const core::CompiledRuleset& rs,
                         const sim::MacPolicy& policy,
                         std::shared_ptr<const Universe> universe = nullptr,
                         const ModelOptions& opts = {});

}  // namespace pf::analysis::symbolic

#endif  // SRC_ANALYSIS_SYMBOLIC_MODEL_H_
