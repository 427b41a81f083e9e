// Commit-time lowering: CompiledRuleset -> arena-packed PfProgram (pass 2 of
// Engine::CompileRuleset; see program.h for the instruction format).
//
// Lowering runs after the OpBucket pass so it can re-point the per-(chain,
// op) dispatch tables and the entrypoint index at entry-table slices instead
// of Rule pointers. Rule bodies are emitted in chain order, one guard/match
// instruction sequence per rule, in a fixed evaluation order (op precheck,
// subject precheck, one context round-trip, the entrypoint/object default
// matches, -m modules, target).
//
// Every commit lowers the whole staging rule base into a fresh program, the
// way iptables commits a rule change by replacing the whole table (DESIGN.md
// §5g).
#include <tuple>

#include "src/core/engine.h"
#include "src/core/program.h"

namespace pf::core {

namespace {

PfInsn Op0(PfOp op) {
  PfInsn insn{};
  insn.op = static_cast<uint8_t>(op);
  return insn;
}

// Appends a module-unlowerable error for a module that emitted no
// instructions and has no native implementation to escape into.
void RefuseModule(analysis::AnalysisReport& report, const std::string& chain, size_t pos0,
                  std::string_view kind, std::string_view name) {
  report.Add(analysis::Severity::kError, "module-unlowerable",
             analysis::RuleLocus{"filter", chain, pos0 + 1},
             std::string(kind) + " module " + std::string(name) +
                 " neither lowers to instructions nor provides a native implementation");
}

// Lowers rule `pos0` of `chain`. A module that declines to lower and is not
// native has no implementation at all: it emits nothing and is reported as
// an error, so the commit fails instead of the module evaluating as a
// silent no-match.
RuleRecord LowerRule(ProgramBuilder& b, const Rule& rule, uint32_t rec_idx,
                     const std::string& chain, size_t pos0,
                     analysis::AnalysisReport& report) {
  PfProgram& prog = b.program();
  RuleRecord rec;
  rec.rule = &rule;
  rec.entry = static_cast<uint32_t>(prog.arena.size());

  PfInsn begin = Op0(PfOp::kRuleBegin);
  begin.a = rec_idx;
  b.Emit(begin);

  // Contextless prechecks first: -o, then -s.
  if (rule.op) {
    PfInsn insn = Op0(PfOp::kCheckOp);
    insn.a = static_cast<uint32_t>(*rule.op);
    b.Emit(insn);
  }
  // Per-op buckets only admit rules whose -o already matches, so evaluation
  // through a bucket enters past the guard; entrypoint-index lists enter at
  // entry + kPfInsnWords (see RuleRecord::body).
  rec.body = static_cast<uint32_t>(prog.arena.size());
  if (!rule.subject.wildcard) {
    PfInsn insn = Op0(PfOp::kMatchSubject);
    insn.a = b.InternLabelSet(rule.subject);
    b.Emit(insn);
  }
  // One context round-trip for the rule's install-time needs union; the
  // guard ops below re-ensure their own bits, which then short-circuit.
  if (rule.needs != 0) {
    PfInsn insn = Op0(PfOp::kEnsureCtx);
    insn.a = rule.needs;
    b.Emit(insn);
  }
  // Default matches: entrypoint (-p / -i), then object (--ino / -d). The
  // check ops are self-guarding (each ensures + validates its own context),
  // so no standalone require instruction is emitted.
  if (rule.has_program()) {
    PfInsn insn = Op0(PfOp::kCheckProgram);
    insn.b = rule.program_file.dev;
    insn.c = rule.program_file.ino;
    b.Emit(insn);
  }
  if (rule.entrypoint) {
    PfInsn insn = Op0(PfOp::kCheckEptOff);
    insn.b = *rule.entrypoint;
    b.Emit(insn);
  }
  if (rule.ino) {
    PfInsn insn = Op0(PfOp::kCheckIno);
    insn.b = *rule.ino;
    b.Emit(insn);
  }
  if (!rule.object.wildcard) {
    PfInsn insn = Op0(PfOp::kMatchObject);
    insn.a = b.InternLabelSet(rule.object);
    b.Emit(insn);
  }
  // -m modules in install order. Builtins lower to inline ops; native
  // extension modules become virtual escapes.
  for (const auto& match : rule.matches) {
    if (match->Lower(b)) {
      continue;
    }
    if (const auto* native = dynamic_cast<const NativeMatchModule*>(match.get())) {
      PfInsn insn = Op0(PfOp::kMatchNative);
      insn.a = b.AddNativeMatch(native);
      b.Emit(insn);
    } else {
      RefuseModule(report, chain, pos0, "match", match->Name());
    }
  }
  // The target terminates the rule body.
  if (!rule.target->Lower(b)) {
    if (const auto* native = dynamic_cast<const NativeTargetModule*>(rule.target.get())) {
      PfInsn insn = Op0(PfOp::kTargetNative);
      insn.a = b.AddNativeTarget(native);
      b.Emit(insn);
    } else {
      RefuseModule(report, chain, pos0, "target", rule.target->Name());
    }
  }
  rec.end = static_cast<uint32_t>(prog.arena.size());

  // Side-table links for the analyzer and the disassembler.
  const std::string& jump = rule.target->jump_chain();
  if (!jump.empty()) {
    rec.jump_name = b.InternString(jump);
    rec.jump_chain = b.ChainId(jump);
  }
  rec.static_kind = rule.target->StaticKind();
  return rec;
}

// --- per-chain lowering helpers ---------------------------------------------

void LowerChainRules(ProgramBuilder& b, PfProgram& prog, int32_t id, const Chain& chain,
                     std::unordered_map<const Rule*, uint32_t>& rec_of,
                     analysis::AnalysisReport& report) {
  ProgramChain& pc = prog.chains[static_cast<size_t>(id)];
  for (const auto& rule : chain.rules()) {
    const uint32_t rec_idx = static_cast<uint32_t>(prog.rules.size());
    prog.rules.push_back(LowerRule(b, *rule, rec_idx, pc.name, pc.rules.size(), report));
    RuleRecord& rec = prog.rules.back();
    rec.chain_id = id;
    rec.chain_index = static_cast<uint32_t>(pc.rules.size());
    rec_of.emplace(rule.get(), rec_idx);
    pc.rules.push_back(rec_idx);
  }
}

// Re-points one chain's OpBucket tables and entrypoint index at entry-table
// slices and links the CompiledChain to its program chain.
void BuildChainTables(CompiledRuleset& snap, const Chain& chain, int32_t id,
                      const std::unordered_map<const Rule*, uint32_t>& rec_of) {
  PfProgram& prog = snap.program;
  ProgramChain& pc = prog.chains[static_cast<size_t>(id)];
  auto slice = [&prog, &rec_of](const std::vector<const Rule*>& rules) {
    const uint32_t off = static_cast<uint32_t>(prog.entries.size());
    for (const Rule* rule : rules) {
      prog.entries.push_back(rec_of.at(rule));
    }
    return std::pair<uint32_t, uint32_t>(off, static_cast<uint32_t>(rules.size()));
  };
  CompiledChain& cc = snap.compiled.at(&chain);
  cc.program_chain = id;
  pc.op_mask = cc.op_mask;
  for (size_t op = 0; op < sim::kOpCount; ++op) {
    const OpBucket& ob = cc.ops[op];
    ProgramBucket& pb = pc.ops[op];
    std::tie(pb.all_off, pb.all_len) = slice(ob.all);
    std::tie(pb.plain_off, pb.plain_len) = slice(ob.plain);
    pb.has_indexed = ob.has_indexed;
  }
  if (chain.index_built()) {
    std::vector<EptItem> keys;
    keys.reserve(chain.ept_index().size());
    for (const auto& [key, rules] : chain.ept_index()) {
      const auto [off, len] = slice(rules);
      keys.push_back(EptItem{key, off, len});
    }
    pc.ept.Build(std::move(keys));
  }
}

}  // namespace

analysis::AnalysisReport LowerProgram(CompiledRuleset& snap) {
  analysis::AnalysisReport report;
  PfProgram& prog = snap.program;
  ProgramBuilder b(prog);
  Table& filter = snap.rules.filter();

  // Phase 1: create every chain record up front so forward JUMPs resolve to
  // ids during lowering. std::map iteration makes ids name-sorted and
  // deterministic.
  for (const auto& [name, chain] : filter.chains()) {
    const int32_t id = static_cast<int32_t>(prog.chains.size());
    prog.chain_ids.emplace(name, id);
    ProgramChain pc;
    pc.name = name;
    pc.builtin = chain.builtin();
    pc.policy_drop = chain.policy() == Chain::Policy::kDrop;
    pc.index_built = chain.index_built();
    prog.chains.push_back(std::move(pc));
  }
  prog.root_input = prog.FindChain("input");
  prog.root_output = prog.FindChain("output");
  prog.root_create = prog.FindChain("create");
  prog.root_syscallbegin = prog.FindChain("syscallbegin");

  // Size the record table and rec_of once, from the rule count.
  size_t num_rules = 0;
  for (const auto& [name, chain] : filter.chains()) {
    num_rules += chain.size();
  }
  prog.rules.reserve(num_rules);
  std::unordered_map<const Rule*, uint32_t> rec_of;
  rec_of.reserve(num_rules);

  // Phase 2: lower every rule body, chain by chain in id order.
  for (const auto& [name, chain] : filter.chains()) {
    LowerChainRules(b, prog, prog.chain_ids.at(name), chain, rec_of, report);
  }

  // Phase 3: re-point the OpBucket tables and the entrypoint index at
  // entry-table slices, and link each CompiledChain to its program chain.
  for (auto& [name, chain] : filter.chains()) {
    BuildChainTables(snap, chain, prog.chain_ids.at(name), rec_of);
  }

  return report;
}

}  // namespace pf::core
