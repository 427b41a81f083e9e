// Commit-time lowering: CompiledRuleset -> arena-packed PfProgram (pass 1 of
// Engine::CompileRuleset; see program.h for the instruction format).
//
// Rule bodies are emitted in chain order, one guard/match instruction
// sequence per rule, in a fixed evaluation order (op precheck, subject
// precheck, one context round-trip, the entrypoint/object default matches,
// -m modules, target). The same pass over a chain's records builds the
// chain's dispatch table — per-op buckets, op and syscall-number masks and
// the entrypoint index — which is the only one the engine has.
//
// Every commit lowers the whole staging rule base into a fresh program, the
// way iptables commits a rule change by replacing the whole table (DESIGN.md
// §5g).
#include <algorithm>
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

// --- per-chain lowering -------------------------------------------------------

// The syscall-number bit of ProgramChain::nr_mask a rule may match: the one
// it pins with `-m SYSCALL_ARGS --arg 0 --equal N`, or every bit.
uint64_t RuleNrBits(const Rule& rule) {
  if (!rule.target->jump_chain().empty()) {
    return ~0ull;
  }
  for (const auto& match : rule.matches) {
    const auto* args = dynamic_cast<const SyscallArgsMatch*>(match.get());
    if (args != nullptr && args->arg == 0 && !args->negate && args->value >= 0 &&
        args->value < 64) {
      return 1ull << args->value;
    }
  }
  return ~0ull;
}

// Lowers chain `id`'s rules and, in the same pass over its records, builds
// its dispatch table.
void LowerChain(ProgramBuilder& b, PfProgram& prog, int32_t id, const Chain& chain,
                analysis::AnalysisReport& report) {
  ProgramChain& pc = prog.chains[static_cast<size_t>(id)];
  // Per-op record lists, and the (key, record) pairs of indexable rules.
  std::array<std::vector<uint32_t>, sim::kOpCount> all;
  std::array<std::vector<uint32_t>, sim::kOpCount> plain;
  std::vector<std::pair<EptKey, uint32_t>> keyed;
  pc.nr_mask = pc.policy_drop ? ~0ull : 0;
  constexpr auto kSyscallBegin = static_cast<size_t>(sim::Op::kSyscallBegin);
  for (const auto& rule : chain.rules()) {
    const uint32_t rec_idx = static_cast<uint32_t>(prog.rules.size());
    prog.rules.push_back(LowerRule(b, *rule, rec_idx, pc.name, pc.rules.size(), report));
    RuleRecord& rec = prog.rules.back();
    rec.chain_id = id;
    rec.chain_index = static_cast<uint32_t>(pc.rules.size());
    pc.rules.push_back(rec_idx);

    const bool indexed = rule->IndexableByEntrypoint();
    if (indexed) {
      keyed.emplace_back(EptKey{rule->program_file, *rule->entrypoint}, rec_idx);
    }
    // A rule whose -o pins another op can never pass that op's precheck, so
    // it joins only its own op's bucket.
    const size_t first = rule->op ? static_cast<size_t>(*rule->op) : 0;
    const size_t last = rule->op ? first + 1 : sim::kOpCount;
    for (size_t op = first; op < last; ++op) {
      all[op].push_back(rec_idx);
      if (indexed) {
        pc.ops[op].has_indexed = true;
      } else {
        plain[op].push_back(rec_idx);
      }
    }
    if (first <= kSyscallBegin && kSyscallBegin < last) {
      pc.nr_mask |= RuleNrBits(*rule);
    }
  }

  auto slice = [&prog](const std::vector<uint32_t>& recs) {
    const uint32_t off = static_cast<uint32_t>(prog.entries.size());
    prog.entries.insert(prog.entries.end(), recs.begin(), recs.end());
    return std::pair<uint32_t, uint32_t>(off, static_cast<uint32_t>(recs.size()));
  };
  for (size_t op = 0; op < sim::kOpCount; ++op) {
    ProgramBucket& pb = pc.ops[op];
    std::tie(pb.all_off, pb.all_len) = slice(all[op]);
    // With no indexable rule passing the op, plain is all.
    std::tie(pb.plain_off, pb.plain_len) =
        pb.has_indexed ? slice(plain[op]) : std::pair(pb.all_off, pb.all_len);
    if (pb.all_len != 0) {
      pc.op_mask |= 1ull << op;
    }
  }

  // The entrypoint index: group the indexable records by key and give each
  // key its run of entries. Records are numbered in chain order, so sorting
  // by (key, record) keeps chain order inside each key.
  std::sort(keyed.begin(), keyed.end(), [](const auto& x, const auto& y) {
    return std::tie(x.first.file.dev, x.first.file.ino, x.first.offset, x.second) <
           std::tie(y.first.file.dev, y.first.file.ino, y.first.offset, y.second);
  });
  std::vector<EptItem> items;
  for (size_t i = 0; i < keyed.size();) {
    const uint32_t off = static_cast<uint32_t>(prog.entries.size());
    size_t j = i;
    for (; j < keyed.size() && keyed[j].first == keyed[i].first; ++j) {
      prog.entries.push_back(keyed[j].second);
    }
    items.push_back(EptItem{keyed[i].first, off, static_cast<uint32_t>(j - i)});
    i = j;
  }
  pc.ept.Build(std::move(items));
}

}  // namespace

analysis::AnalysisReport LowerProgram(CompiledRuleset& snap) {
  analysis::AnalysisReport report;
  PfProgram& prog = snap.program;
  ProgramBuilder b(prog);
  const Table& filter = snap.rules.filter();

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
    prog.chains.push_back(std::move(pc));
  }
  prog.root_input = prog.FindChain("input");
  prog.root_output = prog.FindChain("output");
  prog.root_create = prog.FindChain("create");
  prog.root_syscallbegin = prog.FindChain("syscallbegin");

  // Size the record table once, from the rule count.
  size_t num_rules = 0;
  for (const auto& [name, chain] : filter.chains()) {
    num_rules += chain.size();
  }
  prog.rules.reserve(num_rules);

  // Phase 2: lower every rule body and build every dispatch table, chain by
  // chain in id order.
  for (const auto& [name, chain] : filter.chains()) {
    LowerChain(b, prog, prog.chain_ids.at(name), chain, report);
  }

  return report;
}

}  // namespace pf::core
