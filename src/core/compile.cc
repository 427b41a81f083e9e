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
// Two entry points share the per-chain machinery: LowerProgram builds a
// program from scratch, LowerProgramDelta copies the previous generation's
// program, marks the dirty chains' records dead, and re-lowers only those
// chains — appending their bodies, slices, and classifier tables to the
// copied arena and pools (DESIGN.md §5g).
#include <algorithm>
#include <chrono>
#include <map>
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

// --- tuple-space classifier --------------------------------------------------

// The exact-match dimensions a rule pins to a single value. A dimension only
// qualifies when a mismatching request is *guaranteed* to fail the rule's
// own guard: a one-sid positive non-SYSHIGH label set, a fully resolved
// entrypoint (-p and -i), an --ino. Everything else (wildcards, negations,
// multi-sid sets, SYSHIGH sets whose membership depends on the MAC policy)
// stays residual and is always scanned.
uint8_t RuleTupleMask(const Rule& rule, TupleKey* key) {
  uint8_t mask = 0;
  const LabelSet& s = rule.subject;
  if (!s.wildcard && !s.negate && !s.syshigh && s.sids.size() == 1) {
    mask |= kTupleDimSubject;
    key->subject = s.sids[0];
  }
  if (rule.IndexableByEntrypoint()) {
    mask |= kTupleDimEpt;
    key->ept_dev = rule.program_file.dev;
    key->ept_ino = rule.program_file.ino;
    key->ept_off = *rule.entrypoint;
  }
  const LabelSet& o = rule.object;
  if (!o.wildcard && !o.negate && !o.syshigh && o.sids.size() == 1) {
    mask |= kTupleDimObject;
    key->object = o.sids[0];
  }
  if (rule.ino) {
    mask |= kTupleDimIno;
    key->ino = *rule.ino;
  }
  return mask;
}

// (mask, key values) — a std::map over this keeps group, table, and slice
// layout deterministic across compiles of the same rule base.
using GroupKey = std::tuple<uint8_t, uint64_t, uint64_t, uint64_t, uint64_t, uint64_t, uint64_t>;

uint32_t NextPow2(uint32_t v) {
  uint32_t p = 1;
  while (p < v) {
    p <<= 1;
  }
  return p;
}

void BuildBucketClassifier(PfProgram& prog, ProgramBucket& pb) {
  pb.residual_off = 0;
  pb.residual_len = 0;
  pb.tuple_off = 0;
  pb.tuple_cnt = 0;
  pb.tuple_dims = 0;
  pb.has_classifier = pb.all_len > 0;
  if (!pb.has_classifier) {
    return;
  }
  std::map<GroupKey, std::vector<uint32_t>> groups;
  std::vector<uint32_t> residual;
  for (uint32_t i = 0; i < pb.all_len; ++i) {
    const uint32_t rec_idx = prog.entries[pb.all_off + i];
    TupleKey key;
    const uint8_t mask = RuleTupleMask(*prog.rules[rec_idx].rule, &key);
    if (mask == 0) {
      residual.push_back(rec_idx);
    } else {
      groups[GroupKey{mask, key.subject, key.ept_dev, key.ept_ino, key.ept_off, key.object,
                      key.ino}]
          .push_back(rec_idx);
    }
  }
  pb.residual_off = static_cast<uint32_t>(prog.entries.size());
  pb.residual_len = static_cast<uint32_t>(residual.size());
  prog.entries.insert(prog.entries.end(), residual.begin(), residual.end());
  pb.tuple_off = static_cast<uint32_t>(prog.tuple_tables.size());
  // One open-addressed table per distinct mask; the map is mask-major so
  // each mask's groups are contiguous.
  for (auto it = groups.begin(); it != groups.end();) {
    const uint8_t mask = std::get<0>(it->first);
    auto end = it;
    uint32_t n = 0;
    while (end != groups.end() && std::get<0>(end->first) == mask) {
      ++end;
      ++n;
    }
    TupleTable table;
    table.mask = mask;
    table.used = n;
    table.slot_count = NextPow2(std::max<uint32_t>(2, n * 2));
    table.slot_off = static_cast<uint32_t>(prog.tuple_slots.size());
    prog.tuple_slots.resize(prog.tuple_slots.size() + table.slot_count);
    for (; it != end; ++it) {
      TupleSlot slot;
      slot.key.subject = static_cast<sim::Sid>(std::get<1>(it->first));
      slot.key.ept_dev = std::get<2>(it->first);
      slot.key.ept_ino = std::get<3>(it->first);
      slot.key.ept_off = std::get<4>(it->first);
      slot.key.object = static_cast<sim::Sid>(std::get<5>(it->first));
      slot.key.ino = std::get<6>(it->first);
      slot.off = static_cast<uint32_t>(prog.entries.size());
      slot.len = static_cast<uint32_t>(it->second.size());
      prog.entries.insert(prog.entries.end(), it->second.begin(), it->second.end());
      uint32_t idx =
          static_cast<uint32_t>(TupleKeyHash(mask, slot.key)) & (table.slot_count - 1);
      while (prog.tuple_slots[table.slot_off + idx].len != 0) {
        idx = (idx + 1) & (table.slot_count - 1);
      }
      prog.tuple_slots[table.slot_off + idx] = slot;
    }
    prog.tuple_tables.push_back(table);
    pb.tuple_dims = static_cast<uint8_t>(pb.tuple_dims | mask);
    ++pb.tuple_cnt;
  }
}

// --- per-chain lowering helpers (shared by full and delta builds) ------------

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
// slices and links the CompiledChain to its program chain. The classifier is
// built afterwards (timed separately) over the freshly written `all` slices.
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
  if (chain.index_built() && !chain.ept_index().empty()) {
    auto ept = std::make_shared<EptSliceMap>();
    ept->reserve(chain.ept_index().size());
    for (const auto& [key, rules] : chain.ept_index()) {
      ept->emplace(key, slice(rules));
    }
    pc.ept = std::move(ept);
  } else {
    pc.ept.reset();
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

  // Phase 2: lower every rule body, chain by chain in id order.
  std::unordered_map<const Rule*, uint32_t> rec_of;
  for (const auto& [name, chain] : filter.chains()) {
    LowerChainRules(b, prog, prog.chain_ids.at(name), chain, rec_of, report);
  }

  // Phase 3: re-point the OpBucket tables and the entrypoint index at
  // entry-table slices, and link each CompiledChain to its program chain.
  for (auto& [name, chain] : filter.chains()) {
    BuildChainTables(snap, chain, prog.chain_ids.at(name), rec_of);
  }

  // Phase 4: the tuple-space classifier over every bucket's `all` slice.
  const auto t0 = std::chrono::steady_clock::now();
  for (ProgramChain& pc : prog.chains) {
    for (ProgramBucket& pb : pc.ops) {
      BuildBucketClassifier(prog, pb);
    }
  }
  prog.classifier_build_ns += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                           t0)
          .count());
  return report;
}

analysis::AnalysisReport LowerProgramDelta(CompiledRuleset& snap, const PfProgram& prev,
                                          const std::vector<std::string>& dirty_names) {
  analysis::AnalysisReport report;
  PfProgram& prog = snap.program;
  // Prime the append-heavy pools with headroom before the base copy. When
  // `snap` recycles a retired generation's buffers (Engine::CompileRulesetDelta)
  // a bare operator= would size them exactly, and the phase-2 appends below
  // would immediately reallocate — paying the full-pool copy twice. clear()
  // first so a growing reserve moves no stale bytes.
  const auto prime = [](auto& pool, size_t need) {
    if (pool.capacity() < need) {
      pool.clear();
      pool.reserve(need);
    }
  };
  prime(prog.arena, prev.arena.size() + prev.arena.size() / 8 + 1024);
  prime(prog.entries, prev.entries.size() + prev.entries.size() / 8 + 256);
  prime(prog.rules, prev.rules.size() + prev.rules.size() / 8 + 64);
  prime(prog.tuple_slots, prev.tuple_slots.size() + prev.tuple_slots.size() / 8 + 256);
  prime(prog.tuple_tables, prev.tuple_tables.size() + 64);
  prog = prev;  // copy-on-write: the base generation stays live and untouched
  ProgramBuilder b(prog);
  Table& filter = snap.rules.filter();

  std::vector<std::string> dirty(dirty_names);
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());

  // Phase 1: mark the dirty chains' old records dead. Dead records keep
  // their arena words (the suffix append never moves live code) but are
  // unreachable from every live dispatch table; their reclaimable size
  // accumulates until Engine::CommitRuleset's compaction threshold forces a
  // from-scratch relower.
  for (const std::string& name : dirty) {
    ProgramChain& pc = prog.chains[static_cast<size_t>(prog.chain_ids.at(name))];
    for (uint32_t rec_idx : pc.rules) {
      RuleRecord& rec = prog.rules[rec_idx];
      prog.dead_arena_words += rec.end - rec.entry;
      ++prog.dead_rule_records;
      rec.rule = nullptr;
    }
    for (const ProgramBucket& pb : pc.ops) {
      prog.dead_entry_slots += pb.all_len + pb.plain_len + pb.residual_len;
      for (uint32_t t = 0; t < pb.tuple_cnt; ++t) {
        const TupleTable& table = prog.tuple_tables[pb.tuple_off + t];
        for (uint32_t s = 0; s < table.slot_count; ++s) {
          prog.dead_entry_slots += prog.tuple_slots[table.slot_off + s].len;
        }
      }
    }
    if (pc.ept) {
      for (const auto& [key, sl] : *pc.ept) {
        prog.dead_entry_slots += sl.second;
      }
    }
    pc.rules.clear();
    pc.ops.fill(ProgramBucket{});
    pc.ept.reset();
  }

  // Phase 2: re-lower the dirty chains (name-sorted), appending bodies,
  // slices, and classifier tables. Clean chains' tables are byte-identical
  // to the (already verified) base generation.
  std::unordered_map<const Rule*, uint32_t> rec_of;
  for (const std::string& name : dirty) {
    const Chain* chain = filter.Find(name);
    const int32_t id = prog.chain_ids.at(name);
    ProgramChain& pc = prog.chains[static_cast<size_t>(id)];
    pc.policy_drop = chain->policy() == Chain::Policy::kDrop;
    pc.index_built = chain->index_built();
    LowerChainRules(b, prog, id, *chain, rec_of, report);
  }
  for (const std::string& name : dirty) {
    const Chain* chain = filter.Find(name);
    BuildChainTables(snap, *chain, prog.chain_ids.at(name), rec_of);
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (const std::string& name : dirty) {
    ProgramChain& pc = prog.chains[static_cast<size_t>(prog.chain_ids.at(name))];
    for (ProgramBucket& pb : pc.ops) {
      BuildBucketClassifier(prog, pb);
    }
  }
  prog.classifier_build_ns += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                           t0)
          .count());
  return report;
}

}  // namespace pf::core
