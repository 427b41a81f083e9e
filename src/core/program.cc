#include "src/core/program.h"

#include <algorithm>
#include <cstdio>
#include <sstream>


namespace pf::core {

// --- ProgramBuilder ----------------------------------------------------------

uint32_t ProgramBuilder::Emit(const PfInsn& insn) {
  const uint32_t pc = static_cast<uint32_t>(prog_.arena.size());
  prog_.arena.resize(prog_.arena.size() + kPfInsnWords);
  std::memcpy(prog_.arena.data() + pc, &insn, sizeof(insn));
  return pc;
}

uint32_t ProgramBuilder::InternString(const std::string& s) {
  auto [it, inserted] =
      prog_.intern_strings.try_emplace(s, static_cast<uint32_t>(prog_.strings.size()));
  if (inserted) {
    prog_.strings.push_back(s);
  }
  return it->second;
}

uint32_t ProgramBuilder::InternLabelSet(const LabelSet& ls) {
  // Canonical key over the sid values and modifier bits (sids are stable
  // within one kernel; the disassembler renders names, not pool contents,
  // so interning order never leaks into user-visible output).
  std::ostringstream key;
  key << (ls.wildcard ? 'w' : '-') << (ls.negate ? 'n' : '-') << (ls.syshigh ? 's' : '-');
  for (sim::Sid sid : ls.sids) {
    key << ',' << sid;
  }
  auto [it, inserted] =
      prog_.intern_labelsets.try_emplace(key.str(), static_cast<uint32_t>(prog_.labelsets.size()));
  if (inserted) {
    LabelSetRef ref;
    ref.off = static_cast<uint32_t>(prog_.sid_pool.size());
    ref.len = static_cast<uint32_t>(ls.sids.size());
    ref.syshigh = ls.syshigh ? 1 : 0;
    ref.negate = ls.negate ? 1 : 0;
    ref.wildcard = ls.wildcard ? 1 : 0;
    prog_.sid_pool.insert(prog_.sid_pool.end(), ls.sids.begin(), ls.sids.end());
    prog_.labelsets.push_back(ref);
  }
  return it->second;
}

uint32_t ProgramBuilder::InternOperand(const Operand& op) {
  prog_.operands.push_back(op);
  return static_cast<uint32_t>(prog_.operands.size() - 1);
}

uint32_t ProgramBuilder::AddNativeMatch(const NativeMatchModule* m) {
  prog_.native_matches.push_back(m);
  return static_cast<uint32_t>(prog_.native_matches.size() - 1);
}

uint32_t ProgramBuilder::AddNativeTarget(const NativeTargetModule* t) {
  prog_.native_targets.push_back(t);
  return static_cast<uint32_t>(prog_.native_targets.size() - 1);
}

// --- tuple-space classifier keys ---------------------------------------------

uint64_t TupleKeyHash(uint8_t mask, const TupleKey& key) {
  size_t h = std::hash<uint64_t>()(0x7f00u | mask);
  if ((mask & kTupleDimSubject) != 0) {
    h = HashCombine(h, std::hash<uint64_t>()(key.subject));
  }
  if ((mask & kTupleDimEpt) != 0) {
    h = HashCombine(h, std::hash<uint64_t>()(key.ept_dev));
    h = HashCombine(h, std::hash<uint64_t>()(key.ept_ino));
    h = HashCombine(h, std::hash<uint64_t>()(key.ept_off));
  }
  if ((mask & kTupleDimObject) != 0) {
    h = HashCombine(h, std::hash<uint64_t>()(key.object));
  }
  if ((mask & kTupleDimIno) != 0) {
    h = HashCombine(h, std::hash<uint64_t>()(key.ino));
  }
  return h;
}

bool TupleKeyEq(uint8_t mask, const TupleKey& lhs, const TupleKey& rhs) {
  if ((mask & kTupleDimSubject) != 0 && lhs.subject != rhs.subject) {
    return false;
  }
  if ((mask & kTupleDimEpt) != 0 &&
      (lhs.ept_dev != rhs.ept_dev || lhs.ept_ino != rhs.ept_ino ||
       lhs.ept_off != rhs.ept_off)) {
    return false;
  }
  if ((mask & kTupleDimObject) != 0 && lhs.object != rhs.object) {
    return false;
  }
  return (mask & kTupleDimIno) == 0 || lhs.ino == rhs.ino;
}

ClassifierStats ComputeClassifierStats(const PfProgram& prog) {
  ClassifierStats stats;
  for (const ProgramChain& pc : prog.chains) {
    for (const ProgramBucket& pb : pc.ops) {
      if (!pb.has_classifier) {
        continue;
      }
      stats.tables += pb.tuple_cnt;
      stats.max_slice = std::max(stats.max_slice, pb.residual_len);
      stats.residual_rules += pb.residual_len;
      for (uint32_t t = 0; t < pb.tuple_cnt; ++t) {
        const TupleTable& table = prog.tuple_tables[pb.tuple_off + t];
        stats.tuples += table.used;
        for (uint32_t s = 0; s < table.slot_count; ++s) {
          stats.max_slice =
              std::max(stats.max_slice, prog.tuple_slots[table.slot_off + s].len);
        }
      }
    }
  }
  return stats;
}

// --- disassembler ------------------------------------------------------------

namespace {

std::string CtxMaskNames(CtxMask mask) {
  static constexpr const char* kNames[] = {"object",     "link-target", "adversary",
                                           "entrypoint", "user-stack",  "interp-stack"};
  std::string out;
  for (uint32_t i = 0; i < static_cast<uint32_t>(Ctx::kCount); ++i) {
    if ((mask & (1u << i)) != 0) {
      if (!out.empty()) {
        out += "|";
      }
      out += kNames[i];
    }
  }
  return out.empty() ? "nothing" : out;
}

std::string RenderLabelSet(const PfProgram& prog, uint32_t idx,
                           const sim::LabelRegistry& labels) {
  const LabelSetRef& ref = prog.labelsets[idx];
  LabelSet ls;
  ls.wildcard = ref.wildcard != 0;
  ls.negate = ref.negate != 0;
  ls.syshigh = ref.syshigh != 0;
  ls.sids.assign(prog.sid_pool.begin() + ref.off, prog.sid_pool.begin() + ref.off + ref.len);
  return ls.Render(labels);
}

const char* LangName(uint16_t aux) {
  switch (static_cast<sim::InterpLang>(aux - 1)) {
    case sim::InterpLang::kPhp:
      return "php";
    case sim::InterpLang::kPython:
      return "python";
    case sim::InterpLang::kBash:
      return "bash";
    case sim::InterpLang::kNone:
      break;
  }
  return "?";
}

std::string EqFlag(uint8_t flags) {
  return (flags & kPfNegate) != 0 ? "--nequal" : "--equal";
}

std::string RenderInsn(const PfProgram& prog, const RuleRecord& rec, const PfInsn& insn,
                       const sim::LabelRegistry& labels) {
  std::ostringstream oss;
  switch (static_cast<PfOp>(insn.op)) {
    case PfOp::kRuleBegin:
      oss << "RULE_BEGIN";
      break;
    case PfOp::kCheckOp:
      oss << "CHECK_OP " << sim::OpName(static_cast<sim::Op>(insn.a));
      break;
    case PfOp::kMatchSubject:
      oss << "MATCH_SUBJECT " << RenderLabelSet(prog, insn.a, labels);
      break;
    case PfOp::kEnsureCtx:
      oss << "ENSURE_CTX " << CtxMaskNames(insn.a);
      break;
    case PfOp::kCheckProgram:
      // The path comes from the side table: the insn itself carries only the
      // compiled FileId, whose dev/ino are kernel-instance specific.
      oss << "CHECK_PROGRAM " << (rec.rule != nullptr ? rec.rule->program : "?");
      break;
    case PfOp::kCheckEptOff:
      oss << "CHECK_EPT_OFF 0x" << std::hex << insn.b << std::dec;
      break;
    case PfOp::kCheckIno:
      oss << "CHECK_INO " << insn.b;
      break;
    case PfOp::kMatchObject:
      oss << "MATCH_OBJECT " << RenderLabelSet(prog, insn.a, labels);
      break;
    case PfOp::kMatchState:
      oss << "MATCH_STATE --key " << prog.strings[insn.a];
      break;
    case PfOp::kMatchStateEq:
    case PfOp::kMatchStateNe:
      oss << "MATCH_STATE --key " << prog.strings[insn.a] << " --cmp "
          << prog.operands[insn.b].Render() << " " << EqFlag(insn.flags);
      break;
    case PfOp::kMatchSignal:
      oss << "MATCH_SIGNAL";
      break;
    case PfOp::kMatchPhase:
      oss << "MATCH_PHASE --is " << prog.strings[insn.a];
      if ((insn.flags & kPfNegate) != 0) {
        oss << " --nequal";
      }
      break;
    case PfOp::kMatchSyscallNrEq:
    case PfOp::kMatchSyscallNrNe:
    case PfOp::kMatchSyscallArgEq:
    case PfOp::kMatchSyscallArgNe:
      oss << "MATCH_SYSCALL_ARG --arg " << insn.aux << " " << EqFlag(insn.flags) << " "
          << static_cast<int64_t>(insn.b);
      break;
    case PfOp::kMatchCompareEq:
    case PfOp::kMatchCompareNe:
      oss << "MATCH_COMPARE --v1 " << prog.operands[insn.b].Render() << " --v2 "
          << prog.operands[static_cast<uint32_t>(insn.c)].Render() << " "
          << EqFlag(insn.flags);
      break;
    case PfOp::kMatchInterp:
      oss << "MATCH_INTERP";
      if (!prog.strings[insn.a].empty()) {
        oss << " --script " << prog.strings[insn.a];
      }
      if (insn.aux != 0) {
        oss << " --lang " << LangName(insn.aux);
      }
      break;
    case PfOp::kMatchNative:
      oss << "MATCH_NATIVE " << prog.native_matches[insn.a]->Render();
      break;
    case PfOp::kAccept:
      oss << "ACCEPT";
      break;
    case PfOp::kDrop:
      oss << "DROP";
      break;
    case PfOp::kReturn:
      oss << "RETURN";
      break;
    case PfOp::kContinue:
      oss << "CONTINUE";
      break;
    case PfOp::kJump:
      oss << "JUMP -> ";
      if (insn.a != kPfNoIndex) {
        oss << prog.chains[insn.a].name;
      } else {
        oss << prog.strings[static_cast<uint32_t>(insn.b)] << " (undefined)";
      }
      break;
    case PfOp::kStateSet:
      oss << "STATE_SET --key " << prog.strings[insn.a] << " --value "
          << prog.operands[static_cast<uint32_t>(insn.b)].Render();
      break;
    case PfOp::kStateUnset:
      oss << "STATE_UNSET --key " << prog.strings[insn.a];
      break;
    case PfOp::kLog:
      oss << "LOG";
      if (!prog.strings[insn.a].empty()) {
        oss << " --prefix " << prog.strings[insn.a];
      }
      break;
    case PfOp::kTargetNative:
      oss << "TARGET_NATIVE " << prog.native_targets[insn.a]->Render();
      break;
  }
  return oss.str();
}

// Live/referenced totals for the listing header. A delta-built program
// carries dead records and pool entries superseded by later generations;
// counting only what live rules reference keeps the listing byte-identical
// to a from-scratch relower of the same rule base (for scratch programs the
// referenced counts equal the raw pool sizes, since interning only happens
// on behalf of emitted instructions).
struct LiveCounts {
  size_t rules = 0;
  size_t insns = 0;
  size_t arena_words = 0;
  size_t strings = 0;
  size_t labelsets = 0;
  size_t sids = 0;
  size_t operands = 0;
  size_t native_matches = 0;
  size_t native_targets = 0;
};

LiveCounts CountLive(const PfProgram& prog) {
  LiveCounts lc;
  std::vector<uint8_t> str_seen(prog.strings.size(), 0);
  std::vector<uint8_t> ls_seen(prog.labelsets.size(), 0);
  auto touch_str = [&](uint32_t idx) {
    if (idx < str_seen.size() && str_seen[idx] == 0) {
      str_seen[idx] = 1;
      ++lc.strings;
    }
  };
  auto touch_ls = [&](uint32_t idx) {
    if (idx < ls_seen.size() && ls_seen[idx] == 0) {
      ls_seen[idx] = 1;
      ++lc.labelsets;
      lc.sids += prog.labelsets[idx].len;
    }
  };
  for (const RuleRecord& rec : prog.rules) {
    if (rec.rule == nullptr) {
      continue;  // dead record (superseded by a delta commit)
    }
    ++lc.rules;
    lc.arena_words += rec.end - rec.entry;
    if (rec.jump_name != kPfNoIndex) {
      touch_str(rec.jump_name);
    }
    for (uint32_t pc = rec.entry; pc < rec.end; pc += kPfInsnWords) {
      ++lc.insns;
      const PfInsn insn = prog.Fetch(pc);
      switch (static_cast<PfOp>(insn.op)) {
        case PfOp::kMatchSubject:
        case PfOp::kMatchObject:
          touch_ls(insn.a);
          break;
        case PfOp::kMatchState:
          touch_str(insn.a);
          break;
        case PfOp::kMatchStateEq:
        case PfOp::kMatchStateNe:
          touch_str(insn.a);
          ++lc.operands;  // operands are interned per use, never deduped
          break;
        case PfOp::kMatchCompareEq:
        case PfOp::kMatchCompareNe:
          lc.operands += 2;
          break;
        case PfOp::kMatchInterp:
        case PfOp::kMatchPhase:
        case PfOp::kStateUnset:
        case PfOp::kLog:
          touch_str(insn.a);
          break;
        case PfOp::kStateSet:
          touch_str(insn.a);
          ++lc.operands;
          break;
        case PfOp::kJump:
          touch_str(static_cast<uint32_t>(insn.b));
          break;
        case PfOp::kMatchNative:
          ++lc.native_matches;  // native pools are per-use, like operands
          break;
        case PfOp::kTargetNative:
          ++lc.native_targets;
          break;
        default:
          break;
      }
    }
  }
  return lc;
}

}  // namespace

std::string DisassemblePfProgram(const PfProgram& prog, const sim::LabelRegistry& labels) {
  std::ostringstream oss;
  const LiveCounts lc = CountLive(prog);
  oss << ";; pf program: chains=" << prog.chains.size() << " rules=" << lc.rules
      << " insns=" << lc.insns << " arena_words=" << lc.arena_words << "\n";
  oss << ";; pools: strings=" << lc.strings << " labelsets=" << lc.labelsets
      << " sids=" << lc.sids << " operands=" << lc.operands
      << " native_matches=" << lc.native_matches
      << " native_targets=" << lc.native_targets << "\n";
  const ClassifierStats cs = ComputeClassifierStats(prog);
  oss << ";; classifier: tables=" << cs.tables << " tuples=" << cs.tuples
      << " max_slice=" << cs.max_slice << " residual=" << cs.residual_rules << "\n";
  for (const ProgramChain& chain : prog.chains) {
    oss << "chain " << chain.name << " (" << (chain.builtin ? "builtin" : "user")
        << ", policy " << (chain.policy_drop ? "DROP" : "ACCEPT") << ", "
        << chain.rules.size() << " rules";
    if (chain.index_built && chain.ept && !chain.ept->empty()) {
      oss << ", ept-indexed " << chain.ept->size() << " entrypoints";
    }
    oss << ")\n";
    if (chain.op_mask != 0) {
      oss << "  ops:";
      for (size_t opi = 0; opi < sim::kOpCount; ++opi) {
        if ((chain.op_mask >> opi) & 1) {
          oss << " " << sim::OpName(static_cast<sim::Op>(opi));
        }
      }
      oss << "\n";
    }
    // Chain-order rule bodies. Offsets are printed relative to the rule's
    // entry so the listing is invariant under arena relocation.
    std::unordered_map<uint32_t, size_t> chain_pos;  // record idx -> 1-based pos
    for (size_t i = 0; i < chain.rules.size(); ++i) {
      chain_pos[chain.rules[i]] = i + 1;
      const RuleRecord& rec = prog.rules[chain.rules[i]];
      oss << "  rule " << (i + 1) << ":\n";
      for (uint32_t pc = rec.entry; pc < rec.end; pc += kPfInsnWords) {
        char off[16];
        std::snprintf(off, sizeof(off), "%04u", (pc - rec.entry) / kPfInsnWords);
        oss << "    +" << off << " " << RenderInsn(prog, rec, prog.Fetch(pc), labels)
            << "\n";
      }
    }
    // Entrypoint index, in deterministic (dev, ino, offset) order. Rule
    // lists render as chain positions, not record indices.
    if (chain.index_built && chain.ept && !chain.ept->empty()) {
      std::vector<std::pair<EptKey, std::pair<uint32_t, uint32_t>>> keys(chain.ept->begin(),
                                                                         chain.ept->end());
      std::sort(keys.begin(), keys.end(), [](const auto& x, const auto& y) {
        if (x.first.file.dev != y.first.file.dev) {
          return x.first.file.dev < y.first.file.dev;
        }
        if (x.first.file.ino != y.first.file.ino) {
          return x.first.file.ino < y.first.file.ino;
        }
        return x.first.offset < y.first.offset;
      });
      for (const auto& [key, slice] : keys) {
        oss << "  ept ";
        // Render the entrypoint via a member rule's program path (stable
        // across kernels, unlike dev/ino).
        std::string path = "?";
        if (slice.second > 0) {
          const RuleRecord& rec = prog.rules[prog.entries[slice.first]];
          if (rec.rule != nullptr && !rec.rule->program.empty()) {
            path = rec.rule->program;
          }
        }
        oss << path << "+0x" << std::hex << key.offset << std::dec << " -> rules";
        for (uint32_t i = 0; i < slice.second; ++i) {
          oss << " " << chain_pos[prog.entries[slice.first + i]];
        }
        oss << "\n";
      }
    }
  }
  return oss.str();
}

}  // namespace pf::core
