#include "src/core/program.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <sstream>


namespace pf::core {

// --- EptTable ------------------------------------------------------------------

void EptTable::Build(std::vector<EptItem> keys) {
  items = std::move(keys);
  slots.clear();
  if (items.empty()) {
    return;
  }
  slots.assign(std::bit_ceil(2 * items.size()), kPfNoIndex);
  const size_t mask = slots.size() - 1;
  for (uint32_t item = 0; item < items.size(); ++item) {
    size_t i = Home(items[item].key);
    while (slots[i] != kPfNoIndex) {
      i = (i + 1) & mask;
    }
    slots[i] = item;
  }
}

// --- ProgramBuilder ----------------------------------------------------------

uint32_t ProgramBuilder::Emit(const PfInsn& insn) {
  const uint32_t pc = static_cast<uint32_t>(prog_.arena.size());
  prog_.arena.resize(prog_.arena.size() + kPfInsnWords);
  std::memcpy(prog_.arena.data() + pc, &insn, sizeof(insn));
  return pc;
}

uint32_t ProgramBuilder::InternString(const std::string& s) {
  auto [it, inserted] =
      intern_strings_.try_emplace(s, static_cast<uint32_t>(prog_.strings.size()));
  if (inserted) {
    prog_.strings.push_back(s);
  }
  return it->second;
}

uint32_t ProgramBuilder::InternLabelSet(const LabelSet& ls) {
  // Canonical key over the modifier bits and the sid values, as raw bytes
  // (sids are stable within one kernel; the disassembler renders names, not
  // pool contents, so interning order never leaks into user-visible
  // output). Short sets fit the string's inline buffer.
  std::string key(1 + ls.sids.size() * sizeof(sim::Sid), '\0');
  key[0] = static_cast<char>((ls.wildcard ? 1 : 0) | (ls.negate ? 2 : 0) |
                             (ls.syshigh ? 4 : 0));
  if (!ls.sids.empty()) {
    std::memcpy(key.data() + 1, ls.sids.data(), ls.sids.size() * sizeof(sim::Sid));
  }
  auto [it, inserted] =
      intern_labelsets_.try_emplace(std::move(key), static_cast<uint32_t>(prog_.labelsets.size()));
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
      oss << "CHECK_PROGRAM " << rec.rule->program;
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

}  // namespace

std::string DisassemblePfProgram(const PfProgram& prog, const sim::LabelRegistry& labels) {
  std::ostringstream oss;
  oss << ";; pf program: chains=" << prog.chains.size() << " rules=" << prog.rules.size()
      << " insns=" << prog.arena.size() / kPfInsnWords << " arena_words=" << prog.arena.size()
      << "\n";
  oss << ";; pools: strings=" << prog.strings.size() << " labelsets=" << prog.labelsets.size()
      << " sids=" << prog.sid_pool.size() << " operands=" << prog.operands.size()
      << " native_matches=" << prog.native_matches.size()
      << " native_targets=" << prog.native_targets.size() << "\n";
  for (const ProgramChain& chain : prog.chains) {
    oss << "chain " << chain.name << " (" << (chain.builtin ? "builtin" : "user")
        << ", policy " << (chain.policy_drop ? "DROP" : "ACCEPT") << ", "
        << chain.rules.size() << " rules";
    if (!chain.ept.empty()) {
      oss << ", ept-indexed " << chain.ept.size() << " entrypoints";
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
    if (!chain.ept.empty()) {
      std::vector<EptItem> keys = chain.ept.items;
      std::sort(keys.begin(), keys.end(), [](const EptItem& x, const EptItem& y) {
        if (x.key.file.dev != y.key.file.dev) {
          return x.key.file.dev < y.key.file.dev;
        }
        if (x.key.file.ino != y.key.file.ino) {
          return x.key.file.ino < y.key.file.ino;
        }
        return x.key.offset < y.key.offset;
      });
      for (const EptItem& item : keys) {
        oss << "  ept ";
        // Render the entrypoint via a member rule's program path (stable
        // across kernels, unlike dev/ino).
        std::string path = "?";
        if (item.len > 0) {
          const RuleRecord& rec = prog.rules[prog.entries[item.off]];
          if (!rec.rule->program.empty()) {
            path = rec.rule->program;
          }
        }
        oss << path << "+0x" << std::hex << item.key.offset << std::dec << " -> rules";
        for (uint32_t i = 0; i < item.len; ++i) {
          oss << " " << chain_pos[prog.entries[item.off + i]];
        }
        oss << "\n";
      }
    }
  }
  return oss.str();
}

}  // namespace pf::core
