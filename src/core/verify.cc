#include "src/core/verify.h"

#include <deque>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/engine.h"

namespace pf::core {

namespace {

using analysis::RuleLocus;
using analysis::Severity;

// The verifier's mutable walk state: the program under proof, the report
// being filled, and the record currently being walked. Loci are constructed
// only when a finding is emitted — the clean path (every commit) must not
// pay for diagnostic strings, the verifier runs inside CompileRuleset.
struct Verifier {
  const PfProgram& prog;
  const VerifyOptions& opts;
  analysis::AnalysisReport* report;
  const RuleRecord* cur = nullptr;  // record under CheckRecord, else null
  // Pool bounds, hoisted once: the per-insn loop compares against these on
  // every instruction and must not re-derive vector sizes through `report`
  // aliasing barriers.
  const uint64_t nstrings = prog.strings.size();
  const uint64_t noperands = prog.operands.size();
  const uint64_t nlabelsets = prog.labelsets.size();
  const uint64_t nsids = prog.sid_pool.size();
  const uint64_t nchains = prog.chains.size();
  const uint64_t nmatches = prog.native_matches.size();
  const uint64_t ntargets = prog.native_targets.size();

  RuleLocus LocusOf(const RuleRecord& rec) const {
    RuleLocus locus;
    locus.chain = rec.chain_id >= 0 && static_cast<size_t>(rec.chain_id) < prog.chains.size()
                      ? prog.chains[static_cast<size_t>(rec.chain_id)].name
                      : std::string("(arena)");
    locus.pos = rec.chain_index + 1;
    return locus;
  }

  void Err(const RuleLocus& locus, const char* code, std::string msg) {
    report->Add(Severity::kError, code, locus, std::move(msg));
  }

  // Error at the record currently being walked (the common corruption case).
  void ErrCur(const char* code, std::string msg) {
    Err(LocusOf(*cur), code, std::move(msg));
  }

  // --- pool bound proofs ----------------------------------------------------

  bool String(uint32_t idx, const char* what) {
    if (idx >= nstrings) {
      ErrCur("pool-oob", std::string(what) + " string ref " + std::to_string(idx) +
                             " outside pool of " + std::to_string(prog.strings.size()));
      return false;
    }
    return true;
  }

  bool Operand(uint64_t idx, const char* what) {
    if (idx >= noperands) {
      ErrCur("pool-oob", std::string(what) + " operand ref " + std::to_string(idx) +
                             " outside pool of " + std::to_string(prog.operands.size()));
      return false;
    }
    return true;
  }

  bool LabelSet(uint32_t idx, const char* what) {
    if (idx >= nlabelsets) {
      ErrCur("pool-oob", std::string(what) + " labelset ref " + std::to_string(idx) +
                             " outside pool of " + std::to_string(prog.labelsets.size()));
      return false;
    }
    const LabelSetRef& ref = prog.labelsets[idx];
    if (static_cast<uint64_t>(ref.off) + ref.len > nsids) {
      ErrCur("pool-oob", std::string(what) + " labelset " + std::to_string(idx) +
                             " sid slice [" + std::to_string(ref.off) + ", " +
                             std::to_string(ref.off + ref.len) + ") outside sid pool of " +
                             std::to_string(prog.sid_pool.size()));
      return false;
    }
    return true;
  }

  // --- per-instruction proof ------------------------------------------------

  void CheckInsn(uint32_t rec_idx, const PfInsn& insn, uint32_t offset) {
    const auto op = static_cast<PfOp>(insn.op);
    if (insn.op == 0 || insn.op >= kPfOpCount) {
      ErrCur("bad-opcode", "+" + std::to_string(offset) + ": opcode " +
                               std::to_string(insn.op) + " outside [1, " +
                               std::to_string(kPfOpCount) + ")");
      return;
    }
    switch (op) {
      case PfOp::kRuleBegin:
        if (insn.a != rec_idx) {
          ErrCur("rule-malformed",
              "RULE_BEGIN names record " + std::to_string(insn.a) + ", expected " +
                  std::to_string(rec_idx));
        }
        break;
      case PfOp::kCheckOp:
        if (insn.a >= sim::kOpCount) {
          ErrCur("pool-oob", "CHECK_OP operation " + std::to_string(insn.a) +
                                 " outside the op table of " +
                                 std::to_string(sim::kOpCount));
        }
        break;
      case PfOp::kMatchSubject:
        LabelSet(insn.a, "MATCH_SUBJECT");
        break;
      case PfOp::kEnsureCtx:
        if ((insn.a & ~((1u << static_cast<uint32_t>(Ctx::kCount)) - 1)) != 0) {
          ErrCur("ctx-mask-invalid",
              "ENSURE_CTX mask " + std::to_string(insn.a) +
                  " sets bits beyond the context-module table");
        }
        break;
      case PfOp::kCheckProgram:
      case PfOp::kCheckEptOff:
      case PfOp::kCheckIno:
        break;  // immediate comparisons, nothing to dereference
      case PfOp::kMatchObject:
        LabelSet(insn.a, "MATCH_OBJECT");
        break;
      case PfOp::kMatchState:
        String(insn.a, "MATCH_STATE");
        break;
      case PfOp::kMatchStateEq:
      case PfOp::kMatchStateNe:
        String(insn.a, "MATCH_STATE");
        Operand(insn.b, "MATCH_STATE --cmp");
        break;
      case PfOp::kMatchSignal:
        break;
      case PfOp::kMatchPhase:
        // insn.b carries the phase id immediate; only the rendered phase
        // name dereferences a pool.
        String(insn.a, "MATCH_PHASE");
        break;
      case PfOp::kMatchSyscallArgEq:
      case PfOp::kMatchSyscallArgNe:
      case PfOp::kMatchSyscallNrEq:
      case PfOp::kMatchSyscallNrNe: {
        // The Nr forms read the syscall number and carry aux == 0; the Arg
        // forms index the request's fixed argument array
        // (AccessRequest::args, 4 slots) with aux - 1.
        const bool wants_nr = op == PfOp::kMatchSyscallNrEq || op == PfOp::kMatchSyscallNrNe;
        constexpr uint16_t kArgSlots =
            std::tuple_size_v<decltype(sim::AccessRequest::args)>;
        if (insn.aux > kArgSlots || wants_nr != (insn.aux == 0)) {
          ErrCur("syscall-arg-oob",
              "MATCH_SYSCALL_ARG --arg " + std::to_string(insn.aux) +
                  " outside the request's argument slots");
        }
        break;
      }
      case PfOp::kMatchCompareEq:
      case PfOp::kMatchCompareNe:
        Operand(insn.b, "MATCH_COMPARE --v1");
        Operand(insn.c, "MATCH_COMPARE --v2");
        break;
      case PfOp::kMatchInterp:
        String(insn.a, "MATCH_INTERP");
        break;
      case PfOp::kMatchNative:
        if (insn.a >= nmatches || prog.native_matches[insn.a] == nullptr) {
          ErrCur("native-oob", "MATCH_NATIVE index " + std::to_string(insn.a) +
                                   " outside native-match pool of " +
                                   std::to_string(prog.native_matches.size()));
        }
        break;
      case PfOp::kAccept:
      case PfOp::kDrop:
      case PfOp::kReturn:
      case PfOp::kContinue:
        break;
      case PfOp::kJump:
        // kPfNoIndex is the legal "undefined chain" form (a GOTO to a chain
        // that was never created commits today and falls through at runtime);
        // anything else must be a real chain id.
        if (insn.a != kPfNoIndex && insn.a >= nchains) {
          ErrCur("jump-target-oob", "JUMP target chain " + std::to_string(insn.a) +
                                        " outside chain table of " +
                                        std::to_string(prog.chains.size()));
        }
        String(static_cast<uint32_t>(insn.b), "JUMP name");
        break;
      case PfOp::kStateSet:
        // The STATE dictionary is the only store the instruction set has;
        // both the key and value references must be valid STATE slots.
        if (insn.a >= nstrings) {
          ErrCur("state-slot-oob", "STATE_SET key ref " + std::to_string(insn.a) +
                                       " outside string pool of " +
                                       std::to_string(prog.strings.size()));
        }
        if (insn.b >= noperands) {
          ErrCur("state-slot-oob", "STATE_SET value ref " + std::to_string(insn.b) +
                                       " outside operand pool of " +
                                       std::to_string(prog.operands.size()));
        }
        break;
      case PfOp::kStateUnset:
        if (insn.a >= nstrings) {
          ErrCur("state-slot-oob", "STATE_UNSET key ref " + std::to_string(insn.a) +
                                       " outside string pool of " +
                                       std::to_string(prog.strings.size()));
        }
        break;
      case PfOp::kLog:
        String(insn.a, "LOG prefix");
        break;
      case PfOp::kTargetNative:
        if (insn.a >= ntargets || prog.native_targets[insn.a] == nullptr) {
          ErrCur("native-oob", "TARGET_NATIVE index " + std::to_string(insn.a) +
                                   " outside native-target pool of " +
                                   std::to_string(prog.native_targets.size()));
        }
        break;
    }
  }

  // --- per-record structural proof ------------------------------------------

  void CheckRecord(uint32_t rec_idx) {
    const RuleRecord& rec = prog.rules[rec_idx];
    cur = &rec;
    // The evaluator reads the rule's counters and the disassembler its
    // source through this pointer on every record an entry list names.
    if (rec.rule == nullptr) {
      ErrCur("rule-malformed", "record names no rule");
      return;
    }
    const uint64_t arena_words = prog.arena.size();
    if (rec.entry % kPfInsnWords != 0 || (rec.end - rec.entry) % kPfInsnWords != 0) {
      ErrCur("rule-malformed", "record [" + std::to_string(rec.entry) + ", " +
                                   std::to_string(rec.end) +
                                   ") is not instruction-aligned");
      return;
    }
    if (rec.end <= rec.entry || rec.end > arena_words) {
      ErrCur("arena-truncated", "record [" + std::to_string(rec.entry) + ", " +
                                    std::to_string(rec.end) + ") outside arena of " +
                                    std::to_string(arena_words) + " words");
      return;
    }
    if (rec.body < rec.entry + kPfInsnWords || rec.body > rec.end ||
        rec.body % kPfInsnWords != 0) {
      ErrCur("rule-malformed",
          "body entry " + std::to_string(rec.body) + " outside the record");
      return;
    }
    if (static_cast<PfOp>(prog.Fetch(rec.entry).op) != PfOp::kRuleBegin) {
      ErrCur("rule-malformed", "record does not open with RULE_BEGIN");
      return;
    }
    for (uint32_t pc = rec.entry; pc < rec.end; pc += kPfInsnWords) {
      CheckInsn(rec_idx, prog.Fetch(pc), pc - rec.entry);
    }
  }

  // --- chain dispatch-table proof -------------------------------------------

  void CheckChainTables() {
    const uint64_t num_entries = prog.entries.size();
    const uint64_t num_rules = prog.rules.size();
    // One linear pass decides whether any entry escapes the record table.
    // Each entry is referenced by several slices (op bucket, plain bucket,
    // entrypoint index), so the clean path — every commit — would otherwise
    // bounds-check it several times over; the per-slice loops below only run
    // to attribute a locus once this scan has found a culprit.
    bool entries_ok = true;
    for (uint32_t e : prog.entries) {
      entries_ok &= e < num_rules;
    }
    for (const ProgramChain& pc : prog.chains) {
      RuleLocus l;
      l.chain = pc.name;
      for (uint32_t r : pc.rules) {
        if (r >= num_rules) {
          Err(l, "chain-table-oob", "chain lists rule record " + std::to_string(r) +
                                        " outside record table of " +
                                        std::to_string(prog.rules.size()));
        }
      }
      auto slice = [&](uint32_t off, uint32_t len, const char* what) {
        if (static_cast<uint64_t>(off) + len > num_entries) {
          Err(l, "chain-table-oob", std::string(what) + " slice [" + std::to_string(off) +
                                        ", " + std::to_string(off + len) +
                                        ") outside entry table of " +
                                        std::to_string(num_entries));
          return;
        }
        if (entries_ok) {
          return;
        }
        for (uint32_t i = 0; i < len; ++i) {
          const uint32_t e = prog.entries[off + i];
          if (e >= num_rules) {
            Err(l, "chain-table-oob",
                std::string(what) + " entry " + std::to_string(e) +
                    " outside record table of " + std::to_string(prog.rules.size()));
          }
        }
      };
      for (size_t op = 0; op < sim::kOpCount; ++op) {
        slice(pc.ops[op].all_off, pc.ops[op].all_len, "op bucket");
        slice(pc.ops[op].plain_off, pc.ops[op].plain_len, "op bucket (plain)");
      }
      for (const auto& [key, span] : pc.ept) {
        slice(span.first, span.second, "entrypoint index");
      }
    }
  }

  // --- depth proof ----------------------------------------------------------
  //
  // BFS over resolved JUMP edges from the builtin roots gives each chain its
  // minimum entry depth; the evaluator's guard never runs a chain entered at
  // depth >= kMaxChainDepth, so a chain whose *minimum* depth breaks the
  // bound is provably dead (every path to it is cut off). The runtime is
  // safe either way — this is a reachability property, hence a warning
  // unless strict_depth.
  void CheckDepth() {
    const size_t n = prog.chains.size();
    std::vector<int> min_depth(n, -1);
    std::deque<size_t> queue;
    for (int32_t root :
         {prog.root_input, prog.root_output, prog.root_create, prog.root_syscallbegin}) {
      if (root >= 0 && static_cast<size_t>(root) < n && min_depth[static_cast<size_t>(root)] < 0) {
        min_depth[static_cast<size_t>(root)] = 0;
        queue.push_back(static_cast<size_t>(root));
      }
    }
    while (!queue.empty()) {
      const size_t id = queue.front();
      queue.pop_front();
      const int next_depth = min_depth[id] + 1;
      if (next_depth >= kMaxChainDepth) {
        continue;  // the runtime guard cuts deeper entries off
      }
      for (uint32_t r : prog.chains[id].rules) {
        if (r >= prog.rules.size()) {
          continue;  // already reported by CheckChainTables
        }
        const int32_t target = prog.rules[r].jump_chain;
        if (target >= 0 && static_cast<size_t>(target) < n &&
            min_depth[static_cast<size_t>(target)] < 0) {
          min_depth[static_cast<size_t>(target)] = next_depth;
          queue.push_back(static_cast<size_t>(target));
        }
      }
    }
    // Chains that are jumped to but whose every entry path exceeds the bound.
    // Chains nothing references at all are a style question (the analyzer's
    // jump-graph pass covers them), not a depth finding.
    std::vector<bool> referenced(n, false);
    for (const RuleRecord& rec : prog.rules) {
      if (rec.jump_chain >= 0 && static_cast<size_t>(rec.jump_chain) < n) {
        referenced[static_cast<size_t>(rec.jump_chain)] = true;
      }
    }
    for (size_t id = 0; id < n; ++id) {
      if (min_depth[id] < 0 && referenced[id]) {
        RuleLocus l;
        l.chain = prog.chains[id].name;
        report->Add(opts.strict_depth ? Severity::kError : Severity::kWarning,
                    "depth-exceeded", l,
                    "chain is only reachable beyond the JUMP depth bound of " +
                        std::to_string(kMaxChainDepth) +
                        "; the evaluator will never run it");
      }
    }
  }
};

}  // namespace

VerifyResult VerifyProgram(const PfProgram& prog, const VerifyOptions& opts) {
  VerifyResult result;
  Verifier v{prog, opts, &result.report};
  if (prog.arena.size() % kPfInsnWords != 0) {
    RuleLocus l;
    l.chain = "(arena)";
    v.Err(l, "arena-truncated",
          "arena of " + std::to_string(prog.arena.size()) +
              " words is not a whole number of instructions");
  }
  for (uint32_t i = 0; i < prog.rules.size(); ++i) {
    v.CheckRecord(i);
  }
  v.CheckChainTables();
  v.CheckDepth();
  result.report.Sort();
  return result;
}

}  // namespace pf::core
