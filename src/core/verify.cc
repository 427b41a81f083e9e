#include "src/core/verify.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <deque>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/engine.h"

namespace pf::core {

namespace {

using analysis::RuleLocus;
using analysis::Severity;

// --- instruction shapes --------------------------------------------------------

// What an instruction field refers to, and so what the verifier proves of it.
enum class Ref : uint8_t {
  kNone,          // an immediate: nothing to dereference
  kRuleBegin,     // a: the record the RULE_BEGIN opens
  kOp,            // a: a sim::Op
  kCtxMask,       // a: a mask of Ctx bits
  kString,        // a string-pool index
  kOperand,       // an operand-pool index
  kLabelSet,      // a labelset-pool index, whose sid slice lies in the sid pool
  kChain,         // a: a chain id, or kPfNoIndex (a JUMP to an undefined chain)
  kStateKey,      // a: a STATE slot key, a string-pool index
  kStateValue,    // b: a STATE slot value, an operand-pool index
  kNativeMatch,   // a: a live native-match module
  kNativeTarget,  // a: a live native-target module
  kSyscallNr,     // aux: 0, the syscall number
  kSyscallArg,    // aux: 1 + an index into AccessRequest::args
};

struct Field {
  Ref ref = Ref::kNone;
  const char* what = "";  // the field's name in findings
};

// The fields of one opcode that the verifier proves; `aux` uses only the
// syscall refs. Every proof of an instruction reads this table.
struct InsnShape {
  Field a, b, c, aux;
};

constexpr std::array<InsnShape, kPfOpCount> MakeShapes() {
  std::array<InsnShape, kPfOpCount> s{};
  auto at = [&s](PfOp op) -> InsnShape& { return s[static_cast<size_t>(op)]; };
  at(PfOp::kRuleBegin).a = {Ref::kRuleBegin, "RULE_BEGIN"};
  at(PfOp::kCheckOp).a = {Ref::kOp, "CHECK_OP operation"};
  at(PfOp::kMatchSubject).a = {Ref::kLabelSet, "MATCH_SUBJECT"};
  at(PfOp::kEnsureCtx).a = {Ref::kCtxMask, "ENSURE_CTX mask"};
  // kCheckProgram, kCheckEptOff, kCheckIno and kMatchSignal compare
  // immediates; the terminals kAccept, kDrop, kReturn and kContinue carry
  // nothing.
  at(PfOp::kMatchObject).a = {Ref::kLabelSet, "MATCH_OBJECT"};
  at(PfOp::kMatchState).a = {Ref::kString, "MATCH_STATE"};
  at(PfOp::kMatchInterp).a = {Ref::kString, "MATCH_INTERP"};
  at(PfOp::kMatchNative).a = {Ref::kNativeMatch, "MATCH_NATIVE"};
  at(PfOp::kJump).a = {Ref::kChain, "JUMP target"};
  at(PfOp::kJump).b = {Ref::kString, "JUMP name"};
  // The STATE dictionary is the only store the instruction set has; both
  // the key and value references must be valid STATE slots.
  at(PfOp::kStateSet).a = {Ref::kStateKey, "STATE_SET key"};
  at(PfOp::kStateSet).b = {Ref::kStateValue, "STATE_SET value"};
  at(PfOp::kStateUnset).a = {Ref::kStateKey, "STATE_UNSET key"};
  at(PfOp::kLog).a = {Ref::kString, "LOG prefix"};
  at(PfOp::kTargetNative).a = {Ref::kNativeTarget, "TARGET_NATIVE"};
  for (PfOp op : {PfOp::kMatchStateEq, PfOp::kMatchStateNe}) {
    at(op).a = {Ref::kString, "MATCH_STATE"};
    at(op).b = {Ref::kOperand, "MATCH_STATE --cmp"};
  }
  // The Nr forms read the syscall number and carry aux == 0; the Arg forms
  // index the request's fixed argument array with aux - 1.
  for (PfOp op : {PfOp::kMatchSyscallNrEq, PfOp::kMatchSyscallNrNe}) {
    at(op).aux = {Ref::kSyscallNr, "MATCH_SYSCALL_ARG --arg"};
  }
  for (PfOp op : {PfOp::kMatchSyscallArgEq, PfOp::kMatchSyscallArgNe}) {
    at(op).aux = {Ref::kSyscallArg, "MATCH_SYSCALL_ARG --arg"};
  }
  for (PfOp op : {PfOp::kMatchCompareEq, PfOp::kMatchCompareNe}) {
    at(op).b = {Ref::kOperand, "MATCH_COMPARE --v1"};
    at(op).c = {Ref::kOperand, "MATCH_COMPARE --v2"};
  }
  // kMatchPhase's b is the phase id immediate; only the rendered phase name
  // dereferences a pool.
  at(PfOp::kMatchPhase).a = {Ref::kString, "MATCH_PHASE"};
  return s;
}

constexpr std::array<InsnShape, kPfOpCount> kShapes = MakeShapes();

constexpr uint16_t kArgSlots = std::tuple_size_v<decltype(sim::AccessRequest::args)>;
constexpr uint64_t kCtxMaskEnd = uint64_t{1} << static_cast<uint32_t>(Ctx::kCount);

// Where a field of `size` bytes at byte `offset` of an instruction sits in
// its first arena word: the linear pass reads opcode and field a from that
// word in place instead of copying each instruction out.
constexpr unsigned WordShift(size_t offset, size_t size) {
  return std::endian::native == std::endian::little ? 8 * offset : 8 * (8 - offset - size);
}
constexpr unsigned kOpShift = WordShift(offsetof(PfInsn, op), sizeof(PfInsn::op));
constexpr unsigned kAShift = WordShift(offsetof(PfInsn, a), sizeof(PfInsn::a));

// The verifier's mutable walk state: the program under proof, the report
// being filled, and the record currently being walked. Loci are constructed
// only when a finding is emitted — the clean path (every commit) must not
// pay for diagnostic strings, the verifier runs inside CompileRuleset.
struct Verifier {
  const PfProgram& prog;
  const VerifyOptions& opts;
  analysis::AnalysisReport* report;
  const RuleRecord* cur = nullptr;  // record under walk, else null
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
  const uint64_t nrules = prog.rules.size();

  RuleLocus LocusOf(const RuleRecord& rec) const {
    RuleLocus locus;
    locus.chain = rec.chain_id >= 0 && static_cast<size_t>(rec.chain_id) < prog.chains.size()
                      ? prog.chains[static_cast<size_t>(rec.chain_id)].name
                      : std::string("(arena)");
    locus.pos = rec.chain_index + 1;
    return locus;
  }

  // Every commit runs the clean path, so a finding's message is built by
  // `msg` inside a cold, out-of-line call: the checks stay a few compares
  // with no string code between them.
  template <typename Msg>
  [[gnu::cold, gnu::noinline]] void Err(const RuleLocus& locus, const char* code, Msg msg) {
    report->Add(Severity::kError, code, locus, msg());
  }

  // Error at the record currently being walked (the common corruption case).
  // The linear pass walks no record and reports nothing.
  template <typename Msg>
  [[gnu::cold, gnu::noinline]] void ErrCur(const char* code, Msg msg) {
    if (cur != nullptr) {
      report->Add(Severity::kError, code, LocusOf(*cur), msg());
    }
  }

  // A chain-level finding: the locus names the chain, with no position.
  template <typename Msg>
  [[gnu::cold, gnu::noinline]] void ErrChain(const ProgramChain& chain, const char* code,
                                             Msg msg) {
    RuleLocus l;
    l.chain = chain.name;
    report->Add(Severity::kError, code, l, msg());
  }

  // --- per-record structural proof ------------------------------------------

  // Proves record `rec_idx` has a rule and instruction-aligned bounds inside
  // the arena, and opens with a RULE_BEGIN naming itself; returns whether
  // its instructions can be walked.
  bool CheckRecord(uint32_t rec_idx) {
    const RuleRecord& rec = prog.rules[rec_idx];
    cur = &rec;
    // The evaluator reads the rule's counters and the disassembler its
    // source through this pointer on every record an entry list names.
    if (rec.rule == nullptr) {
      ErrCur("rule-malformed", [] { return std::string("record names no rule"); });
      return false;
    }
    const uint64_t arena_words = prog.arena.size();
    if (rec.entry % kPfInsnWords != 0 || (rec.end - rec.entry) % kPfInsnWords != 0) {
      ErrCur("rule-malformed", [=] {
        return "record [" + std::to_string(rec.entry) + ", " + std::to_string(rec.end) +
               ") is not instruction-aligned";
      });
      return false;
    }
    if (rec.end <= rec.entry || rec.end > arena_words) {
      ErrCur("arena-truncated", [=] {
        return "record [" + std::to_string(rec.entry) + ", " + std::to_string(rec.end) +
               ") outside arena of " + std::to_string(arena_words) + " words";
      });
      return false;
    }
    if (rec.body < rec.entry + kPfInsnWords || rec.body > rec.end ||
        rec.body % kPfInsnWords != 0) {
      ErrCur("rule-malformed", [=] {
        return "body entry " + std::to_string(rec.body) + " outside the record";
      });
      return false;
    }
    const uint64_t head = prog.arena[rec.entry];
    if (static_cast<uint8_t>(head >> kOpShift) != static_cast<uint8_t>(PfOp::kRuleBegin) ||
        (head >> kAShift & 0xffffffffu) != rec_idx) {
      ErrCur("rule-malformed", [=] {
        return "record does not open with a RULE_BEGIN naming record " +
               std::to_string(rec_idx);
      });
      return false;
    }
    return true;
  }

  // --- per-instruction proof ------------------------------------------------

  // The bound below which a field referring to `ref` must stay, for the
  // refs one pool size decides; 0 for the others.
  uint64_t PoolSize(Ref ref) const {
    switch (ref) {
      case Ref::kOp: return sim::kOpCount;
      case Ref::kCtxMask: return kCtxMaskEnd;
      case Ref::kString:
      case Ref::kStateKey: return nstrings;
      case Ref::kOperand:
      case Ref::kStateValue: return noperands;
      case Ref::kLabelSet: return nlabelsets;
      case Ref::kNativeMatch: return nmatches;
      case Ref::kNativeTarget: return ntargets;
      default: return 0;
    }
  }

  // Proves one field of the instruction at `pc`, naming what fails in the
  // record under walk (none in the linear pass).
  bool CheckField(const Field& f, uint64_t v, uint32_t pc) {
    switch (f.ref) {
      case Ref::kNone:
        return true;
      case Ref::kRuleBegin:
        // CheckRecord proved the record's own; any other opens no record.
        // (The linear pass proves RULE_BEGINs by count, never here.)
        if (pc != cur->entry) {
          ErrCur("rule-malformed", [=, this] {
            return "+" + std::to_string(pc - cur->entry) + ": RULE_BEGIN of record " +
                   std::to_string(v) + " past the record's entry";
          });
          return false;
        }
        return true;
      case Ref::kOp:
        return InPool(f, v, "pool-oob", " ", " outside the op table of ");
      case Ref::kCtxMask:
        if (v >= PoolSize(f.ref)) {
          ErrCur("ctx-mask-invalid", [=] {
            return std::string(f.what) + " " + std::to_string(v) +
                   " sets bits beyond the context-module table";
          });
          return false;
        }
        return true;
      case Ref::kString:
        return InPool(f, v, "pool-oob", " string ref ", " outside pool of ");
      case Ref::kOperand:
        return InPool(f, v, "pool-oob", " operand ref ", " outside pool of ");
      case Ref::kStateKey:
        return InPool(f, v, "state-slot-oob", " ref ", " outside string pool of ");
      case Ref::kStateValue:
        return InPool(f, v, "state-slot-oob", " ref ", " outside operand pool of ");
      case Ref::kLabelSet: {
        if (!InPool(f, v, "pool-oob", " labelset ref ", " outside pool of ")) {
          return false;
        }
        const LabelSetRef& ref = prog.labelsets[v];
        if (static_cast<uint64_t>(ref.off) + ref.len > nsids) {
          ErrCur("pool-oob", [=, this] {
            return std::string(f.what) + " labelset " + std::to_string(v) + " sid slice [" +
                   std::to_string(ref.off) + ", " + std::to_string(ref.off + ref.len) +
                   ") outside sid pool of " + std::to_string(prog.sid_pool.size());
          });
          return false;
        }
        return true;
      }
      case Ref::kChain:
        if (v != kPfNoIndex && v >= nchains) {
          ErrCur("jump-target-oob", [=, this] {
            return std::string(f.what) + " chain " + std::to_string(v) +
                   " outside chain table of " + std::to_string(prog.chains.size());
          });
          return false;
        }
        return true;
      case Ref::kNativeMatch:
        if (v >= PoolSize(f.ref) || prog.native_matches[v] == nullptr) {
          ErrCur("native-oob", [=, this] {
            return std::string(f.what) + " index " + std::to_string(v) +
                   " outside native-match pool of " + std::to_string(prog.native_matches.size());
          });
          return false;
        }
        return true;
      case Ref::kNativeTarget:
        if (v >= PoolSize(f.ref) || prog.native_targets[v] == nullptr) {
          ErrCur("native-oob", [=, this] {
            return std::string(f.what) + " index " + std::to_string(v) +
                   " outside native-target pool of " + std::to_string(prog.native_targets.size());
          });
          return false;
        }
        return true;
      case Ref::kSyscallNr:
      case Ref::kSyscallArg:
        if (f.ref == Ref::kSyscallNr ? v != 0 : (v == 0 || v > kArgSlots)) {
          ErrCur("syscall-arg-oob", [=] {
            return std::string(f.what) + " " + std::to_string(v) +
                   " outside the request's argument slots";
          });
          return false;
        }
        return true;
    }
    return true;
  }

  bool InPool(const Field& f, uint64_t v, const char* code, const char* kind,
              const char* outside) {
    const uint64_t n = PoolSize(f.ref);
    if (v >= n) {
      ErrCur(code, [=] {
        return std::string(f.what) + kind + std::to_string(v) + outside + std::to_string(n);
      });
      return false;
    }
    return true;
  }

  // Proves every field kShapes names for the instruction at `pc`.
  bool CheckFields(const PfInsn& insn, uint32_t pc) {
    const InsnShape& shape = kShapes[insn.op];
    return CheckField(shape.a, insn.a, pc) & CheckField(shape.b, insn.b, pc) &
           CheckField(shape.c, insn.c, pc) & CheckField(shape.aux, insn.aux, pc);
  }

  // Proves every record's shape, listing the records whose instructions
  // cannot be walked; returns whether the records tile the arena, each
  // starting where the one before ends, from word 0 to the arena's end.
  bool CheckRecords(std::vector<uint32_t>& unwalkable) {
    const RuleRecord* recs = prog.rules.data();
    const uint32_t n = static_cast<uint32_t>(prog.rules.size());
    bool tiled = true;
    uint32_t next = 0;
    for (uint32_t i = 0; i < n; ++i) {
      if (!CheckRecord(i)) [[unlikely]] {
        unwalkable.push_back(static_cast<uint32_t>(i));  // a copy: i stays in a register
      }
      tiled &= recs[i].entry == next;
      next = recs[i].end;
    }
    return tiled && next == prog.arena.size();
  }

  // Walks one record's instructions, attributing every finding to it.
  void CheckRecordInsns(uint32_t rec_idx) {
    const RuleRecord& rec = prog.rules[rec_idx];
    cur = &rec;
    for (uint32_t pc = rec.entry; pc < rec.end; pc += kPfInsnWords) {
      const PfInsn insn = prog.Fetch(pc);
      if (insn.op == 0 || insn.op >= kPfOpCount) {
        ErrCur("bad-opcode", [=] {
          return "+" + std::to_string(pc - rec.entry) + ": opcode " + std::to_string(insn.op) +
                 " outside [1, " + std::to_string(kPfOpCount) + ")";
        });
        continue;
      }
      CheckFields(insn, pc);
    }
  }

  // --- the linear pass -------------------------------------------------------
  //
  // Lowering lays the records end to end over the whole arena. Then every
  // instruction belongs to exactly one record, and one pass over the arena
  // proves what the per-record walks would, without a loop exit per record.
  // Most opcodes prove at most field a, against a pool size: for those the
  // pass is one compare of a against a per-opcode limit, read from the
  // instruction's first word in place. The few opcodes with more to prove
  // (a JUMP target, STATE stores, COMPAREs, syscall arguments) take
  // CheckFields. The pass reports nothing; when it fails, the per-record
  // walk attributes the findings.

  // Each opcode byte's row in the linear pass: field a's limit in the low
  // bits, 0 for an invalid opcode and 2^32 (every value) where a proves
  // nothing or CheckFields proves the instruction; kExact for the opcodes
  // CheckFields proves; kBegin for RULE_BEGIN. A pool with a bad entry (a
  // labelset slice outside the sid pool, a null native module) gets limit
  // 0, so the walk names its users.
  static constexpr uint64_t kLimitBits = (uint64_t{1} << 33) - 1;
  static constexpr uint64_t kExact = uint64_t{1} << 62;
  static constexpr uint64_t kBegin = uint64_t{1} << 63;  // the top bit: row >> 63

  std::array<uint64_t, 256> LinearRows() const {
    bool labelsets_ok = true;
    for (const LabelSetRef& ref : prog.labelsets) {
      labelsets_ok &= static_cast<uint64_t>(ref.off) + ref.len <= nsids;
    }
    bool matches_ok = true;
    for (const NativeMatchModule* m : prog.native_matches) {
      matches_ok &= m != nullptr;
    }
    bool targets_ok = true;
    for (const NativeTargetModule* t : prog.native_targets) {
      targets_ok &= t != nullptr;
    }
    constexpr uint64_t kAnyA = uint64_t{1} << 32;
    std::array<uint64_t, 256> rows{};  // invalid opcodes keep limit 0
    for (uint32_t op = 1; op < kPfOpCount; ++op) {
      const InsnShape& shape = kShapes[op];
      const bool exact = shape.b.ref != Ref::kNone || shape.c.ref != Ref::kNone ||
                         shape.aux.ref != Ref::kNone || shape.a.ref == Ref::kChain;
      const Ref ref = shape.a.ref;
      uint64_t& row = rows[op];
      if (exact) {
        row = kAnyA | kExact;
      } else if (ref == Ref::kNone) {
        row = kAnyA;
      } else if (ref == Ref::kRuleBegin) {
        row = kAnyA | kBegin;  // proven by count
      } else if ((ref == Ref::kLabelSet && !labelsets_ok) ||
                 (ref == Ref::kNativeMatch && !matches_ok) ||
                 (ref == Ref::kNativeTarget && !targets_ok)) {
        row = 0;
      } else {
        row = PoolSize(ref);
      }
    }
    return rows;
  }

  // Returns whether every instruction of the arena holds. The RULE_BEGIN
  // count closes the record proof: CheckRecord found one at each record's
  // entry, so any other would be one too many.
  bool CheckArena() {
    cur = nullptr;
    const std::array<uint64_t, 256> rows = LinearRows();
    // a < limit exactly when a - limit wraps, setting bit 63 (both are
    // below 2^33): `below` keeps bit 63 only while every field a held.
    uint64_t below = ~uint64_t{0};
    bool exact_ok = true;
    uint64_t begins = 0;
    // Hoisted: CheckFields may report, and the compiler cannot then prove
    // the arena unmoved.
    const uint64_t* arena = prog.arena.data();
    const uint32_t words = static_cast<uint32_t>(prog.arena.size());
    for (uint32_t pc = 0; pc < words; pc += kPfInsnWords) {
      const uint64_t head = arena[pc];
      const uint64_t row = rows[static_cast<uint8_t>(head >> kOpShift)];
      below &= (head >> kAShift & 0xffffffffu) - (row & kLimitBits);
      begins += row >> 63;  // kBegin
      if (row & kExact) [[unlikely]] {
        exact_ok &= CheckFields(prog.Fetch(pc), pc);
      }
    }
    return (below >> 63) != 0 && exact_ok && begins == nrules;
  }

  // --- chain dispatch-table proof -------------------------------------------

  void CheckChainTables() {
    const uint64_t num_entries = prog.entries.size();
    // One linear pass decides whether any entry escapes the record table.
    // Each entry is referenced by several slices (op bucket, plain bucket,
    // entrypoint index), so the clean path — every commit — would otherwise
    // bounds-check it several times over; the per-slice loops below only run
    // to attribute a locus once this scan has found a culprit.
    bool entries_ok = true;
    for (uint32_t e : prog.entries) {
      entries_ok &= e < nrules;
    }
    for (const ProgramChain& pc : prog.chains) {
      // The clean case is decided by two reductions, the furthest record
      // the chain lists and the furthest end of an index slice; the
      // per-item loops run only to name a culprit.
      uint64_t rules_end = 0;
      for (uint32_t r : pc.rules) {
        rules_end = std::max(rules_end, uint64_t{r} + 1);
      }
      if (rules_end > nrules) {
        for (uint32_t r : pc.rules) {
          if (r >= nrules) {
            ErrChain(pc, "chain-table-oob", [=, this] {
              return "chain lists rule record " + std::to_string(r) +
                     " outside record table of " + std::to_string(prog.rules.size());
            });
          }
        }
      }
      auto slice = [&](uint32_t off, uint32_t len, const char* what) {
        if (static_cast<uint64_t>(off) + len > num_entries) {
          ErrChain(pc, "chain-table-oob", [=] {
            return std::string(what) + " slice [" + std::to_string(off) + ", " +
                   std::to_string(off + len) + ") outside entry table of " +
                   std::to_string(num_entries);
          });
          return;
        }
        if (entries_ok) {
          return;
        }
        for (uint32_t i = 0; i < len; ++i) {
          const uint32_t e = prog.entries[off + i];
          if (e >= nrules) {
            ErrChain(pc, "chain-table-oob", [=, this] {
              return std::string(what) + " entry " + std::to_string(e) +
                     " outside record table of " + std::to_string(prog.rules.size());
            });
          }
        }
      };
      for (size_t op = 0; op < sim::kOpCount; ++op) {
        slice(pc.ops[op].all_off, pc.ops[op].all_len, "op bucket");
        slice(pc.ops[op].plain_off, pc.ops[op].plain_len, "op bucket (plain)");
      }
      uint64_t items_end = 0;
      for (const EptItem& item : pc.ept.items) {
        items_end = std::max(items_end, uint64_t{item.off} + item.len);
      }
      if (items_end > num_entries || !entries_ok) {
        for (const EptItem& item : pc.ept.items) {
          slice(item.off, item.len, "entrypoint index");
        }
      }
      CheckEptTable(pc);
    }
  }

  // The entrypoint index's hash table (program.h EptTable): every slot
  // names a real key or is empty, the capacity is a power of two (the slot
  // mask), some slot is empty (a lookup of an absent key ends there), and a
  // lookup of every key finds that key (a key off its probe path would be a
  // silent allow). The last proof is the evaluator's own lookup, which the
  // first three make terminate; a key in its home slot is found at the
  // lookup's first probe, so only the others run it.
  void CheckEptTable(const ProgramChain& pc) {
    const EptTable& t = pc.ept;
    const uint64_t nitems = t.items.size();
    const uint64_t cap = t.slots.size();
    if (cap == 0) {
      if (nitems != 0) {
        ErrChain(pc, "ept-index-malformed", [=] {
          return "entrypoint index holds " + std::to_string(nitems) + " keys in no slots";
        });
      }
      return;
    }
    if (!std::has_single_bit(cap)) {
      ErrChain(pc, "ept-index-malformed", [=] {
        return "entrypoint index capacity " + std::to_string(cap) + " is not a power of two";
      });
      return;
    }
    // Each slot plus one, in 32 bits: an empty slot (kPfNoIndex) is 0 and
    // key i is i + 1, so a minimum and a maximum decide both proofs.
    uint32_t lowest = ~uint32_t{0};
    uint32_t highest = 0;
    for (const uint32_t item : t.slots) {
      lowest = std::min(lowest, item + 1);
      highest = std::max(highest, item + 1);
    }
    if (highest > nitems) {
      ErrChain(pc, "chain-table-oob", [&t, nitems] {
        size_t i = 0;
        while (t.slots[i] == kPfNoIndex || t.slots[i] < nitems) {
          ++i;
        }
        return "entrypoint index slot " + std::to_string(i) + " names key " +
               std::to_string(t.slots[i]) + " outside " + std::to_string(nitems) + " keys";
      });
      return;
    }
    if (lowest != 0) {
      ErrChain(pc, "ept-index-malformed", [=] {
        return "entrypoint index has no empty slot among " + std::to_string(cap);
      });
      return;
    }
    for (uint32_t item = 0; item < nitems; ++item) {
      const EptKey& key = t.items[item].key;
      if (t.slots[t.Home(key)] != item && t.Find(key) != &t.items[item]) {
        ErrChain(pc, "ept-index-malformed", [=] {
          return "entrypoint index key " + std::to_string(item) +
                 " is not reachable from its home slot";
        });
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
    // Only a chain some JUMP names can be a finding: chains nothing
    // references at all are a style question (the analyzer's jump-graph
    // pass covers them), not a depth finding. A program without JUMPs has
    // nothing to prove.
    std::vector<bool> referenced(n, false);
    bool any_referenced = false;
    for (const RuleRecord& rec : prog.rules) {
      if (rec.jump_chain >= 0 && static_cast<size_t>(rec.jump_chain) < n) {
        referenced[static_cast<size_t>(rec.jump_chain)] = true;
        any_referenced = true;
      }
    }
    if (!any_referenced) {
      return;
    }
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
    v.Err(l, "arena-truncated", [&] {
      return "arena of " + std::to_string(prog.arena.size()) +
             " words is not a whole number of instructions";
    });
  }
  // Record shapes first. Where every record is sound and the records tile
  // the arena, the linear pass proves every instruction; otherwise, or when
  // that pass fails, the per-record walks name the findings.
  std::vector<uint32_t> unwalkable;
  const bool tiled = v.CheckRecords(unwalkable);
  if (!unwalkable.empty() || !tiled || !v.CheckArena()) {
    size_t skip = 0;
    for (uint32_t i = 0; i < prog.rules.size(); ++i) {
      if (skip < unwalkable.size() && unwalkable[skip] == i) {
        ++skip;
      } else {
        v.CheckRecordInsns(i);
      }
    }
  }
  v.CheckChainTables();
  v.CheckDepth();
  result.report.Sort();
  return result;
}

}  // namespace pf::core
