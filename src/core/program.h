// Compiled PF programs: the flat, arena-packed form of a committed rule
// base (DESIGN.md §"Compiled PF programs").
//
// iptables' kernel hot path walks a contiguous ipt_entry blob, not a pointer
// graph. This module gives the Process Firewall the same shape: at commit
// time every filter-table chain is *lowered* into a single relocatable arena
// of fixed-size instruction records — default matches and builtin -m modules
// become inline-operand match ops, verdicts become terminal ops, JUMP edges
// become chain ids resolved at lowering, and extension modules become
// escape ops that call back into the module object. Strings and
// LabelSets are interned into side pools so an instruction is 24 bytes of
// plain integers. The engine's hot path then runs a tight switch-dispatch
// loop over the arena (no virtual calls, no shared_ptr traffic); the
// analyzer and `pftables -L --compiled` consume the same artifact, so what
// is analyzed, printed, and executed can never disagree.
//
// Alignment / aliasing: the arena is a vector of uint64_t words and every
// instruction is an alignas(8) trivially-copyable 3-word record accessed
// through memcpy views (PfProgram::Fetch / ProgramBuilder::Emit) — no
// reinterpret_cast, no unaligned loads, UBSan-clean by construction.
#ifndef SRC_CORE_PROGRAM_H_
#define SRC_CORE_PROGRAM_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "src/analysis/diagnostics.h"
#include "src/core/modules.h"
#include "src/core/ruleset.h"

namespace pf::core {

// Instruction opcodes. Guard ops fall through on success and end the rule
// (no match) on failure; terminal ops produce the rule's verdict. The
// k*Native ops are the escape hatch for extension modules registered via
// Pftables::RegisterMatch/RegisterTarget: they dispatch virtually into the
// module object held in the program's native pools.
enum class PfOp : uint8_t {
  kRuleBegin = 1,   // a = rule-record index (bumps eval counters)
  kCheckOp,         // a = sim::Op the rule's -o pins
  kMatchSubject,    // a = labelset pool index (-s)
  kEnsureCtx,       // a = CtxMask to collect (the rule's install-time needs)
  // The entrypoint/object checks are self-guarding: each ensures its context
  // bit (a short-circuit after kEnsureCtx) and fails the rule when the
  // request lacks a valid frame / an object, before comparing.
  kCheckProgram,    // b = image dev, c = image ino (-p)
  kCheckEptOff,     // b = binary-relative PC (-i)
  kCheckIno,        // b = inode number (--ino)
  kMatchObject,     // a = labelset pool index (-d)
  kMatchState,      // a = key string idx (presence; --cmp lowers to Eq/Ne)
  kMatchSignal,     // SIGNAL_MATCH (no operands)
  kMatchInterp,     // a = suffix string idx, aux = lang + 1 (0 = any)
  kMatchNative,     // a = native-match pool index (virtual escape)
  kAccept,          // terminal verdicts --------------------------------
  kDrop,
  kReturn,
  kContinue,        // side-effect-free CONTINUE (keep traversing)
  kJump,            // a = chain id (kPfNoIndex: undefined), b = name idx
  kStateSet,        // a = key string idx, b = value operand idx
  kStateUnset,      // a = key string idx
  kLog,             // a = prefix string idx
  kTargetNative,    // a = native-target pool index (virtual escape)
  // Compile-time-specialized forms. Lowering resolves the comparison sense
  // (--nequal) and the arg-0-means-syscall-nr convention at compile time, so
  // the hot loop dispatches straight to a handler with no per-insn flag
  // tests. The Ne forms still carry kPfNegate, which the disassembler reads
  // to render --nequal.
  kMatchStateEq,      // STATE --cmp: a = key string idx, b = cmp operand idx
  kMatchStateNe,      // STATE --cmp --nequal
  kMatchSyscallNrEq,  // SYSCALL_ARGS --arg 0 (the syscall number), b = value
  kMatchSyscallNrNe,
  kMatchSyscallArgEq,  // SYSCALL_ARGS --arg aux >= 1 (argument aux - 1)
  kMatchSyscallArgNe,
  kMatchCompareEq,  // COMPARE: b = operand idx v1, c = operand idx v2
  kMatchCompareNe,  // COMPARE --nequal
  // Temporal-phase guard (PHASE match, DESIGN.md §5i): compares the task's
  // current phase — STATE dictionary key "@phase", or the distinguished
  // "init" phase while the key is absent — against a phase-name id.
  kMatchPhase,  // a = phase-name string idx, b = phase id (PhaseId(name))
};

// One past the highest opcode: the size of the evaluator's dispatch table
// and the bound the load-time verifier proves every fetched op against.
inline constexpr uint32_t kPfOpCount = static_cast<uint32_t>(PfOp::kMatchPhase) + 1;

// Instruction flags.
inline constexpr uint8_t kPfNegate = 1u << 0;  // --nequal / negated compare

// Sentinel for "no pool entry / unresolved chain".
inline constexpr uint32_t kPfNoIndex = 0xffffffffu;

// One fixed-size instruction: 24 bytes, three arena words. A trivial type
// (construct with `PfInsn{}` for zeroed fields) so it can be memcpy'd in
// and out of the word arena without tripping -Wclass-memaccess.
struct alignas(8) PfInsn {
  uint8_t op;
  uint8_t flags;
  uint16_t aux;
  uint32_t a;
  uint64_t b;
  uint64_t c;
};
static_assert(sizeof(PfInsn) == 24, "PfInsn must stay three arena words");
static_assert(alignof(PfInsn) == 8, "PfInsn records are word-aligned");
static_assert(std::is_trivial_v<PfInsn> && std::is_trivially_copyable_v<PfInsn>,
              "memcpy views require it");

inline constexpr uint32_t kPfInsnWords =
    static_cast<uint32_t>(sizeof(PfInsn) / sizeof(uint64_t));

// An interned LabelSet: a slice of the shared sid pool plus the three
// modifier bits. Match semantics mirror LabelSet exactly (rule.cc).
struct alignas(8) LabelSetRef {
  uint32_t off = 0;  // into PfProgram::sid_pool
  uint32_t len = 0;
  uint8_t syshigh = 0;
  uint8_t negate = 0;
  uint8_t wildcard = 0;
};

// Per-rule metadata: where the rule's instructions live in the arena plus
// the side-table links the analyzer and the stats counters need. `rule`
// points into the Rule objects shared with the owning CompiledRuleset, so a
// record is valid exactly as long as its program.
struct RuleRecord {
  uint32_t entry = 0;  // arena word offset of kRuleBegin
  uint32_t end = 0;    // one past the rule's last word
  // Evaluator fast entry: past kRuleBegin (whose counter bumps the evaluator
  // prologue performs) and past any kCheckOp guard, which is true by
  // construction for rules reached through a per-op bucket. Entrypoint-index
  // lists are NOT op-filtered and must enter at entry + kPfInsnWords instead.
  uint32_t body = 0;
  uint32_t jump_name = kPfNoIndex;  // string idx of the declared JUMP target
  int32_t jump_chain = -1;          // resolved chain id (-1: none/undefined)
  // Owning chain and position within it, filled during lowering. This is the
  // (chain, rule) attribution the tracepoints put in TraceRecords and
  // `pftables -L -v` prints — the evaluator itself never reads them.
  int32_t chain_id = -1;
  uint32_t chain_index = 0;
  std::optional<TargetKind> static_kind;  // terminal kind, when static
  const Rule* rule = nullptr;
};

// Per-(chain, op) dispatch bucket, the program-form twin of OpBucket
// (engine.h) with the rule pointers re-pointed at entry-table slices.
struct ProgramBucket {
  uint32_t all_off = 0;    // slice of PfProgram::entries: every rule that
  uint32_t all_len = 0;    //   can match the op, in chain order
  uint32_t plain_off = 0;  // the non-entrypoint-indexed subset
  uint32_t plain_len = 0;
  bool has_indexed = false;
};

// One key of a chain's entrypoint index and its slice of PfProgram::entries.
struct EptItem {
  EptKey key;
  uint32_t off = 0;
  uint32_t len = 0;
};

// The entrypoint index of one lowered chain: an open-addressed hash table
// over full (dev, ino, offset) keys. `slots` has a power-of-two capacity of
// at least twice the key count; a slot holds an index into `items`, or
// kPfNoIndex when empty. A lookup hashes the key to its home slot and probes
// linearly until it meets the key or an empty slot, so a table always keeps
// one empty slot. The load-time verifier proves that shape (verify.cc), so a
// lookup always ends and never misses a key the table holds. `items` keeps
// the keys in build order for the readers that walk the whole index (the
// verifier, the disassembler, table8_rulegen).
struct EptTable {
  std::vector<EptItem> items;
  std::vector<uint32_t> slots;

  // A multiplicative hash, folded so the low bits the slot mask keeps
  // depend on every bit of the key.
  static uint64_t Hash(const EptKey& key) {
    constexpr uint64_t kMul = 0x9e3779b97f4a7c15ULL;
    uint64_t h = ((static_cast<uint64_t>(key.file.dev) << 48) ^ key.file.ino) * kMul;
    h = (h ^ key.offset) * kMul;
    return h ^ (h >> 32);
  }
  size_t Home(const EptKey& key) const { return Hash(key) & (slots.size() - 1); }

  // Replaces the table with `keys`, which must be distinct.
  void Build(std::vector<EptItem> keys);

  const EptItem* Find(const EptKey& key) const {
    if (slots.empty()) {
      return nullptr;
    }
    const size_t mask = slots.size() - 1;
    for (size_t i = Home(key);; i = (i + 1) & mask) {
      const uint32_t item = slots[i];
      if (item == kPfNoIndex) {
        return nullptr;
      }
      if (items[item].key == key) {
        return &items[item];
      }
    }
  }

  bool empty() const { return items.empty(); }
  size_t size() const { return items.size(); }
};

// One lowered chain. `rules` lists the chain's rule records in chain order
// (the disassembler's and analyzer's view); the buckets and the entrypoint
// index give the evaluator its op-filtered slices.
struct ProgramChain {
  std::string name;
  bool builtin = false;
  bool policy_drop = false;
  bool index_built = false;
  uint64_t op_mask = 0;
  std::vector<uint32_t> rules;  // rule-record indices, chain order
  std::array<ProgramBucket, sim::kOpCount> ops;
  // Entrypoint index re-pointed at entry-table slices (empty = no index).
  // Like the Chain index it mirrors, the per-key rule list is NOT
  // op-filtered (the kCheckOp guard handles mismatches, and the rule still
  // counts as evaluated).
  EptTable ept;
};

// The compiled program artifact: one relocatable arena plus interned pools.
// Immutable after lowering; shares the Rule/module objects with the
// CompiledRuleset that owns it.
struct PfProgram {
  std::vector<uint64_t> arena;    // instruction words
  std::vector<uint32_t> entries;  // flattened bucket/index rule-record lists
  std::vector<RuleRecord> rules;
  std::vector<ProgramChain> chains;  // chain id = index (name-sorted)
  std::map<std::string, int32_t> chain_ids;
  int32_t root_input = -1;
  int32_t root_output = -1;
  int32_t root_create = -1;
  int32_t root_syscallbegin = -1;

  // Interned operand pools.
  std::vector<std::string> strings;
  std::vector<sim::Sid> sid_pool;
  std::vector<LabelSetRef> labelsets;
  std::vector<Operand> operands;
  // Escape-op targets: raw pointers into the module objects owned by the
  // shared Rule instances (same lifetime as the program).
  std::vector<const NativeMatchModule*> native_matches;
  std::vector<const NativeTargetModule*> native_targets;

  PfInsn Fetch(uint32_t pc) const {
    PfInsn insn{};
    std::memcpy(&insn, arena.data() + pc, sizeof(insn));
    return insn;
  }

  int32_t FindChain(const std::string& name) const {
    auto it = chain_ids.find(name);
    return it == chain_ids.end() ? -1 : it->second;
  }

  // LabelSet match semantics over the interned pool (mirrors rule.cc).
  bool SubjectMatches(uint32_t labelset, sim::Sid sid,
                      const sim::MacPolicy& policy) const {
    const LabelSetRef& ref = labelsets[labelset];
    if (ref.wildcard != 0) {
      return true;
    }
    bool in = SidInSlice(ref, sid) || (ref.syshigh != 0 && policy.IsSyshighSubject(sid));
    return ref.negate != 0 ? !in : in;
  }
  bool ObjectMatches(uint32_t labelset, sim::Sid sid,
                     const sim::MacPolicy& policy) const {
    const LabelSetRef& ref = labelsets[labelset];
    if (ref.wildcard != 0) {
      return true;
    }
    bool in = SidInSlice(ref, sid) || (ref.syshigh != 0 && policy.IsSyshighObject(sid));
    return ref.negate != 0 ? !in : in;
  }

 private:
  bool SidInSlice(const LabelSetRef& ref, sim::Sid sid) const {
    for (uint32_t i = 0; i < ref.len; ++i) {
      if (sid_pool[ref.off + i] == sid) {
        return true;
      }
    }
    return false;
  }
};

// Emits instructions and interns operands while a program is being built.
// Module Lower() overrides receive this; the lowering pass itself lives in
// compile.cc.
class ProgramBuilder {
 public:
  explicit ProgramBuilder(PfProgram& prog) : prog_(prog) {}

  // Appends one instruction; returns its arena word offset.
  uint32_t Emit(const PfInsn& insn);

  uint32_t InternString(const std::string& s);
  uint32_t InternLabelSet(const LabelSet& ls);
  uint32_t InternOperand(const Operand& op);
  uint32_t AddNativeMatch(const NativeMatchModule* m);
  uint32_t AddNativeTarget(const NativeTargetModule* t);

  // Chain id for a name, or -1 when undefined. Chain records are created
  // before any rule body is lowered, so forward JUMPs resolve.
  int32_t ChainId(const std::string& name) const { return prog_.FindChain(name); }

  PfProgram& program() { return prog_; }

 private:
  PfProgram& prog_;
  std::unordered_map<std::string, uint32_t> intern_strings_;
  std::unordered_map<std::string, uint32_t> intern_labelsets_;  // keyed by canonical form
};

struct CompiledRuleset;  // engine.h

// The commit-time lowering pass (compile.cc): flattens every filter-table
// chain of `snap` into snap.program and re-points the per-(chain,op)
// buckets and entrypoint index at arena/entry-table offsets. Requires the
// OpBucket compilation (Engine::CompileRuleset passes 1-2) to have run.
// Returns one module-unlowerable error per module that neither lowers nor
// is native; CommitRuleset refuses to publish a program with any.
analysis::AnalysisReport LowerProgram(CompiledRuleset& snap);

// Renders the program as deterministic, pool-resolved assembly (the
// `pftables -L --compiled` listing). Interned content is printed by value
// (label names, strings, chain names), never by pool index or counter, so
// the disassembly of a dump restored into a fresh kernel matches the
// original commit byte for byte.
std::string DisassemblePfProgram(const PfProgram& prog, const sim::LabelRegistry& labels);

}  // namespace pf::core

#endif  // SRC_CORE_PROGRAM_H_
