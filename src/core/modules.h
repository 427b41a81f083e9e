// Built-in match and target modules (the -m / -j extensions).
//
// Mirrors the paper's module set: STATE (stateful key/value match and set,
// used for TOCTTOU and signal-race rules R5/R6/R9-R12), SIGNAL_MATCH,
// SYSCALL_ARGS, COMPARE (owner comparisons, R8), LOG (rule generation), and
// the verdict targets ACCEPT/DROP/RETURN plus user-chain jumps. INTERP is an
// extension matching interpreter backtraces directly.
#ifndef SRC_CORE_MODULES_H_
#define SRC_CORE_MODULES_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/core/rule.h"
#include "src/core/status.h"

namespace pf::core {

// Temporal phases (DESIGN.md §5i, after SYSPART's execve-milestone model):
// a task's lifecycle phase is a reserved STATE dictionary key, entered by
// -j PHASE --enter NAME (an execve-milestone rule swaps the active rule
// subset by entering "serving") and tested by -m PHASE --is NAME. Phase
// names are stored as stable 63-bit FNV-1a ids so phase guards lower to
// literal-compare instructions.
inline constexpr std::string_view kPhaseKeyName = "@phase";
// The phase every task is in until a PHASE target fires: the "@phase" key
// is simply absent, and every phase guard treats absent as this name.
inline constexpr std::string_view kPhaseInitName = "init";

constexpr int64_t PhaseId(std::string_view name) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a 64
  for (char c : name) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return static_cast<int64_t>(h & 0x7fffffffffffffffull);
}

// An argument that is either a literal integer or a context variable.
struct Operand {
  bool is_var = false;
  CtxVar var = CtxVar::kIno;
  int64_t literal = 0;

  static std::optional<Operand> Parse(const std::string& token);
  std::optional<int64_t> Eval(const Packet& pkt) const;
  CtxMask Needs() const;
  std::string Render() const;
};

// -m STATE --key K [--cmp V] [--equal|--nequal]
// Matches when the per-process dictionary holds K and its value compares to
// V (default: any value present).
class StateMatch : public MatchModule {
 public:
  static Status Create(const std::vector<std::string>& opts,
                       std::unique_ptr<MatchModule>* out);
  std::string_view Name() const override { return "STATE"; }
  CtxMask Needs() const override;
  bool Matches(Packet& pkt, Engine& engine) const override;
  bool Lower(ProgramBuilder& b) const override;
  bool Symbolize(SymbolicSink& sink) const override;
  std::string Render() const override;

  std::string key;
  std::optional<Operand> cmp;
  bool negate = false;
};

// -m SIGNAL_MATCH: the delivery is of a handled, blockable signal.
class SignalMatch : public MatchModule {
 public:
  static Status Create(const std::vector<std::string>& opts,
                       std::unique_ptr<MatchModule>* out);
  std::string_view Name() const override { return "SIGNAL_MATCH"; }
  bool Matches(Packet& pkt, Engine& engine) const override;
  bool Lower(ProgramBuilder& b) const override;
  bool Symbolize(SymbolicSink& sink) const override;
  std::string Render() const override;
};

// -m SYSCALL_ARGS --arg N --equal V
// Arg 0 is the system call number; args 1..4 are its arguments.
class SyscallArgsMatch : public MatchModule {
 public:
  static Status Create(const std::vector<std::string>& opts,
                       std::unique_ptr<MatchModule>* out);
  std::string_view Name() const override { return "SYSCALL_ARGS"; }
  bool Matches(Packet& pkt, Engine& engine) const override;
  bool Lower(ProgramBuilder& b) const override;
  bool Symbolize(SymbolicSink& sink) const override;
  std::string Render() const override;

  int arg = 0;
  int64_t value = 0;
  bool negate = false;
};

// -m COMPARE --v1 A --v2 B [--equal|--nequal]
class CompareMatch : public MatchModule {
 public:
  static Status Create(const std::vector<std::string>& opts,
                       std::unique_ptr<MatchModule>* out);
  std::string_view Name() const override { return "COMPARE"; }
  CtxMask Needs() const override { return v1.Needs() | v2.Needs(); }
  bool Matches(Packet& pkt, Engine& engine) const override;
  bool Lower(ProgramBuilder& b) const override;
  bool Symbolize(SymbolicSink& sink) const override;
  std::string Render() const override;

  Operand v1;
  Operand v2;
  bool negate = false;
};

// -m INTERP --script SUFFIX [--lang php|python|bash] (extension): matches
// when the innermost interpreter frame runs the given script.
class InterpMatch : public MatchModule {
 public:
  static Status Create(const std::vector<std::string>& opts,
                       std::unique_ptr<MatchModule>* out);
  std::string_view Name() const override { return "INTERP"; }
  CtxMask Needs() const override { return CtxBit(Ctx::kInterpStack); }
  bool Matches(Packet& pkt, Engine& engine) const override;
  // A shorter suffix accepts every script a longer one does (and --lang
  // unset accepts every language), so INTERP matches form a partial order
  // the shadowing analysis can exploit.
  bool Subsumes(const MatchModule& other) const override;
  bool Lower(ProgramBuilder& b) const override;
  bool Symbolize(SymbolicSink& sink) const override;
  std::string Render() const override;

  std::string script_suffix;
  std::optional<sim::InterpLang> lang;
};

// -m PHASE --is NAME [--nequal]: matches when the task's current temporal
// phase (the reserved "@phase" STATE key; absent = init) equals NAME.
class PhaseMatch : public MatchModule {
 public:
  static Status Create(const std::vector<std::string>& opts,
                       std::unique_ptr<MatchModule>* out);
  std::string_view Name() const override { return "PHASE"; }
  bool Matches(Packet& pkt, Engine& engine) const override;
  bool Lower(ProgramBuilder& b) const override;
  bool Symbolize(SymbolicSink& sink) const override;
  std::string Render() const override;

  std::string phase;
  bool negate = false;
};

// --- targets ---

class VerdictTarget : public TargetModule {
 public:
  explicit VerdictTarget(TargetKind kind) : kind_(kind) {}
  std::string_view Name() const override;
  std::optional<TargetKind> StaticKind() const override { return kind_; }
  bool Lower(ProgramBuilder& b) const override;
  TargetKind Fire(Packet& pkt, Engine& engine) const override;
  std::string Render() const override { return std::string(Name()); }

 private:
  TargetKind kind_;
};

class JumpTarget : public TargetModule {
 public:
  explicit JumpTarget(std::string chain) : chain_(std::move(chain)) {}
  std::string_view Name() const override { return "JUMP"; }
  std::optional<TargetKind> StaticKind() const override { return TargetKind::kJump; }
  bool Lower(ProgramBuilder& b) const override;
  TargetKind Fire(Packet&, Engine&) const override { return TargetKind::kJump; }
  const std::string& jump_chain() const override { return chain_; }
  std::string Render() const override { return chain_; }

 private:
  std::string chain_;
};

// -j STATE --set --key K --value V : writes into the per-process dictionary
// and continues traversal.
class StateTarget : public TargetModule {
 public:
  static Status Create(const std::vector<std::string>& opts,
                       std::unique_ptr<TargetModule>* out);
  std::string_view Name() const override { return "STATE"; }
  CtxMask Needs() const override { return value.Needs(); }
  std::optional<TargetKind> StaticKind() const override { return TargetKind::kContinue; }
  bool Lower(ProgramBuilder& b) const override;
  TargetKind Fire(Packet& pkt, Engine& engine) const override;
  std::string Render() const override;

  std::string key;
  Operand value;
  bool unset = false;
};

// -j PHASE --enter NAME: moves the task into temporal phase NAME (a literal
// write of PhaseId(NAME) to the reserved "@phase" STATE key) and continues
// traversal. An execve-milestone rule (-o FILE_EXEC -j PHASE --enter
// serving) atomically swaps which PHASE-guarded rules apply from then on.
class PhaseTarget : public TargetModule {
 public:
  static Status Create(const std::vector<std::string>& opts,
                       std::unique_ptr<TargetModule>* out);
  std::string_view Name() const override { return "PHASE"; }
  std::optional<TargetKind> StaticKind() const override { return TargetKind::kContinue; }
  bool Lower(ProgramBuilder& b) const override;
  TargetKind Fire(Packet& pkt, Engine& engine) const override;
  std::string Render() const override;

  std::string phase;
};

// -j LOG [--prefix P]: records the access (rule-generation input) and
// continues traversal.
class LogTarget : public TargetModule {
 public:
  static Status Create(const std::vector<std::string>& opts,
                       std::unique_ptr<TargetModule>* out);
  std::string_view Name() const override { return "LOG"; }
  // Logs include entrypoint and adversary context.
  CtxMask Needs() const override {
    return CtxBit(Ctx::kObject) | CtxBit(Ctx::kAdversaryAccess) | CtxBit(Ctx::kEntrypoint);
  }
  std::optional<TargetKind> StaticKind() const override { return TargetKind::kContinue; }
  bool Lower(ProgramBuilder& b) const override;
  TargetKind Fire(Packet& pkt, Engine& engine) const override;
  std::string Render() const override;

  std::string prefix;
};

}  // namespace pf::core

#endif  // SRC_CORE_MODULES_H_
