// Process Firewall rule representation.
//
// A rule mirrors an iptables rule (paper Table 3): default matches (subject
// label, object label, entrypoint, operation, program, resource identifier),
// extensible match modules (-m), and a target (-j). Rules are deny rules
// followed by a default allow (paper §4.1), which keeps traversal order
// insensitive and makes entrypoint-chain indexing sound.
#ifndef SRC_CORE_RULE_H_
#define SRC_CORE_RULE_H_

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/packet.h"
#include "src/sim/label.h"
#include "src/sim/mac_policy.h"

namespace pf::core {

class Engine;
class ProgramBuilder;  // program.h
class SymbolicSink;    // symbolize.h

using CtxMask = uint32_t;

// A set of labels with optional negation and the SYSHIGH keyword
// (expanded against the MAC policy at match time, so rules stay valid as the
// policy evolves — compare paper §5.2).
struct LabelSet {
  std::vector<sim::Sid> sids;
  bool syshigh = false;
  bool negate = false;
  bool wildcard = true;  // unset: matches anything

  bool MatchesSubject(sim::Sid sid, const sim::MacPolicy& policy) const;
  bool MatchesObject(sim::Sid sid, const sim::MacPolicy& policy) const;
  std::string Render(const sim::LabelRegistry& labels) const;

 private:
  bool InSet(sim::Sid sid) const;
};

// Extensible match module instance (the kernel half; the "userspace half"
// is its factory's option parser in pftables.cc). A module has exactly one
// implementation: either it lowers to instructions whose handlers
// (src/core/exec_insn.inc) define its semantics, or it is a
// NativeMatchModule whose Matches() the kMatchNative escape calls.
class MatchModule {
 public:
  virtual ~MatchModule() = default;
  virtual std::string_view Name() const = 0;
  // Context fields that must be collected before the module is evaluated.
  virtual CtxMask Needs() const { return 0; }
  // Subsumption hook for the static analyzer (src/analysis): true when this
  // module's accepted packet set is a superset of `other`'s — every packet
  // `other` matches, this module matches too. The default — exact equality
  // of module name and rendered options — is always sound; modules whose
  // option space has a partial order (e.g. INTERP script suffixes) override
  // it to prove more shadowing.
  virtual bool Subsumes(const MatchModule& other) const {
    return Name() == other.Name() && Render() == other.Render();
  }
  // Lowering hook for the compiled-program form (program.h): emit the
  // module's instruction(s) and return true. Returning false is only legal
  // for a NativeMatchModule, which the lowering pass turns into a
  // kMatchNative escape; any other module that declines to lower makes the
  // commit fail, so no module can ever evaluate as a silent no-match.
  virtual bool Lower(ProgramBuilder&) const { return false; }
  // Symbolic-lowering hook for the decision-space analyzer
  // (src/analysis/symbolic), alongside Lower()/Subsumes(): describe the
  // accepted set as per-dimension constraints on the sink and return true.
  // The default — return false — makes the analyzer model the module as an
  // uninterpreted boolean dimension keyed by Name()+Render(): every region
  // is split on both outcomes, which stays sound (extension modules work
  // unmodified) but proves less shadowing and yields abstract witnesses.
  virtual bool Symbolize(SymbolicSink&) const { return false; }
  virtual std::string Render() const = 0;
};

// An extension match implemented in C++ instead of instructions
// (Pftables::RegisterMatch). The lowering pass emits a kMatchNative escape
// that dispatches back into Matches().
class NativeMatchModule : public MatchModule {
 public:
  virtual bool Matches(Packet& pkt, Engine& engine) const = 0;
};

// Target verdicts.
enum class TargetKind {
  kAccept,    // allow the access, stop traversal
  kDrop,      // deny the access, stop traversal
  kContinue,  // side-effect-only target (LOG, STATE --set): keep going
  kReturn,    // pop to the calling chain
  kJump,      // push the named chain
};

class TargetModule {
 public:
  virtual ~TargetModule() = default;
  virtual std::string_view Name() const = 0;
  virtual CtxMask Needs() const { return 0; }
  // The verdict kind the target produces, when it is statically determinable
  // (ACCEPT/DROP/RETURN/JUMP and side-effect-only targets always return the
  // same kind). Custom targets with data-dependent verdicts keep the nullopt
  // default and the static analyzer treats them conservatively — they
  // neither shadow later rules nor count as dead when shadowed.
  virtual std::optional<TargetKind> StaticKind() const { return std::nullopt; }
  // Lowering hook, mirroring MatchModule::Lower: emit the terminal/effect
  // instruction(s) and return true. Only a NativeTargetModule may decline,
  // and it then runs through a kTargetNative escape.
  virtual bool Lower(ProgramBuilder&) const { return false; }
  // The chain a kJump target pushes.
  virtual const std::string& jump_chain() const {
    static const std::string kEmpty;
    return kEmpty;
  }
  virtual std::string Render() const = 0;
};

// An extension target implemented in C++ (Pftables::RegisterTarget), run
// through the kTargetNative escape.
class NativeTargetModule : public TargetModule {
 public:
  // Fires the target; for kJump the chain name is in jump_chain().
  virtual TargetKind Fire(Packet& pkt, Engine& engine) const = 0;
};

struct Rule {
  // --- default matches ---
  std::optional<sim::Op> op;                // -o
  LabelSet subject;                         // -s
  LabelSet object;                          // -d
  std::string program;                      // -p (path as written)
  sim::FileId program_file;                 // compiled identity
  std::optional<uint64_t> entrypoint;       // -i (binary-relative PC)
  std::optional<sim::Ino> ino;              // --ino (resource identifier)

  std::vector<std::unique_ptr<MatchModule>> matches;
  std::unique_ptr<TargetModule> target;     // never null after compilation

  // Context requirements of all parts (computed once at install).
  CtxMask needs = 0;

  // Diagnostics / counters. Relaxed atomics: rules are evaluated from many
  // worker threads concurrently, and the counters are shared between the
  // staging rule base and every published snapshot (ruleset.h). `eval_ns`
  // accumulates only while per-rule tracing (Event::kRule) is enabled on the
  // compiled evaluator — it is attribution, not an always-on cost.
  std::string source;      // original rule text
  mutable std::atomic<uint64_t> evals{0};
  mutable std::atomic<uint64_t> hits{0};
  mutable std::atomic<uint64_t> eval_ns{0};

  bool has_program() const { return program_file.ino != sim::kInvalidIno; }
  bool IndexableByEntrypoint() const { return has_program() && entrypoint.has_value(); }
};

}  // namespace pf::core

#endif  // SRC_CORE_RULE_H_
