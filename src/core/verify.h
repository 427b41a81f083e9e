// Load-time verification of arena-packed PF programs (DESIGN.md §5f).
//
// The compiled evaluator executes arbitrary arena bytes with no bounds
// checks on its hot path — the threaded interpreter dispatches straight
// through a label table and indexes the interned pools raw. What makes that
// safe is the same contract eBPF uses: no program reaches the evaluator
// until a load-time verifier has proved, instruction by instruction, that
// every fetch it can perform is in bounds. VerifyProgram is that pass: one
// forward walk over every rule record proving
//
//   * arena integrity — every record names its rule, lies inside the arena,
//     is instruction-aligned, and opens with RULE_BEGIN naming itself;
//   * pool safety — every string/labelset/operand/sid-slice reference on
//     every instruction resolves inside its pool;
//   * store discipline — the only mutating ops are STATE_SET/STATE_UNSET and
//     their key/value references are valid STATE slots;
//   * native-escape validity — MATCH_NATIVE/TARGET_NATIVE indices resolve to
//     live module pointers;
//   * jump soundness — every JUMP target is a real chain id (or the explicit
//     kPfNoIndex "undefined chain" sentinel, which the evaluator treats as a
//     fallthrough), and the chain dispatch tables (buckets, entrypoint
//     index) only reference real rule records;
//   * bounded depth — chains reachable from the builtin roots only beyond
//     kMaxChainDepth JUMP hops are flagged. The runtime depth guard already
//     makes such chains unreachable (never executed, not unsafe), so depth
//     findings are warnings by default and errors only under strict_depth —
//     the engine's mandatory commit gate must keep accepting the deep/cyclic
//     rule bases the static analyzer exists to diagnose.
//
// Engine::CompileRuleset runs this pass on every compilation and
// CommitRuleset refuses to publish a generation whose report has errors, so
// a corrupted or miscompiled program can never reach a hook. pfcheck and
// pftables --check surface the same report.
#ifndef SRC_CORE_VERIFY_H_
#define SRC_CORE_VERIFY_H_

#include "src/analysis/diagnostics.h"
#include "src/core/program.h"

namespace pf::core {

struct VerifyOptions {
  // Escalate depth-exceeded findings from warning to error. Off in the
  // engine's commit gate (the runtime depth guard makes over-deep chains
  // dead, not dangerous); on when a caller wants "every rule reachable" as
  // a hard property.
  bool strict_depth = false;
};

struct VerifyResult {
  analysis::AnalysisReport report;
  bool ok() const { return !report.HasErrors(); }
};

// Single forward verification pass over `prog`. Diagnostics use the stable
// codes: arena-truncated, rule-malformed, bad-opcode, pool-oob,
// state-slot-oob, native-oob, jump-target-oob, syscall-arg-oob,
// ctx-mask-invalid, chain-table-oob, classifier-oob, classifier-coverage,
// depth-exceeded.
VerifyResult VerifyProgram(const PfProgram& prog, const VerifyOptions& opts = {});

}  // namespace pf::core

#endif  // SRC_CORE_VERIFY_H_
