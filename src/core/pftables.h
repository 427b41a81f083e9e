// pftables: the rule-language front-end (paper Table 3, §5.2).
//
// Accepts iptables-style command lines:
//
//   pftables [-t table] [-I chain [pos] | -A chain | -D chain pos |
//             -N chain | -F [chain]] [rule_spec]
//   rule_spec: [-s labelset] [-d labelset] [-i ept] [-o op] [-p program]
//              [--ino n] [-m module opts...]* [-j target opts...]
//   labelset : name | SYSHIGH | {a|b|...} | ~name | ~{a|b|SYSHIGH}
//
// When no chain command is given the rule is appended to the `input` chain
// (the paper's listings R1-R8 rely on this default). At install time label
// names are translated to security IDs and program paths to inode numbers
// for fast matching, exactly as described in the paper.
#ifndef SRC_CORE_PFTABLES_H_
#define SRC_CORE_PFTABLES_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/analysis/diagnostics.h"
#include "src/core/engine.h"
#include "src/core/status.h"

namespace pf::core {

// Commit-time static-analysis gate (`pftables --check[=error|warn] ...`).
// kError refuses to apply a command whose resulting rule base carries any
// error-severity diagnostic (the staging rule base is rolled back and
// nothing is published); kWarn applies the command but logs the findings;
// kOff (the default) skips analysis entirely.
enum class CheckMode { kOff, kWarn, kError };

// Extension factories: the "userspace half" of a match/target module that
// parses rule-language options into a module instance (the instance itself
// is the kernel half). Mirrors how iptables extensions register themselves.
using MatchFactoryFn =
    std::function<Status(const std::vector<std::string>&, std::unique_ptr<MatchModule>*)>;
using TargetFactoryFn =
    std::function<Status(const std::vector<std::string>&, std::unique_ptr<TargetModule>*)>;

class Pftables {
 public:
  explicit Pftables(Engine* engine) : engine_(engine) {}

  // Registers a custom match/target module under its rule-language name
  // (e.g. "-m OWNER ..."). Custom names shadow the built-in set.
  void RegisterMatch(const std::string& name, MatchFactoryFn factory) {
    custom_matches_[name] = std::move(factory);
  }
  void RegisterTarget(const std::string& name, TargetFactoryFn factory) {
    custom_targets_[name] = std::move(factory);
  }

  // Executes one pftables command line (the leading "pftables" word is
  // optional). Lines that are empty or start with '#'/'*' are ignored, so
  // annotated rule files can be fed line by line. A `--check[=error|warn]`
  // flag before the chain command runs the static analyzer over the
  // resulting rule base; see CheckMode.
  //
  // Symbolic decision-space flags (src/analysis/symbolic/):
  //   --diff <path>      Standalone: loads <path> (a Save() dump or a file
  //                      of pftables lines) into a scratch engine and prints
  //                      the semantic diff old→live — the exact regions of
  //                      the decision space where the two bases decide
  //                      differently. No chain command follows.
  //   --widening-gate    Before committing a mutating command, diffs the
  //                      staged base against the published generation and
  //                      rejects the command transactionally if any region
  //                      flips toward ALLOW (the staged edit rolls back, the
  //                      published generation is untouched).
  //   --allow-widening   Overrides the gate for an intended widening.
  Status Exec(const std::string& command);

  // Executes many commands as one batch: the engine commit is deferred to
  // the end (and to any --check line, which must gate the fully staged
  // base), so installing an n-rule dump costs one commit instead of n.
  // Stops at the first error; commands that succeeded before it remain
  // staged and committed.
  Status ExecAll(const std::vector<std::string>& commands);

  // Renders a table's chains, rules, and counters; for the filter table the
  // static analyzer's findings are appended as '# ...' annotation lines.
  // Verbose (`-L -v`) additionally prints each rule's accumulated evaluation
  // time (populated while per-rule tracing is enabled; see src/trace) and a
  // per-chain totals line summing evals/hits/time over the chain's rules.
  std::string List(const std::string& table = "filter", bool verbose = false) const;

  // Renders the committed program form (`pftables -L --compiled`): the
  // published generation hooks run, not the staging base (a `-N` shows up
  // with the next commit), disassembled chain by chain —
  // arena instructions with pool operands resolved to label/string values,
  // per-op dispatch masks, and the entrypoint index. Deterministic across
  // kernel instances: Restore(Save()) into a fresh kernel disassembles
  // byte-identically.
  std::string ListCompiled() const;

  // Renders the audit pipeline's live view (`pftables --audit`): the hub's
  // conservation counters followed by the aggregator's per-(rule, subject,
  // entrypoint) deny-rate windows, suppression totals, and anomaly flags.
  // Non-destructive — the record rings are left for the drain consumers.
  std::string AuditText() const;

  // Serializes the rule base as re-installable commands (pftables-save).
  // Round trip: Restore(Save()) reproduces the rule base.
  std::string Save(const std::string& table = "filter") const;

  // Executes a Save()-format dump line by line (pftables-restore). With a
  // check mode, the whole dump is gated as one unit: any line error or (in
  // kError mode) any error-severity diagnostic rolls the rule base back to
  // its pre-restore state.
  Status Restore(const std::string& dump, CheckMode check = CheckMode::kOff);

  // Zeroes rule counters (evals, hits, accumulated eval time) — all chains,
  // or one chain when `chain` is non-empty (`-Z [chain]`). Transactional
  // with respect to Engine::stats() readers: the counter-mutation generation
  // is odd for the duration, so a concurrent aggregation reports itself as
  // torn instead of silently mixing pre- and post-zero counts.
  Status ZeroCounters(const std::string& chain = std::string());

  Engine& engine() { return *engine_; }

  // The report of the most recent --check / checked Restore on this
  // front-end (empty until one runs).
  const analysis::AnalysisReport& last_check() const { return last_check_; }

  // Tokenizes a command line (exposed for tests): whitespace-separated,
  // honoring single and double quotes. An unterminated quote is a parse
  // error — silently swallowing the rest of the line once hid rule tails.
  static Status Tokenize(const std::string& line, std::vector<std::string>* out);

 private:
  Status ParseLabelSet(const std::string& token, LabelSet* out);
  Status DiffAgainstFile(const std::string& path);
  Status ParseRule(const std::vector<std::string>& tokens, size_t from, Rule* rule);
  // Batch-aware commit wrapper: publishes `staged` (a gate's compile of the
  // staging base) when given, else compiles and publishes.
  Status CommitStaged(std::shared_ptr<CompiledRuleset> staged = nullptr);
  Status FlushBatch();                  // commit deferred batch work

  Engine* engine_;
  std::map<std::string, MatchFactoryFn> custom_matches_;
  std::map<std::string, TargetFactoryFn> custom_targets_;
  analysis::AnalysisReport last_check_;
  // ExecAll batching state (see ExecAll): while true, mutating commands
  // record that a commit is owed instead of performing it per line.
  bool batching_ = false;
  bool batch_dirty_ = false;
};

}  // namespace pf::core

#endif  // SRC_CORE_PFTABLES_H_
