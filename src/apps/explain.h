// pfexplain: replay one request against a live engine and reconstruct the
// decision's full provenance (DESIGN.md §5j).
//
// The engine's observability surfaces each tell part of the story — the
// audit pipeline names the matched rule and the evaluator that served it;
// the per-rule eval/hit counters say which rules the traversal touched.
// ExplainRequest runs the request once with the audit hub armed, diffs those
// surfaces across the call, and merges them into one provenance tree: the
// verdict, the tier that produced it, every rule evaluated (and why the rest
// were not), and the security events the decision emitted.
//
// This is a diagnostic replay, not a dry run: the request perturbs the
// engine exactly as any request would (counters, context caches, STATE
// effects).
// Single-threaded use only — a concurrent workload would bleed into the
// counter diffs.
#ifndef SRC_APPS_EXPLAIN_H_
#define SRC_APPS_EXPLAIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/audit/record.h"
#include "src/core/engine.h"
#include "src/trace/export.h"

namespace pf::apps {

// One rule the traversal evaluated, with this request's counter movement.
struct ExplainStep {
  int32_t chain_id = -1;    // compiled-program chain id
  uint32_t rule_index = 0;  // position within the chain
  std::string chain;        // chain name
  std::string rule;         // source text as installed
  uint64_t evals = 0;       // evaluations this request performed
  uint64_t hits = 0;        // target fires this request performed
  bool produced_verdict = false;
};

struct ExplainResult {
  int64_t verdict = 0;  // Authorize's return value
  bool drop = false;
  bool audited = false;  // audit-only mode: denial recorded, access allowed
  // Serving tier ("compiled"). From the deny AuditRecord when
  // the request denied; from the engine's chain selection otherwise
  // ("fast-path" when no chain applied and the engine never built a packet).
  std::string tier;
  int32_t chain_id = -1;  // verdict-producing rule (denials; -1 = policy)
  int32_t rule_index = -1;
  std::vector<audit::AuditRecord> events;  // audit records this request emitted
  std::vector<ExplainStep> steps;          // rules evaluated, traversal order
  // Chains consulted for this op whose rules were (partly) not reached, with
  // the static reason.
  std::vector<std::string> not_reached;

  // Human-readable provenance tree.
  std::string Render(const trace::NameTable& names) const;
};

// Replays `req` once and explains the decision. Temporarily enables the
// audit hub (with suppression off) when it is not already enabled; an
// enabled hub is drained first so the result's events belong to this
// request alone.
ExplainResult ExplainRequest(core::Engine& engine, sim::AccessRequest& req);

}  // namespace pf::apps

#endif  // SRC_APPS_EXPLAIN_H_
