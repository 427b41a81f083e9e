#include "src/apps/explain.h"

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>

#include "src/audit/export.h"
#include "src/core/program.h"

namespace pf::apps {

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

struct RuleCounter {
  const core::Rule* rule = nullptr;
  int32_t chain_id = -1;
  uint32_t chain_index = 0;
  uint64_t evals = 0;
  uint64_t hits = 0;
};

bool IsDenyKind(const audit::AuditRecord& rec) {
  return rec.kind == static_cast<uint8_t>(audit::Kind::kDeny) ||
         rec.kind == static_cast<uint8_t>(audit::Kind::kAuditedDeny);
}

}  // namespace

ExplainResult ExplainRequest(core::Engine& engine, sim::AccessRequest& req) {
  ExplainResult out;
  audit::AuditHub& hub = engine.audit();
  const bool was_enabled = hub.enabled();
  if (!was_enabled) {
    audit::AuditHub::Config cfg;
    cfg.bucket_capacity = 0;  // an explanation must never be suppressed
    hub.Enable(cfg);
  }
  (void)hub.Drain();  // discard any backlog: drained events must be ours alone

  // Per-rule counter snapshot over the published program's live records. The
  // Rule atomics are shared with the staging base, so the snapshot sees
  // exactly the counters the evaluator moves.
  const std::shared_ptr<const core::CompiledRuleset> rs = engine.PublishedRuleset();
  std::vector<RuleCounter> counters;
  if (rs != nullptr) {
    counters.reserve(rs->program.rules.size());
    for (const core::RuleRecord& rr : rs->program.rules) {
      if (rr.rule == nullptr) {
        continue;  // dead delta-commit record, unreachable
      }
      counters.push_back({rr.rule, rr.chain_id, rr.chain_index,
                          rr.rule->evals.load(kRelaxed), rr.rule->hits.load(kRelaxed)});
    }
  }

  const core::EngineStats before = engine.stats();
  out.verdict = engine.Authorize(req);
  const core::EngineStats after = engine.stats();
  out.events = hub.Drain();
  if (!was_enabled) {
    hub.Disable();
  }

  out.audited = after.audited_drops > before.audited_drops;
  out.drop = out.verdict != 0 || out.audited;

  // Verdict attribution and serving evaluator, from the denial's audit
  // record when one exists (exact), from the chain selection otherwise: a
  // request with an applicable chain traverses it even when every reachable
  // rule list is empty (entrypoint-indexed chains with no matching binding).
  const audit::AuditRecord* deny = nullptr;
  for (const audit::AuditRecord& rec : out.events) {
    if (IsDenyKind(rec)) {
      deny = &rec;
    }
  }
  const core::CompiledChain* chains[3];
  if (deny != nullptr) {
    out.tier = std::string(
        audit::TierName(static_cast<audit::Tier>(deny->tier)));
    out.chain_id = deny->chain_id;
    out.rule_index = deny->rule_index;
  } else if (engine.config().enabled && req.task != nullptr && rs != nullptr &&
             core::ApplicableChains(*rs, req, chains) != 0) {
    out.tier = std::string(audit::TierName(audit::Tier::kCompiled));
  } else {
    out.tier = "fast-path";  // no applicable chain: Authorize never built a packet
  }

  // Traversal steps: every rule whose eval counter moved, with this
  // request's movement, in (chain, position) order.
  std::map<int32_t, std::string> chain_names;
  if (rs != nullptr) {
    for (const auto& [name, id] : rs->program.chain_ids) {
      chain_names[id] = name;
    }
  }
  std::sort(counters.begin(), counters.end(), [](const RuleCounter& a,
                                                 const RuleCounter& b) {
    return a.chain_id != b.chain_id ? a.chain_id < b.chain_id
                                    : a.chain_index < b.chain_index;
  });
  std::map<int32_t, std::pair<size_t, size_t>> per_chain;  // evaluated, total
  for (const RuleCounter& rc : counters) {
    const uint64_t evals = rc.rule->evals.load(kRelaxed) - rc.evals;
    const uint64_t hits = rc.rule->hits.load(kRelaxed) - rc.hits;
    auto& [evaluated, total] = per_chain[rc.chain_id];
    ++total;
    if (evals == 0) {
      continue;
    }
    ++evaluated;
    ExplainStep step;
    step.chain_id = rc.chain_id;
    step.rule_index = rc.chain_index;
    auto it = chain_names.find(rc.chain_id);
    step.chain = it != chain_names.end() ? it->second : std::to_string(rc.chain_id);
    step.rule = rc.rule->source;
    step.evals = evals;
    step.hits = hits;
    step.produced_verdict =
        out.chain_id == rc.chain_id &&
        out.rule_index == static_cast<int32_t>(rc.chain_index);
    out.steps.push_back(std::move(step));
  }
  for (const auto& [chain_id, ev] : per_chain) {
    const auto& [evaluated, total] = ev;
    if (evaluated == 0 || evaluated == total) {
      continue;  // chain not consulted at all, or fully walked
    }
    auto it = chain_names.find(chain_id);
    out.not_reached.push_back(
        "chain '" + (it != chain_names.end() ? it->second : std::to_string(chain_id)) +
        "': " + std::to_string(total - evaluated) + " of " + std::to_string(total) +
        " rules not evaluated (op filter, entrypoint index, or earlier verdict)");
  }
  return out;
}

std::string ExplainResult::Render(const trace::NameTable& names) const {
  std::ostringstream os;
  os << "verdict: ";
  if (audited) {
    os << "DROP (audited: access allowed, denial recorded)";
  } else if (drop) {
    os << "DROP (" << verdict << ")";
  } else {
    os << "ALLOW (0)";
  }
  os << "\n  served by: tier=" << tier << "\n";
  if (drop) {
    os << "  matched rule: ";
    if (chain_id < 0) {
      os << "(chain policy — no rule attribution)";
    } else {
      os << chain_id << ":" << rule_index;
      for (const ExplainStep& s : steps) {
        if (s.produced_verdict) {
          os << "  `" << s.rule << "`";
          break;
        }
      }
    }
    os << "\n";
  }
  if (!steps.empty()) {
    os << "traversal:\n";
    for (const ExplainStep& s : steps) {
      os << "  " << s.chain << ":" << s.rule_index << " evaluated";
      if (s.hits > 0) {
        os << " HIT";
      }
      if (s.produced_verdict) {
        os << "  <== verdict";
      }
      os << "\n";
    }
    for (const std::string& nr : not_reached) {
      os << "  " << nr << "\n";
    }
  } else {
    os << "traversal: none (served without evaluating any rule)\n";
  }
  if (!events.empty()) {
    os << "events:\n";
    std::istringstream lines(audit::RenderText(events, names));
    for (std::string line; std::getline(lines, line);) {
      os << "  " << line << "\n";
    }
  }
  return os.str();
}

}  // namespace pf::apps
