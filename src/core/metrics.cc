// Engine::MetricsText(): Prometheus text exposition of the engine's
// counters, trace-ring health, and decision-latency histograms. Served
// verbatim by `pfshell stats --prom` and the pftrace CLI; the format is
// tested against a real exposition-format parser in
// tests/trace/trace_export_test.cc.
#include "src/audit/export.h"
#include "src/core/engine.h"
#include "src/trace/export.h"
#include "src/trace/metrics.h"

namespace pf::core {

namespace {

// Exposition names of the Ctx context modules (packet.h). The analyzer keeps
// its own human-facing copy; these are stable label values, lowercase by
// Prometheus convention.
std::string_view CtxMetricName(Ctx c) {
  switch (c) {
    case Ctx::kObject:
      return "object";
    case Ctx::kLinkTarget:
      return "link_target";
    case Ctx::kAdversaryAccess:
      return "adversary_access";
    case Ctx::kEntrypoint:
      return "entrypoint";
    case Ctx::kUserStack:
      return "user_stack";
    case Ctx::kInterpStack:
      return "interp_stack";
    case Ctx::kCount:
      break;
  }
  return "unknown";
}

}  // namespace

std::string Engine::MetricsText() const {
  // A torn snapshot (concurrent reset/zeroing) gets one retry; after that it
  // is exposed as-is with pf_stats_torn=1 so the scraper can discard it.
  EngineStats s = stats();
  if (s.torn) {
    s = stats();
  }

  trace::PromWriter w;
  w.Family("pf_invocations_total", "Authorization hook invocations", "counter");
  w.Counter("pf_invocations_total", {}, s.invocations);
  w.Family("pf_drops_total", "Denied accesses", "counter");
  w.Counter("pf_drops_total", {}, s.drops);
  w.Family("pf_audited_drops_total", "Denials suppressed by audit mode", "counter");
  w.Counter("pf_audited_drops_total", {}, s.audited_drops);
  w.Family("pf_rules_evaluated_total", "Rule evaluations", "counter");
  w.Counter("pf_rules_evaluated_total", {}, s.rules_evaluated);
  w.Family("pf_ept_chain_hits_total", "Entrypoint-indexed chain selections", "counter");
  w.Counter("pf_ept_chain_hits_total", {}, s.ept_chain_hits);
  w.Family("pf_unwinds_total", "User-stack unwinds performed", "counter");
  w.Counter("pf_unwinds_total", {}, s.unwinds);
  w.Family("pf_unwind_cache_hits_total", "Unwinds served from the per-syscall cache",
           "counter");
  w.Counter("pf_unwind_cache_hits_total", {}, s.unwind_cache_hits);
  w.Family("pf_ruleset_refreshes_total", "Per-worker ruleset snapshot re-pins", "counter");
  w.Counter("pf_ruleset_refreshes_total", {}, s.ruleset_refreshes);

  w.Family("pf_ctx_fetches_total", "Context-module fetches by kind", "counter");
  for (size_t i = 0; i < s.ctx_fetches.size(); ++i) {
    w.Counter("pf_ctx_fetches_total",
              {{"ctx", std::string(CtxMetricName(static_cast<Ctx>(i)))}},
              s.ctx_fetches[i]);
  }

  // Ring-health and audit families are written by their owning subsystems —
  // one source of truth for family/help text, shared by every exposition
  // surface (pfshell stats --prom, pftrace --prom all serve this string).
  trace::WriteRingFamilies(w, trace_);
  audit::WriteAuditFamilies(w, audit_);

  w.Family("pf_ruleset_generation", "Published ruleset generation", "gauge");
  w.Gauge("pf_ruleset_generation", {}, static_cast<double>(ruleset_generation()));
  w.Family("pf_stats_generation", "Counter-mutation generation at snapshot time",
           "gauge");
  w.Gauge("pf_stats_generation", {}, static_cast<double>(s.stats_generation));
  w.Family("pf_stats_torn", "1 when this snapshot raced a counter reset", "gauge");
  w.Gauge("pf_stats_torn", {}, s.torn ? 1.0 : 0.0);

  // Decision-latency histograms for every (op, path) cell that has samples.
  bool any = false;
  for (uint32_t op = 0; op < sim::kOpCount && !any; ++op) {
    for (size_t p = 0; p < trace::kPathCount && !any; ++p) {
      any = trace_.histogram(op, static_cast<trace::Path>(p)).count() > 0;
    }
  }
  if (any) {
    w.Family("pf_decision_latency_ns", "Authorize latency by op and decision path",
             "histogram");
    for (uint32_t op = 0; op < sim::kOpCount; ++op) {
      for (size_t p = 0; p < trace::kPathCount; ++p) {
        const auto path = static_cast<trace::Path>(p);
        const trace::LatencyHistogram& h = trace_.histogram(op, path);
        if (h.count() == 0) {
          continue;
        }
        w.Histogram("pf_decision_latency_ns",
                    {{"op", std::string(sim::OpName(static_cast<sim::Op>(op)))},
                     {"path", std::string(trace::PathName(path))}},
                    h);
      }
    }
  }
  return w.str();
}

}  // namespace pf::core
