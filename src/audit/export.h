// Audit exporters: render a drained AuditRecord stream as human text or
// JSON-lines (the forensic log format, `pftrace --format` style), render the
// aggregator's live window view (`pftables --audit`), and write the
// pf_audit_* Prometheus families into an exposition (the single writer path
// Engine::MetricsText() uses). Name resolution happens here — records hold
// only integers, so exporters take the trace NameTable to turn sids back
// into MAC type names.
#ifndef SRC_AUDIT_EXPORT_H_
#define SRC_AUDIT_EXPORT_H_

#include <string>
#include <vector>

#include "src/audit/hub.h"
#include "src/audit/record.h"
#include "src/trace/export.h"
#include "src/trace/metrics.h"

namespace pf::audit {

// One record per line:
//   [123.456789] w03 deny op=open subj=httpd_t obj=shadow_t rule=input:1
//   tier=compiled ept=0xdead+0x40 gen=7
std::string RenderText(const std::vector<AuditRecord>& records,
                       const trace::NameTable& names);

// One JSON object per line (jq-friendly), every field present. This is the
// JSONL forensic sink: `pftrace --audit --format=jsonl` and the Table-4
// exploit harness both write it.
std::string RenderJsonLines(const std::vector<AuditRecord>& records,
                            const trace::NameTable& names);

// The aggregator's live view: per-key deny-rate windows, suppression, and
// anomaly flags, plus the hub conservation counters. `pftables --audit`.
std::string RenderWindows(const AuditHub& hub, const trace::NameTable& names);

// Appends the pf_audit_* metric families for `hub` to an exposition in
// progress. The one source of truth for the family/help text — called by
// Engine::MetricsText(), tested by tests/trace/trace_export_test.cc.
void WriteAuditFamilies(trace::PromWriter& w, const AuditHub& hub);

}  // namespace pf::audit

#endif  // SRC_AUDIT_EXPORT_H_
