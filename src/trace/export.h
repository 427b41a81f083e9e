// Trace exporters: render a drained record stream as human text, JSON-lines,
// or Chrome trace_event JSON (chrome://tracing / Perfetto). Name resolution
// happens here — records hold only integers, so exporters take an optional
// LabelRegistry to turn sids back into MAC type names and use sim::OpName
// for operations.
#ifndef SRC_TRACE_EXPORT_H_
#define SRC_TRACE_EXPORT_H_

#include <string>
#include <vector>

#include "src/trace/hub.h"
#include "src/trace/metrics.h"
#include "src/trace/record.h"

namespace pf::sim {
class LabelRegistry;
}

namespace pf::trace {

// Resolves record integers to names for rendering. All methods degrade to
// numeric forms when no registry is attached.
struct NameTable {
  const sim::LabelRegistry* labels = nullptr;

  std::string SidName(uint32_t sid) const;
  static std::string OpName(uint32_t op);
};

// One record per line:
//   [123.456789] w03 decision op=stat subj=httpd_t obj=passwd_t verdict=drop
//   path=COMPILED chain=2 rule=0 ctx=120ns eval=340ns total=980ns
std::string RenderText(const std::vector<TraceRecord>& records, const NameTable& names);

// One JSON object per line (jq-friendly), every field present.
std::string RenderJsonLines(const std::vector<TraceRecord>& records, const NameTable& names);

// Chrome trace_event format: {"traceEvents":[...]} of complete ("ph":"X")
// events, pid 1, tid = worker index, microsecond timestamps rebased to the
// first record. Loads directly in chrome://tracing and ui.perfetto.dev.
std::string RenderChromeTrace(const std::vector<TraceRecord>& records, const NameTable& names);

// Appends the pf_trace_* ring-health families for `hub` to an exposition in
// progress: stream totals plus a pf_trace_ring_utilization{ring="worker-N"}
// occupancy gauge and per-ring eviction counter for every ring that exists
// (rings allocate lazily on a worker's first emission). The one source of
// truth for these family/help strings — Engine::MetricsText() is the only
// caller, so every surface that serves an exposition agrees.
void WriteRingFamilies(PromWriter& w, const TraceHub& hub);

// "drop" / "drop(audited)" / "accept" from record flags.
std::string VerdictString(const TraceRecord& rec);

}  // namespace pf::trace

#endif  // SRC_TRACE_EXPORT_H_
