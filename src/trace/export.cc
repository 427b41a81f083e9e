#include "src/trace/export.h"

#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "src/sim/label.h"
#include "src/sim/lsm.h"

namespace pf::trace {

namespace {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

Event EventOf(const TraceRecord& rec) {
  return rec.event < static_cast<uint8_t>(Event::kCount) ? static_cast<Event>(rec.event)
                                                         : Event::kCount;
}

Path PathOf(const TraceRecord& rec) {
  return rec.path < static_cast<uint8_t>(Path::kCount) ? static_cast<Path>(rec.path)
                                                       : Path::kCount;
}

}  // namespace

std::string NameTable::SidName(uint32_t sid) const {
  if (labels != nullptr) {
    return labels->Name(static_cast<sim::Sid>(sid));
  }
  return "sid:" + std::to_string(sid);
}

std::string NameTable::OpName(uint32_t op) {
  if (op < sim::kOpCount) {
    return std::string(sim::OpName(static_cast<sim::Op>(op)));
  }
  return "op:" + std::to_string(op);
}

std::string VerdictString(const TraceRecord& rec) {
  if ((rec.flags & kFlagDrop) == 0) {
    return "accept";
  }
  return (rec.flags & kFlagAudited) != 0 ? "drop(audited)" : "drop";
}

std::string RenderText(const std::vector<TraceRecord>& records, const NameTable& names) {
  std::ostringstream out;
  char buf[64];
  for (const TraceRecord& rec : records) {
    std::snprintf(buf, sizeof(buf), "[%" PRIu64 ".%09" PRIu64 "] w%02u %-9s",
                  rec.ts_ns / uint64_t{1000000000}, rec.ts_ns % uint64_t{1000000000},
                  static_cast<unsigned>(rec.worker),
                  std::string(EventName(EventOf(rec))).c_str());
    out << buf << " op=" << NameTable::OpName(rec.op);
    switch (EventOf(rec)) {
      case Event::kDecision:
        out << " subj=" << names.SidName(rec.subject_sid)
            << " obj=" << names.SidName(rec.object_sid) << " verdict=" << VerdictString(rec)
            << " path=" << PathName(PathOf(rec));
        if (rec.chain_id >= 0) {
          out << " chain=" << rec.chain_id << " rule=" << rec.rule_index;
        }
        out << " ctx=" << rec.ctx_ns << "ns eval=" << rec.eval_ns
            << "ns total=" << rec.total_ns << "ns";
        if ((rec.flags & kFlagEptValid) != 0) {
          std::snprintf(buf, sizeof(buf), " ept=%u:%" PRIu64 "+0x%" PRIx64, rec.ept_dev,
                        rec.ept_ino, rec.ept_offset);
          out << buf;
        }
        break;
      case Event::kRule:
        out << " chain=" << rec.chain_id << " rule=" << rec.rule_index
            << " verdict=" << VerdictString(rec) << " eval=" << rec.eval_ns << "ns";
        break;
      case Event::kCtxFetch:
        std::snprintf(buf, sizeof(buf), " mask=0x%x", static_cast<uint32_t>(rec.chain_id));
        out << buf << " fetch=" << rec.eval_ns << "ns";
        break;
      case Event::kCount:
        break;
    }
    out << "\n";
  }
  return out.str();
}

std::string RenderJsonLines(const std::vector<TraceRecord>& records, const NameTable& names) {
  std::ostringstream out;
  for (const TraceRecord& rec : records) {
    out << "{\"ts_ns\":" << rec.ts_ns << ",\"worker\":" << rec.worker << ",\"event\":\""
        << EventName(EventOf(rec)) << "\",\"op\":\"" << JsonEscape(NameTable::OpName(rec.op))
        << "\",\"subject\":\"" << JsonEscape(names.SidName(rec.subject_sid))
        << "\",\"object\":\"" << JsonEscape(names.SidName(rec.object_sid)) << "\",\"verdict\":\""
        << VerdictString(rec) << "\",\"path\":\"" << PathName(PathOf(rec))
        << "\",\"chain\":" << rec.chain_id
        << ",\"rule\":" << rec.rule_index << ",\"ctx_ns\":" << rec.ctx_ns
        << ",\"eval_ns\":" << rec.eval_ns << ",\"total_ns\":" << rec.total_ns
        << ",\"ept_valid\":" << (((rec.flags & kFlagEptValid) != 0) ? "true" : "false")
        << ",\"ept_dev\":" << rec.ept_dev << ",\"ept_ino\":" << rec.ept_ino
        << ",\"ept_offset\":" << rec.ept_offset << "}\n";
  }
  return out.str();
}

std::string RenderChromeTrace(const std::vector<TraceRecord>& records, const NameTable& names) {
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  const uint64_t base = records.empty() ? 0 : records.front().ts_ns;
  bool first = true;
  char buf[64];
  for (const TraceRecord& rec : records) {
    if (!first) {
      out << ",";
    }
    first = false;
    // Complete events; sub-microsecond durations keep three decimals.
    const uint64_t dur_ns =
        EventOf(rec) == Event::kDecision ? rec.total_ns : rec.eval_ns;
    const uint64_t start_ns = rec.ts_ns - base >= dur_ns ? rec.ts_ns - base - dur_ns : 0;
    std::string name = NameTable::OpName(rec.op);
    if (EventOf(rec) == Event::kDecision) {
      name += " [" + VerdictString(rec) + "]";
    } else if (EventOf(rec) == Event::kRule) {
      name += " rule " + std::to_string(rec.chain_id) + ":" + std::to_string(rec.rule_index);
    }
    out << "{\"name\":\"" << JsonEscape(name) << "\",\"cat\":\"" << EventName(EventOf(rec))
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << rec.worker;
    std::snprintf(buf, sizeof(buf), ",\"ts\":%" PRIu64 ".%03" PRIu64 ",\"dur\":%" PRIu64
                                    ".%03" PRIu64,
                  start_ns / 1000, start_ns % 1000, dur_ns / 1000, dur_ns % 1000);
    out << buf;
    out << ",\"args\":{\"subject\":\"" << JsonEscape(names.SidName(rec.subject_sid))
        << "\",\"object\":\"" << JsonEscape(names.SidName(rec.object_sid)) << "\",\"path\":\""
        << PathName(PathOf(rec)) << "\",\"ctx_ns\":" << rec.ctx_ns << ",\"eval_ns\":" << rec.eval_ns << "}}";
  }
  out << "],\"displayTimeUnit\":\"ns\"}";
  return out.str();
}

void WriteRingFamilies(PromWriter& w, const TraceHub& hub) {
  w.Family("pf_trace_records_total", "Trace records emitted into the per-worker rings",
           "counter");
  w.Counter("pf_trace_records_total", {}, hub.records());
  w.Family("pf_trace_drops_total", "Trace records evicted unread from full rings",
           "counter");
  w.Counter("pf_trace_drops_total", {}, hub.drops());
  // Per-ring health, one series per ring that exists. A utilization pinned
  // near 1.0 between scrapes means the eviction counter next to it is about
  // to move: drain more often or grow ring_capacity.
  bool any = false;
  for (size_t wk = 0; wk < TraceHub::kLanes && !any; ++wk) {
    any = hub.ring(wk) != nullptr;
  }
  if (!any) {
    return;
  }
  auto lane = [](size_t wk) {
    return wk < TraceHub::kMaxWorkers ? "worker-" + std::to_string(wk) : std::string("overflow");
  };
  w.Family("pf_trace_ring_utilization",
           "Occupied fraction of each worker's trace ring", "gauge");
  for (size_t wk = 0; wk < TraceHub::kLanes; ++wk) {
    const TraceRing* r = hub.ring(wk);
    if (r == nullptr) {
      continue;
    }
    const size_t cap = r->capacity();
    w.Gauge("pf_trace_ring_utilization", {{"ring", lane(wk)}},
            cap == 0 ? 0.0 : static_cast<double>(r->size()) / static_cast<double>(cap));
  }
  w.Family("pf_trace_ring_drops_total",
           "Trace records evicted unread, by worker ring", "counter");
  for (size_t wk = 0; wk < TraceHub::kLanes; ++wk) {
    const TraceRing* r = hub.ring(wk);
    if (r == nullptr) {
      continue;
    }
    w.Counter("pf_trace_ring_drops_total", {{"ring", lane(wk)}},
              r->drops());
  }
}

}  // namespace pf::trace
