// pftrace record format (DESIGN.md §5e "Observability").
//
// One TraceRecord describes one engine event: a full authorization decision,
// a rule evaluation, or a context fetch. Records are
// fixed-size (64 bytes), trivially copyable, and hold only plain integers —
// no pointers, no strings — so a producer can publish one into a lock-free
// ring with eight relaxed word stores and a consumer in another thread (or a
// post-mortem dump) can interpret it without touching engine state. Name
// resolution (op names, MAC labels) happens at export time (export.h).
//
// This header is dependency-free on purpose: the engine, the ring, the
// exporters, and external tools all agree on exactly this struct.
#ifndef SRC_TRACE_RECORD_H_
#define SRC_TRACE_RECORD_H_

#include <chrono>
#include <cstdint>
#include <string_view>
#include <type_traits>

namespace pf::trace {

// Whether tracing support is compiled into this build. With -DPF_NO_TRACE
// every tracepoint gate folds to constant false and the emission code is
// dead-code-eliminated — the hot path carries not even the relaxed load.
#ifdef PF_NO_TRACE
inline constexpr bool kTraceCompiledIn = false;
#else
inline constexpr bool kTraceCompiledIn = true;
#endif

// Event kinds, one bit each in the hub's enable mask. kDecision is the
// always-cheap default (one record per Authorize that reached a rule base);
// the others are verbose attribution streams for deep dives.
enum class Event : uint8_t {
  kDecision = 0,  // one Authorize: verdict + per-stage ns
  kRule,          // one rule evaluation that produced a verdict
  kCtxFetch,      // one EnsureContext round-trip that fetched something
  kCount,
};

inline constexpr uint32_t EventBit(Event e) {
  return 1u << static_cast<uint32_t>(e);
}
inline constexpr uint32_t kAllEvents = (1u << static_cast<uint32_t>(Event::kCount)) - 1;

// Which evaluator served the decision: the histogram axis of the
// (op × {FULL, COMPILED}) latency matrix.
enum class Path : uint8_t {
  kFull = 0,   // legacy tree-walker traversal
  kCompiled,   // arena-program evaluator traversal
  kCount,
};

inline constexpr size_t kPathCount = static_cast<size_t>(Path::kCount);

std::string_view EventName(Event e);
std::string_view PathName(Path p);

// Record flags.
inline constexpr uint8_t kFlagDrop = 1u << 0;      // verdict was a denial
inline constexpr uint8_t kFlagAudited = 1u << 1;   // denial suppressed (audit)
inline constexpr uint8_t kFlagEptValid = 1u << 2;  // entrypoint fields are set

// One fixed-size trace record. Field use by event kind:
//
//   kDecision  everything below; ctx_ns/eval_ns/total_ns are the per-stage
//              nanoseconds (eval_ns = total - context fetches), chain_id /
//              rule_index name the verdict-producing rule in the compiled
//              program (-1 when the default policy decided or the legacy
//              walker ran).
//   kRule      chain_id/rule_index = the rule, eval_ns = its evaluation ns,
//              flags kFlagDrop when it dropped.
//   kCtxFetch  chain_id = the CtxMask fetched (reused field), eval_ns = ns.
struct TraceRecord {
  uint64_t ts_ns = 0;       // steady-clock ns when the record was emitted
  uint64_t ept_ino = 0;     // entrypoint image inode (kFlagEptValid)
  uint64_t ept_offset = 0;  // entrypoint binary-relative PC
  uint32_t ept_dev = 0;     // entrypoint image device
  uint32_t subject_sid = 0;
  uint32_t object_sid = 0;
  int32_t chain_id = -1;    // compiled-program chain id (see field use above)
  int32_t rule_index = -1;  // rule index within the chain
  uint32_t ctx_ns = 0;      // context-fetch ns (saturating)
  uint32_t eval_ns = 0;     // rule-evaluation ns (saturating)
  uint32_t total_ns = 0;    // whole-decision ns (saturating)
  uint16_t worker = 0;      // producing worker index
  uint8_t op = 0;           // sim::Op of the request
  uint8_t event = 0;        // Event
  uint8_t path = 0;         // Path (kDecision only)
  uint8_t flags = 0;        // kFlag*
  uint8_t reserved[2] = {}; // pad to 64 bytes
};

static_assert(sizeof(TraceRecord) == 64, "one cache line, eight ring words");
static_assert(std::is_trivially_copyable_v<TraceRecord>,
              "ring publication word-copies records");

inline constexpr size_t kRecordWords = sizeof(TraceRecord) / sizeof(uint64_t);

// Monotonic nanosecond clock for record timestamps and stage timing.
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Saturating ns -> uint32 (4.29 s caps a stage; far beyond any real decision).
inline uint32_t ClampNs(uint64_t ns) {
  return ns > 0xffffffffull ? 0xffffffffu : static_cast<uint32_t>(ns);
}

}  // namespace pf::trace

#endif  // SRC_TRACE_RECORD_H_
