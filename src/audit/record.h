// pfaudit record format (DESIGN.md §5j "Security-event audit pipeline").
//
// One AuditRecord describes one *security event* with full decision
// provenance: a denial (or audit-mode would-be denial), a LOG-target hit, or
// an `@phase` protocol transition. Where a TraceRecord answers "what did the
// engine spend time on", an AuditRecord answers "who attacked what, via
// which binding, caught by which rule, served by which evaluator" — the
// forensic attribution the paper's Table-4 exploit matrix implies but plain
// counters cannot provide.
//
// Records are fixed-size (128 bytes), trivially copyable, and hold only
// plain integers — no pointers, no strings — so the engine can publish one
// into the same lock-free per-worker ring the tracer uses
// (trace::RecordRing) and a consumer thread (pftables --audit, the JSONL
// sink, a test) can interpret it without touching engine state. Name
// resolution (op names, MAC labels) happens at export time (export.h).
//
// This header is dependency-free on purpose, mirroring trace/record.h.
#ifndef SRC_AUDIT_RECORD_H_
#define SRC_AUDIT_RECORD_H_

#include <cstdint>
#include <string_view>
#include <type_traits>

namespace pf::audit {

// Whether audit support is compiled into this build. With -DPF_AUDIT=OFF
// (which defines PF_NO_AUDIT) every emission gate folds to constant false
// and the pipeline is dead-code-eliminated — the hot path carries not even
// the relaxed load, same contract as PF_NO_TRACE.
#ifdef PF_NO_AUDIT
inline constexpr bool kAuditCompiledIn = false;
#else
inline constexpr bool kAuditCompiledIn = true;
#endif

// Security-event kinds, one bit each in the hub's enable mask.
enum class Kind : uint8_t {
  kDeny = 0,      // Authorize returned a denial
  kAuditedDeny,   // audit-only mode: denial recorded, access allowed
  kLogHit,        // a LOG target fired during the decision
  kPhase,         // the task's @phase key transitioned
  kCount,
};

inline constexpr uint32_t KindBit(Kind k) {
  return 1u << static_cast<uint32_t>(k);
}
inline constexpr uint32_t kAllKinds = (1u << static_cast<uint32_t>(Kind::kCount)) - 1;

// Which evaluator served the decision the event belongs to.
enum class Tier : uint8_t {
  kLegacy = 0,  // legacy tree-walker traversal
  kCompiled,    // arena-program evaluator traversal
  kCount,
};

std::string_view KindName(Kind k);
std::string_view TierName(Tier t);

// Record flags.
inline constexpr uint16_t kFlagEptValid = 1u << 0;   // entrypoint fields are set
inline constexpr uint16_t kFlagHasObject = 1u << 1;  // object fields are set
// The aggregator's deny-rate window for this record's key spiked past the
// configured factor of its trailing window when this record was admitted.
inline constexpr uint16_t kFlagAnomaly = 1u << 2;
// This record ends a token-bucket suppression run for its key; `suppressed`
// holds how many records of the run were collapsed into this one.
inline constexpr uint16_t kFlagSuppressedTail = 1u << 3;
// Per-stage ns fields are meaningful (timing was armed for this decision).
inline constexpr uint16_t kFlagTimed = 1u << 4;

// One fixed-size audit record. Field use by kind:
//
//   kDeny /        everything below. chain_id/rule_index name the
//   kAuditedDeny   verdict-producing rule in the compiled program (-1 when
//                  the chain policy decided or the legacy walker ran);
//                  tier says which evaluator served the decision.
//   kLogHit        chain_id/rule_index = the LOG rule (compiled path; -1
//                  from the legacy walker), other fields as for kDeny.
//   kPhase         phase_from/phase_to carry the @phase transition as
//                  PhaseId values; chain_id/rule_index are -1.
//
// The `suppressed` field is written by the aggregator, not the engine: a
// record admitted after a suppression run carries the collapsed count.
struct AuditRecord {
  uint64_t ts_ns = 0;        // steady-clock ns when the record was emitted
  uint64_t generation = 0;   // ruleset generation that served the decision
  uint64_t ept_ino = 0;      // entrypoint image inode (kFlagEptValid)
  uint64_t ept_offset = 0;   // entrypoint binary-relative PC
  uint64_t object_ino = 0;   // object inode number (kFlagHasObject)
  uint64_t object_gen = 0;   // object inode generation (recycling-safe id)
  uint64_t phase_from = 0;   // @phase before the transition (kPhase)
  uint64_t phase_to = 0;     // @phase after the transition (kPhase)
  uint64_t total_ns = 0;     // whole-decision ns (kFlagTimed)
  uint64_t ctx_ns = 0;       // context-fetch share of total_ns (kFlagTimed)
  uint32_t subject_sid = 0;  // MAC label of the acting task
  uint32_t object_sid = 0;   // MAC label of the object (kFlagHasObject)
  uint32_t ept_dev = 0;      // entrypoint image device
  uint32_t object_dev = 0;   // object device (kFlagHasObject)
  int32_t chain_id = -1;     // compiled-program chain id of the matched rule
  int32_t rule_index = -1;   // rule index within that chain
  uint32_t pid = 0;          // acting task id
  uint32_t suppressed = 0;   // records collapsed into this one (aggregator)
  uint16_t flags = 0;        // kFlag*
  uint16_t worker = 0;       // producing worker index
  uint8_t op = 0;            // sim::Op of the request
  uint8_t kind = 0;          // Kind
  uint8_t tier = 0;          // Tier
  uint8_t reserved[5] = {};  // pad to 128 bytes
};

static_assert(sizeof(AuditRecord) == 128, "two cache lines, sixteen ring words");
static_assert(std::is_trivially_copyable_v<AuditRecord>,
              "ring publication word-copies records");

}  // namespace pf::audit

#endif  // SRC_AUDIT_RECORD_H_
