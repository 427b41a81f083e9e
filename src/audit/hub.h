// Audit control plane: enablement, per-worker record rings, and the
// sliding-window aggregator (DESIGN.md §5j).
//
// One AuditHub lives in each Engine next to the TraceHub. Disabled it costs
// one relaxed load per Authorize (the same contract as TraceHub::Emit);
// enabled, the engine emits an AuditRecord per security event — denials,
// LOG hits, @phase transitions — through the aggregator, which
//
//   * keeps a deny-rate window per (rule, subject sid, entrypoint) key,
//     flagging records whose current-window rate spikes past a configurable
//     factor of the trailing window (kFlagAnomaly),
//   * rate-limits noisy keys with a token bucket: suppressed records are
//     counted per key and globally, and the first record admitted after a
//     suppression run carries the collapsed count (kFlagSuppressedTail) —
//     the stream never silently loses information, it only collapses runs,
//   * pushes admitted records into the emitting worker's lock-free ring
//     (trace::RecordRing<AuditRecord>), where ring eviction of unread
//     records is itself counted. A ring has one producer: workers at or
//     past kMaxWorkers share one overflow lane (lane kMaxWorkers), whose
//     pushes a mutex serializes.
//
// Conservation contract, tested by tests/audit/audit_pipeline_test.cc:
//   emitted == pushed + suppressed, and pushed == drained + ring_drops +
//   still-buffered. Nothing the engine emits is ever unaccounted for.
#ifndef SRC_AUDIT_HUB_H_
#define SRC_AUDIT_HUB_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/audit/record.h"
#include "src/trace/ring.h"

namespace pf::audit {

using AuditRing = trace::RecordRing<AuditRecord>;

// Aggregation key: the ISSUE's (rule, subject sid, entrypoint) triple. A
// phase record (chain_id = -1) aggregates per (subject, entrypoint).
struct AggKey {
  int32_t chain_id = -1;
  int32_t rule_index = -1;
  uint32_t subject_sid = 0;
  uint64_t ept_ino = 0;
  uint64_t ept_offset = 0;

  bool operator==(const AggKey&) const = default;
};

struct AggKeyHash {
  size_t operator()(const AggKey& k) const {
    uint64_t h = 0x9e3779b97f4a7c15ull;
    auto mix = [&h](uint64_t v) {
      h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    };
    mix((static_cast<uint64_t>(static_cast<uint32_t>(k.chain_id)) << 32) |
        static_cast<uint32_t>(k.rule_index));
    mix(k.subject_sid);
    mix(k.ept_ino);
    mix(k.ept_offset);
    return static_cast<size_t>(h);
  }
};

// One aggregator key's live window state, as exposed by WindowSnapshot()
// (the `pftables --audit` view and the pf_audit_* metrics).
struct KeyWindow {
  AggKey key;
  uint64_t total = 0;            // records admitted for this key
  uint64_t suppressed = 0;       // records collapsed by the token bucket
  uint64_t window_count = 0;     // records in the current window
  uint64_t trailing_count = 0;   // records in the last full window
  bool anomaly = false;          // current window spiked past the trailing one
};

class AuditHub {
 public:
  static constexpr size_t kMaxWorkers = 64;
  static constexpr size_t kLanes = kMaxWorkers + 1;  // plus the overflow lane

  struct Config {
    size_t ring_capacity = trace::kDefaultRingCapacity;
    uint32_t kinds = kAllKinds;  // Kind enable mask (KindBit)
    // Token-bucket suppression per aggregation key: `bucket_capacity` burst
    // records, refilled at `refill_per_sec`. 0 capacity disables suppression.
    uint32_t bucket_capacity = 64;
    uint32_t refill_per_sec = 16;
    // Deny-rate anomaly detection: a key whose current `window_ns` window
    // holds at least `spike_min` records and exceeds `spike_factor` times
    // its trailing window gets kFlagAnomaly on further records.
    uint64_t window_ns = 1'000'000'000ull;
    double spike_factor = 8.0;
    uint64_t spike_min = 16;
    // Arm per-decision stage timing even when tracing is inactive (two
    // steady-clock reads per audited decision; off by default so the
    // audit-enabled hot path stays within the CI overhead gate).
    bool timed = false;
  };

  void Enable(const Config& cfg);
  void Enable() { Enable(Config{}); }
  void Disable();

  // The producer-side gate: one relaxed load. Everything else in this class
  // is only reachable behind it.
  bool enabled() const {
    if constexpr (!kAuditCompiledIn) {
      return false;
    }
    return enabled_.load(std::memory_order_relaxed);
  }
  bool timed() const { return timed_.load(std::memory_order_relaxed); }
  uint32_t kinds() const { return kinds_.load(std::memory_order_relaxed); }

  // Producer side: aggregate (windows, token bucket, anomaly flag) and push
  // into `worker`'s ring, or the overflow lane for a worker index at or past
  // kMaxWorkers. Returns false when the record was suppressed.
  // Callers must have seen enabled(); records whose kind bit is off are
  // dropped silently (not counted as emitted).
  bool Emit(size_t worker, AuditRecord rec);

  // Consumer side: drain every ring, merge-sorted by timestamp.
  std::vector<AuditRecord> Drain();

  // Conservation counters (see the contract above).
  uint64_t emitted() const { return emitted_.load(std::memory_order_relaxed); }
  uint64_t suppressed() const { return suppressed_.load(std::memory_order_relaxed); }
  uint64_t drained() const { return drained_.load(std::memory_order_relaxed); }
  uint64_t records() const;     // pushed into rings, summed over workers
  uint64_t ring_drops() const;  // evicted unread, summed over workers

  // Aggregator view for `pftables --audit` and the metrics families.
  // Non-destructive; ordered by total descending.
  std::vector<KeyWindow> WindowSnapshot() const;
  // Keys currently flagged anomalous.
  uint64_t anomalies() const { return anomalies_.load(std::memory_order_relaxed); }

  // Drops every aggregator window and token bucket (rings are untouched).
  void ResetAggregator();

  // The ring of lane `worker` (kMaxWorkers: the overflow lane), or null if
  // nothing was pushed there.
  const AuditRing* ring(size_t worker) const {
    return worker < kLanes ? rings_[worker].load(std::memory_order_acquire) : nullptr;
  }

 private:
  struct KeyState {
    double tokens = 0;
    uint64_t refill_ns = 0;        // last token refill timestamp
    uint64_t window_start_ns = 0;  // current window origin
    uint64_t window_count = 0;
    uint64_t trailing_count = 0;
    uint64_t total = 0;
    uint64_t suppressed_total = 0;
    uint32_t pending_suppressed = 0;  // run collapsed since the last admit
    bool anomaly = false;
    bool seen = false;  // a ts_ns of 0 is valid, so 0 is not a sentinel
  };

  AuditRing* AllocateRing(size_t worker);

  std::atomic<bool> enabled_{false};
  std::atomic<bool> timed_{false};
  std::atomic<uint32_t> kinds_{kAllKinds};

  Config config_;  // written by Enable() only, read under agg_mu_

  std::array<std::atomic<AuditRing*>, kLanes> rings_{};
  std::vector<std::unique_ptr<AuditRing>> owned_;
  std::mutex alloc_mu_;
  std::mutex overflow_mu_;  // serializes pushes into the overflow lane

  // Aggregator state. Security events are rare by construction (denies, LOG
  // hits, phase flips — never the accept fast path), so one mutex suffices;
  // the hot path never reaches it.
  mutable std::mutex agg_mu_;
  std::unordered_map<AggKey, KeyState, AggKeyHash> windows_;

  std::atomic<uint64_t> emitted_{0};
  std::atomic<uint64_t> suppressed_{0};
  std::atomic<uint64_t> drained_{0};
  std::atomic<uint64_t> anomalies_{0};
};

}  // namespace pf::audit

#endif  // SRC_AUDIT_HUB_H_
