#include "src/audit/hub.h"

#include <algorithm>

namespace pf::audit {

std::string_view KindName(Kind k) {
  switch (k) {
    case Kind::kDeny:
      return "deny";
    case Kind::kAuditedDeny:
      return "audited_deny";
    case Kind::kLogHit:
      return "log";
    case Kind::kPhase:
      return "phase";
    case Kind::kCount:
      break;
  }
  return "unknown";
}

std::string_view TierName(Tier t) {
  switch (t) {
    case Tier::kCompiled:
      return "compiled";
    case Tier::kCount:
      break;
  }
  return "unknown";
}

void AuditHub::Enable(const Config& cfg) {
  {
    std::lock_guard<std::mutex> lock(agg_mu_);
    config_ = cfg;
  }
  kinds_.store(cfg.kinds, std::memory_order_relaxed);
  timed_.store(cfg.timed, std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_release);
}

void AuditHub::Disable() { enabled_.store(false, std::memory_order_release); }

AuditRing* AuditHub::AllocateRing(size_t worker) {
  std::lock_guard<std::mutex> lock(alloc_mu_);
  AuditRing* existing = rings_[worker].load(std::memory_order_acquire);
  if (existing != nullptr) {
    return existing;  // another emitter won the race
  }
  size_t capacity = trace::kDefaultRingCapacity;
  {
    std::lock_guard<std::mutex> cfg_lock(agg_mu_);
    capacity = config_.ring_capacity;
  }
  owned_.push_back(std::make_unique<AuditRing>(capacity));
  AuditRing* ring = owned_.back().get();
  rings_[worker].store(ring, std::memory_order_release);
  return ring;
}

bool AuditHub::Emit(size_t worker, AuditRecord rec) {
  if ((kinds() & KindBit(static_cast<Kind>(rec.kind))) == 0) {
    return false;
  }
  emitted_.fetch_add(1, std::memory_order_relaxed);

  // Aggregate: window rotation, anomaly flag, token bucket. Everything here
  // is off the authorize fast path by construction — only actual security
  // events reach it.
  {
    AggKey key{rec.chain_id, rec.rule_index, rec.subject_sid,
               (rec.flags & kFlagEptValid) != 0 ? rec.ept_ino : 0,
               (rec.flags & kFlagEptValid) != 0 ? rec.ept_offset : 0};
    std::lock_guard<std::mutex> lock(agg_mu_);
    KeyState& st = windows_[key];
    if (!st.seen) {  // first sighting of this key
      st.seen = true;
      st.tokens = static_cast<double>(config_.bucket_capacity);
      st.refill_ns = rec.ts_ns;
      st.window_start_ns = rec.ts_ns;
    }

    // Sliding deny-rate window: rotate when the current window elapsed. A
    // gap of more than one full window zeroes the trailing count (the spike
    // baseline is "the immediately preceding window", not ancient history).
    if (config_.window_ns > 0 && rec.ts_ns >= st.window_start_ns + config_.window_ns) {
      const uint64_t gap = (rec.ts_ns - st.window_start_ns) / config_.window_ns;
      st.trailing_count = gap == 1 ? st.window_count : 0;
      st.window_start_ns += gap * config_.window_ns;
      if (st.anomaly) {
        st.anomaly = false;
      }
      st.window_count = 0;
    }
    ++st.window_count;
    ++st.total;
    if (st.window_count >= config_.spike_min &&
        static_cast<double>(st.window_count) >
            config_.spike_factor * static_cast<double>(std::max<uint64_t>(
                                       st.trailing_count, 1))) {
      if (!st.anomaly) {
        st.anomaly = true;
        anomalies_.fetch_add(1, std::memory_order_relaxed);
      }
      rec.flags |= kFlagAnomaly;
    }

    // Token bucket: refill by elapsed time, admit while a token remains.
    if (config_.bucket_capacity > 0) {
      if (rec.ts_ns > st.refill_ns) {
        st.tokens += static_cast<double>(rec.ts_ns - st.refill_ns) * 1e-9 *
                     static_cast<double>(config_.refill_per_sec);
        st.tokens = std::min(st.tokens, static_cast<double>(config_.bucket_capacity));
        st.refill_ns = rec.ts_ns;
      }
      if (st.tokens < 1.0) {
        ++st.suppressed_total;
        ++st.pending_suppressed;
        suppressed_.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      st.tokens -= 1.0;
      if (st.pending_suppressed > 0) {
        rec.suppressed = st.pending_suppressed;
        rec.flags |= kFlagSuppressedTail;
        st.pending_suppressed = 0;
      }
    }
  }

  // Workers past kMaxWorkers share the overflow lane, one push at a time.
  std::unique_lock<std::mutex> overflow;
  if (worker >= kMaxWorkers) {
    worker = kMaxWorkers;
    overflow = std::unique_lock<std::mutex>(overflow_mu_);
  }
  AuditRing* ring = rings_[worker].load(std::memory_order_acquire);
  if (ring == nullptr) {
    ring = AllocateRing(worker);
  }
  ring->Push(rec);
  return true;
}

std::vector<AuditRecord> AuditHub::Drain() {
  std::vector<AuditRecord> out;
  for (size_t w = 0; w < kLanes; ++w) {
    AuditRing* ring = rings_[w].load(std::memory_order_acquire);
    if (ring == nullptr) {
      continue;
    }
    AuditRecord rec;
    while (ring->Pop(&rec)) {
      out.push_back(rec);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const AuditRecord& a, const AuditRecord& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  drained_.fetch_add(out.size(), std::memory_order_relaxed);
  return out;
}

uint64_t AuditHub::records() const {
  uint64_t sum = 0;
  for (size_t w = 0; w < kLanes; ++w) {
    const AuditRing* ring = rings_[w].load(std::memory_order_acquire);
    if (ring != nullptr) {
      sum += ring->pushed();
    }
  }
  return sum;
}

uint64_t AuditHub::ring_drops() const {
  uint64_t sum = 0;
  for (size_t w = 0; w < kLanes; ++w) {
    const AuditRing* ring = rings_[w].load(std::memory_order_acquire);
    if (ring != nullptr) {
      sum += ring->drops();
    }
  }
  return sum;
}

std::vector<KeyWindow> AuditHub::WindowSnapshot() const {
  std::vector<KeyWindow> out;
  {
    std::lock_guard<std::mutex> lock(agg_mu_);
    out.reserve(windows_.size());
    for (const auto& [key, st] : windows_) {
      out.push_back({key, st.total, st.suppressed_total, st.window_count,
                     st.trailing_count, st.anomaly});
    }
  }
  std::stable_sort(out.begin(), out.end(), [](const KeyWindow& a, const KeyWindow& b) {
    return a.total > b.total;
  });
  return out;
}

void AuditHub::ResetAggregator() {
  std::lock_guard<std::mutex> lock(agg_mu_);
  windows_.clear();
}

}  // namespace pf::audit
