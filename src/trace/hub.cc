#include "src/trace/hub.h"

#include <algorithm>

namespace pf::trace {

std::string_view EventName(Event e) {
  switch (e) {
    case Event::kDecision:
      return "decision";
    case Event::kRule:
      return "rule";
    case Event::kCtxFetch:
      return "ctx_fetch";
    case Event::kCount:
      break;
  }
  return "?";
}

std::string_view PathName(Path p) {
  switch (p) {
    case Path::kCompiled:
      return "COMPILED";
    case Path::kCount:
      break;
  }
  return "?";
}

TraceHub::~TraceHub() {
  for (auto& slot : rings_) {
    delete slot.load(std::memory_order_acquire);
  }
}

TraceRing* TraceHub::AllocateRing(size_t w) {
  std::lock_guard<std::mutex> lock(alloc_mu_);
  TraceRing* ring = rings_[w].load(std::memory_order_acquire);
  if (ring == nullptr) {
    ring = new TraceRing(ring_capacity_);
    rings_[w].store(ring, std::memory_order_release);
  }
  return ring;
}

void TraceHub::EmitOverflow(const TraceRecord& rec) {
  std::lock_guard<std::mutex> lock(overflow_mu_);
  TraceRing* ring = rings_[kMaxWorkers].load(std::memory_order_acquire);
  if (ring == nullptr) {
    ring = AllocateRing(kMaxWorkers);
  }
  ring->Push(rec);
}

uint64_t TraceHub::drops() const {
  uint64_t total = 0;
  for (const auto& slot : rings_) {
    if (const TraceRing* ring = slot.load(std::memory_order_acquire)) {
      total += ring->drops();
    }
  }
  return total;
}

uint64_t TraceHub::records() const {
  uint64_t total = 0;
  for (const auto& slot : rings_) {
    if (const TraceRing* ring = slot.load(std::memory_order_acquire)) {
      total += ring->pushed();
    }
  }
  return total;
}

std::vector<TraceRecord> TraceHub::Drain() {
  std::vector<TraceRecord> out;
  for (auto& slot : rings_) {
    TraceRing* ring = slot.load(std::memory_order_acquire);
    if (ring == nullptr) {
      continue;
    }
    TraceRecord rec;
    while (ring->Pop(&rec)) {
      out.push_back(rec);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceRecord& a, const TraceRecord& b) { return a.ts_ns < b.ts_ns; });
  return out;
}

void TraceHub::ResetHistograms() {
  for (auto& per_op : histograms_) {
    for (auto& h : per_op) {
      h.Reset();
    }
  }
}

}  // namespace pf::trace
