#include "perfbench/trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace pf::perfbench {

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kOp: return "op";
    case SpanKind::kSyscall: return "sim.syscall";
    case SpanKind::kAuthorize: return "core.authorize";
    case SpanKind::kHandleRequest: return "apps.handle_request";
    case SpanKind::kPhpInclude: return "apps.php_include";
    case SpanKind::kForkExec: return "sim.fork_exec";
    case SpanKind::kCommit: return "core.commit";
    case SpanKind::kDrain: return "audit.drain";
    default: return "?";
  }
}

void NsHistogram::Add(int64_t ns) {
  ns = std::max<int64_t>(ns, 0);
  if (ns < kExact) {
    ++exact_[static_cast<size_t>(ns)];
  } else {
    overflow_.push_back(ns);
  }
  ++count_;
}

void NsHistogram::Merge(const NsHistogram& other) {
  for (size_t i = 0; i < exact_.size(); ++i) {
    exact_[i] += other.exact_[i];
  }
  overflow_.insert(overflow_.end(), other.overflow_.begin(), other.overflow_.end());
  count_ += other.count_;
}

double NsHistogram::Quantile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  auto rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_)));
  rank = std::clamp<uint64_t>(rank, 1, count_);
  uint64_t seen = 0;
  for (size_t i = 0; i < exact_.size(); ++i) {
    seen += exact_[i];
    if (seen >= rank) {
      return static_cast<double>(i);
    }
  }
  std::vector<int64_t> tail = overflow_;
  size_t k = static_cast<size_t>(rank - seen - 1);
  std::nth_element(tail.begin(), tail.begin() + static_cast<std::ptrdiff_t>(k), tail.end());
  return static_cast<double>(tail[k]);
}

void Tracer::Begin(SpanKind kind) { stack_.push_back({kind, NowNs(), 0}); }

int64_t Tracer::End() {
  const int64_t end = NowNs();
  const Open open = stack_.back();
  stack_.pop_back();
  const int64_t dur = end - open.start_ns;
  SpanTotals& t = totals_[static_cast<size_t>(open.kind)];
  ++t.count;
  t.total_ns += dur;
  t.self_ns += dur - open.child_ns;
  if (!stack_.empty()) {
    stack_.back().child_ns += dur;
  }
  if (log_.size() < kRecordCap) {
    log_.push_back({op_, open.start_ns, end, open.kind});
  }
  return dur;
}

void Tracer::NoteAuthorize(sim::Op op, int64_t ns) {
  SpanTotals& t = by_hook_[static_cast<size_t>(op)];
  ++t.count;
  t.total_ns += ns;
  t.self_ns += ns;
  authorize_ns_.Add(ns);
}

void Tracer::Reset() {
  log_.clear();
  totals_ = {};
  by_hook_ = {};
  authorize_ns_ = NsHistogram();
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const int64_t origin = log_.empty() ? 0 : log_.front().start_ns;
  std::fprintf(f, "{\"traceEvents\":[");
  for (size_t i = 0; i < log_.size(); ++i) {
    const Record& r = log_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"op\":%llu}}",
                 i == 0 ? "" : ",", SpanName(r.kind),
                 static_cast<double>(r.start_ns - origin) / 1e3,
                 static_cast<double>(r.end_ns - r.start_ns) / 1e3,
                 static_cast<unsigned long long>(r.op));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace pf::perfbench
