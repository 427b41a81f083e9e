// Spans recorded by the benchmark around its calls into each layer.
//
// Every span is taken in benchmark code: the per-op root, the Proc syscalls
// the benchmark issues itself, the apps entry points, Pftables::Exec,
// AuditHub::Drain, and the Engine::Authorize calls that the PfShim
// (system.h) forwards. Spans of one op share its op id. A span's self time
// is its duration minus the durations of the spans nested inside it.
//
// Aggregates are kept for every span; the span records themselves are kept
// in memory only up to a cap and written out as a Chrome trace at exit.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <string>
#include <vector>

#include "src/sim/lsm.h"

namespace pf::perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// CPU time of the whole process, all threads: wall time minus the time the
// host ran something else on the benchmark's CPU.
inline int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

enum class SpanKind : uint8_t {
  kOp,             // one workload op (root)
  kSyscall,        // a Proc syscall issued by benchmark code
  kAuthorize,      // Engine::Authorize behind the shim
  kHandleRequest,  // apps::Webserver::HandleRequest
  kPhpInclude,     // apps::PhpInterp::Include
  kForkExec,       // fork + execve + waitpid of a CGI child
  kCommit,         // core::Pftables::Exec of a one-rule edit
  kDrain,          // audit::AuditHub::Drain
  kCount,
};
inline constexpr size_t kSpanKinds = static_cast<size_t>(SpanKind::kCount);

const char* SpanName(SpanKind kind);

struct SpanTotals {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};

// Nanosecond histogram: exact below kExact, raw samples above.
class NsHistogram {
 public:
  void Add(int64_t ns);
  void Merge(const NsHistogram& other);
  // Nearest-rank quantile, q in (0, 1]. 0 when empty.
  double Quantile(double q) const;

 private:
  static constexpr int64_t kExact = 1 << 14;
  std::vector<uint32_t> exact_ = std::vector<uint32_t>(kExact, 0);
  std::vector<int64_t> overflow_;
  uint64_t count_ = 0;
};

class Tracer {
 public:
  void set_op(uint64_t op) { op_ = op; }
  void Begin(SpanKind kind);
  // Closes the innermost open span and returns its duration.
  int64_t End();
  // Attributes one shimmed Authorize call to its hook op.
  void NoteAuthorize(sim::Op op, int64_t ns);
  // Drops every aggregate and record (called after warm-up).
  void Reset();

  const SpanTotals& totals(SpanKind kind) const {
    return totals_[static_cast<size_t>(kind)];
  }
  const SpanTotals& by_hook(sim::Op op) const { return by_hook_[static_cast<size_t>(op)]; }
  const NsHistogram& authorize_ns() const { return authorize_ns_; }

  // Writes the recorded spans as a Chrome trace_event file.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Open {
    SpanKind kind;
    int64_t start_ns;
    int64_t child_ns;
  };
  struct Record {
    uint64_t op;
    int64_t start_ns;
    int64_t end_ns;
    SpanKind kind;
  };
  static constexpr size_t kRecordCap = 200000;

  uint64_t op_ = 0;
  std::vector<Open> stack_;
  std::vector<Record> log_;
  std::array<SpanTotals, kSpanKinds> totals_{};
  std::array<SpanTotals, sim::kOpCount> by_hook_{};
  NsHistogram authorize_ns_;
};

// Opens a span for the enclosing scope; a null tracer makes it free.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanKind kind) : tracer_(tracer) {
    if (tracer_ != nullptr) {
      tracer_->Begin(kind);
    }
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->End();
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace pf::perfbench

#endif  // PERFBENCH_TRACE_H_
