// Kernel-side unwinding of (untrusted) user stacks and interpreter frame
// lists — the entrypoint context module's engine room (paper Section 4.4).
//
// Binary stacks are unwound by walking the frame-pointer chain through the
// task's user memory with validated reads. When the chain is broken (frames
// from images built without frame pointers), the unwinder falls back to
//   (a) unwind-table information, modelled by the task's ground-truth frame
//       list but *cross-validated against user memory* — a process that has
//       scribbled over its frame records is detected and unwinding aborts; or
//   (b) a GDB-style prologue/stack-scan heuristic that searches upward for
//       the next plausible frame record.
// Both a frame-count limit and a monotonicity requirement on the chain bound
// the work a malicious process can induce (no DoS through unwinding).
#ifndef SRC_CORE_UNWIND_H_
#define SRC_CORE_UNWIND_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/task.h"

namespace pf::core {

inline constexpr int kMaxUnwindFrames = 64;
inline constexpr int kMaxInterpFrames = 128;

enum class UnwindStatus {
  kOk,         // walked to the outermost frame
  kTruncated,  // hit the frame limit or lost the chain; prefix is valid
  kAborted,    // inconsistent/malicious state; result must not be trusted
};

// One unwound binary frame. Plain data on purpose: the engine's context
// cache stores it as a few words, and a pathname here would make every copy
// a heap allocation (the mapping at `pc` still names the image when a LOG
// record needs it).
struct BinFrame {
  sim::Addr pc = 0;
  sim::FileId image;        // identity of the mapped binary
  uint64_t offset = 0;      // pc - mapping base (what rules match on)
};

struct UnwindResult {
  UnwindStatus status = UnwindStatus::kAborted;
  std::vector<BinFrame> frames;  // innermost first

  bool usable() const { return status != UnwindStatus::kAborted && !frames.empty(); }
};

// The innermost frame of a user-stack walk, which is all the entrypoint
// context module reads.
struct InnermostFrame {
  UnwindStatus status = UnwindStatus::kAborted;
  bool found = false;  // the walk produced at least one frame
  BinFrame frame;

  bool usable() const { return status != UnwindStatus::kAborted && found; }
};

// One unwound interpreter frame.
struct InterpRec {
  sim::InterpLang lang = sim::InterpLang::kNone;
  uint32_t script_id = 0;
  uint32_t line = 0;
  std::string script_path;  // resolved from the task's script table
};

struct InterpUnwindResult {
  UnwindStatus status = UnwindStatus::kAborted;
  std::vector<InterpRec> frames;  // innermost first
};

// The innermost interpreter record of a walk, by script id (the caller
// resolves the path through the task's script table).
struct InterpTop {
  UnwindStatus status = UnwindStatus::kAborted;
  bool found = false;
  sim::InterpLang lang = sim::InterpLang::kNone;
  uint32_t script_id = 0;

  bool usable() const { return status != UnwindStatus::kAborted && found; }
};

// Unwinds the task's user stack. Never throws; never reads outside the
// task's user region.
UnwindResult UnwindUserStack(const sim::Task& task);

// The same validated walk as UnwindUserStack (the status always agrees, and
// so does the first frame), keeping only the innermost frame: allocates
// nothing.
InnermostFrame UnwindInnermost(const sim::Task& task);

// Walks the interpreter frame list (arena nodes) if the task runs an
// interpreter; empty result with kOk if it does not.
InterpUnwindResult UnwindInterpStack(const sim::Task& task);

// The same walk as UnwindInterpStack, keeping only the innermost record and
// copying no path: allocates nothing.
InterpTop UnwindInterpTop(const sim::Task& task);

}  // namespace pf::core

#endif  // SRC_CORE_UNWIND_H_
