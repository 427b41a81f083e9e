#include "src/core/unwind.h"

#include <algorithm>

#include "src/sim/mm.h"

namespace pf::core {

using sim::Addr;
using sim::Mapping;
using sim::Mm;
using sim::Task;

namespace {

// Reads one frame record {saved_fp, ret_pc} with validation.
bool ReadRecord(const Mm& mm, Addr at, uint64_t* saved_fp, uint64_t* ret_pc) {
  return mm.ReadU64(at, saved_fp) && mm.ReadU64(at + 8, ret_pc);
}

// Finds the ground-truth (unwind-table) index whose record address is `at`;
// returns -1 if absent.
int FindTableIndex(const Task& task, Addr at) {
  const auto& gt = task.mm.frames();
  for (int i = static_cast<int>(gt.size()) - 1; i >= 0; --i) {
    if (gt[static_cast<size_t>(i)].record == at) {
      return i;
    }
  }
  return -1;
}

// Prologue-scan fallback: search upward (toward older frames) for the next
// plausible frame record — a 16-byte slot whose second word is a return
// address inside some mapped image.
Addr PrologueScan(const Task& task, Addr from) {
  const Mm& mm = task.mm;
  const Addr top = mm.stack_top();
  for (Addr a = from + sim::kFrameRecordSize; a + sim::kFrameRecordSize <= top; a += 8) {
    uint64_t candidate_pc = 0;
    if (!mm.ReadU64(a + 8, &candidate_pc)) {
      break;
    }
    if (candidate_pc != 0 && mm.FindMapping(candidate_pc) != nullptr) {
      return a;
    }
  }
  return sim::kNullAddr;
}

// The validated frame-pointer walk, shared by every entry point: `emit`
// receives each frame, innermost first, and the walk's status is returned.
// Entry points differ only in what their sink keeps, so the checks below
// cannot drift between them.
template <typename Sink>
UnwindStatus WalkUserStack(const Task& task, Sink&& emit) {
  const Mm& mm = task.mm;
  Addr cur = mm.fp();
  if (cur == 0) {
    // No frames at all (kernel thread / not yet set up): empty but valid.
    return UnwindStatus::kOk;
  }
  // Every iteration that continues has emitted exactly one frame, so `n`
  // counts the frames emitted so far.
  for (int n = 0; n < kMaxUnwindFrames; ++n) {
    if (!mm.ContainsUser(cur, sim::kFrameRecordSize)) {
      // FP register or chain points outside the stack: malicious/corrupt.
      return UnwindStatus::kAborted;
    }
    uint64_t saved_fp = 0;
    uint64_t ret_pc = 0;
    if (!ReadRecord(mm, cur, &saved_fp, &ret_pc)) {
      return UnwindStatus::kAborted;
    }
    const Mapping* map = mm.FindMapping(ret_pc);
    if (map == nullptr) {
      // Return address outside every image: stop; what we have so far came
      // from validated records, but treat a first-frame failure as abort.
      return n == 0 ? UnwindStatus::kAborted : UnwindStatus::kTruncated;
    }
    BinFrame frame;
    frame.pc = ret_pc;
    frame.image = map->file;
    frame.offset = ret_pc - map->base;
    emit(frame);

    if (saved_fp == 0) {
      return UnwindStatus::kOk;  // outermost frame reached
    }
    if (mm.ContainsUser(saved_fp, sim::kFrameRecordSize) && saved_fp > cur) {
      // Healthy frame-pointer chain (monotonicity defeats cycle DoS).
      cur = saved_fp;
      continue;
    }

    // Chain broken: the caller's frame was emitted without FP bookkeeping.
    int idx = FindTableIndex(task, cur);
    if (idx > 0) {
      const sim::FrameInfo& caller = task.mm.frames()[static_cast<size_t>(idx) - 1];
      const Mapping* cmap = mm.FindMapping(caller.pc);
      if (cmap != nullptr && cmap->has_eh_info) {
        // Unwind-table path: tables give the exact record location; its
        // *content* is still untrusted user memory, validated next loop.
        uint64_t table_pc = 0;
        if (!mm.ReadU64(caller.record + 8, &table_pc) || table_pc != caller.pc) {
          // Memory no longer matches the tables: tampering detected.
          return UnwindStatus::kAborted;
        }
        cur = caller.record;
        continue;
      }
    }
    // Heuristic path.
    Addr next = PrologueScan(task, cur);
    if (next == sim::kNullAddr) {
      return UnwindStatus::kTruncated;
    }
    cur = next;
  }
  return UnwindStatus::kTruncated;  // frame limit
}

// The validated interpreter-list walk: `emit` receives each record (without
// its script path), innermost first.
template <typename Sink>
UnwindStatus WalkInterpStack(const Task& task, Sink&& emit) {
  const Mm& mm = task.mm;
  Addr node = mm.interp_head();
  for (int n = 0; n < kMaxInterpFrames; ++n) {
    if (node == sim::kNullAddr) {
      return UnwindStatus::kOk;
    }
    if (!mm.ContainsUser(node, 24)) {
      return UnwindStatus::kAborted;
    }
    uint64_t next = 0;
    uint32_t script_id = 0;
    uint32_t line = 0;
    uint32_t lang = 0;
    if (!mm.ReadU64(node, &next) || !mm.CopyFromUser(node + 8, &script_id, 4) ||
        !mm.CopyFromUser(node + 12, &line, 4) || !mm.CopyFromUser(node + 16, &lang, 4)) {
      return UnwindStatus::kAborted;
    }
    InterpRec rec;
    rec.lang = static_cast<sim::InterpLang>(lang);
    rec.script_id = script_id;
    rec.line = line;
    emit(std::move(rec));
    // Arena nodes are bump-allocated: a well-formed list is strictly
    // decreasing in address. This bounds malicious cyclic lists.
    if (next != sim::kNullAddr && next >= node) {
      return UnwindStatus::kAborted;
    }
    node = next;
  }
  return UnwindStatus::kTruncated;
}

}  // namespace

UnwindResult UnwindUserStack(const Task& task) {
  UnwindResult result;
  // One allocation per unwind: the task's frame count is a good size hint
  // (only a hint — the walk trusts nothing but validated reads).
  result.frames.reserve(std::min<size_t>(task.mm.frames().size(), kMaxUnwindFrames));
  result.status =
      WalkUserStack(task, [&result](const BinFrame& f) { result.frames.push_back(f); });
  return result;
}

InnermostFrame UnwindInnermost(const Task& task) {
  InnermostFrame result;
  result.status = WalkUserStack(task, [&result](const BinFrame& f) {
    if (!result.found) {
      result.found = true;
      result.frame = f;
    }
  });
  return result;
}

InterpUnwindResult UnwindInterpStack(const Task& task) {
  InterpUnwindResult result;
  result.status = WalkInterpStack(task, [&](InterpRec&& rec) {
    if (const std::string* path = task.ScriptPath(rec.script_id)) {
      rec.script_path = *path;
    }
    result.frames.push_back(std::move(rec));
  });
  return result;
}

InterpTop UnwindInterpTop(const Task& task) {
  InterpTop result;
  result.status = WalkInterpStack(task, [&result](InterpRec&& rec) {
    if (!result.found) {
      result.found = true;
      result.lang = rec.lang;
      result.script_id = rec.script_id;
    }
  });
  return result;
}

}  // namespace pf::core
