#include "src/core/engine.h"

#include <algorithm>
#include <chrono>

#include "src/core/modules.h"
#include "src/core/verify.h"
#include "src/sim/task.h"

namespace pf::core {

namespace {
constexpr CtxMask kAllCtx = CtxBit(Ctx::kObject) | CtxBit(Ctx::kLinkTarget) |
                            CtxBit(Ctx::kAdversaryAccess) | CtxBit(Ctx::kEntrypoint) |
                            CtxBit(Ctx::kUserStack) | CtxBit(Ctx::kInterpStack);

constexpr auto kRelaxed = std::memory_order_relaxed;

// The decision-scratch machinery below serves two observers: the tracer and
// the audit pipeline. It is compiled in when either is, and compiled out —
// along with every gate that reads it — only when both are off.
constexpr bool kObsCompiledIn = trace::kTraceCompiledIn || audit::kAuditCompiledIn;

// Per-decision tracing scratch, installed on the stack by Authorize and
// published through a thread-local pointer so the stages it calls into
// (EnsureContext, the compiled evaluator) can attribute their cost without
// any signature changes. Null whenever the current decision is not being
// traced — every tracepoint below gates on that single TLS load, and the
// whole mechanism compiles out under PF_NO_TRACE.
struct DecisionScratch {
  uint64_t ctx_ns = 0;       // summed EnsureContext time of this decision
  int32_t chain_id = -1;     // verdict-producing rule
  int32_t rule_index = -1;
  uint16_t worker = 0;
  uint8_t op = 0;
  bool trace_rules = false;      // emit Event::kRule per verdict + rule ns
  bool trace_ctx = false;        // emit Event::kCtxFetch per fetch
  bool time_ctx = false;         // accumulate ctx_ns (clock reads per fetch)
  pf::trace::TraceHub* hub = nullptr;
};

thread_local DecisionScratch* g_scratch = nullptr;

// Per-decision audit scratch, armed by Authorize whenever the audit pipeline
// is enabled. Security events that surface mid-traversal — LOG-target hits,
// `@phase` transitions — are parked here (fixed-size, overflow-counted) and
// materialized into AuditRecords in the decision epilogue, where the serving
// path, timing, and packet provenance are all known. Null whenever the
// current decision is not audited; every hook below gates on that single TLS
// load, and the mechanism compiles out under PF_AUDIT=OFF.
struct AuditScratch {
  static constexpr uint32_t kMaxPending = 4;

  // LOG hits: the kLog handler deposits its RuleRecord identity here just
  // before EmitLog.
  int32_t cur_chain = -1;
  int32_t cur_rule = -1;
  int32_t log_chain[kMaxPending];
  int32_t log_rule[kMaxPending];
  uint32_t log_count = 0;

  // @phase transitions observed by the kStateSet handler.
  int64_t phase_from[kMaxPending];
  int64_t phase_to[kMaxPending];
  uint32_t phase_count = 0;

  AuditScratch* prev = nullptr;

  void NoteLog() {
    if (log_count < kMaxPending) {
      log_chain[log_count] = cur_chain;
      log_rule[log_count] = cur_rule;
    }
    ++log_count;
    cur_chain = -1;
    cur_rule = -1;
  }
  void NotePhase(int64_t from, int64_t to) {
    if (phase_count < kMaxPending) {
      phase_from[phase_count] = from;
      phase_to[phase_count] = to;
    }
    ++phase_count;
  }
};

thread_local AuditScratch* g_audit = nullptr;
}  // namespace

bool IsOutputOp(sim::Op op) {
  switch (op) {
    case sim::Op::kFileWrite:
    case sim::Op::kFileSetattr:
    case sim::Op::kFileCreate:
    case sim::Op::kFileUnlink:
    case sim::Op::kDirAddName:
    case sim::Op::kDirRemoveName:
    case sim::Op::kSocketBind:
    case sim::Op::kSocketSetattr:
      return true;
    default:
      return false;
  }
}

bool IsCreateOp(sim::Op op) {
  return op == sim::Op::kFileCreate || op == sim::Op::kDirAddName ||
         op == sim::Op::kSocketBind;
}

namespace {

// Leased worker indices and the engines whose slots they name.
struct WorkerRegistry {
  std::mutex mu;
  size_t next = 0;
  std::vector<size_t> free;      // indices returned by exited threads
  std::vector<Engine*> engines;  // every live engine
};

WorkerRegistry& Registry() {
  // Never destroyed: threads may exit during static destruction.
  static auto* registry = new WorkerRegistry;
  return *registry;
}

}  // namespace

// One thread's worker index. The destructor runs when the thread exits: it
// empties the thread's slot in every live engine (the thread owns that slot,
// so no decision races the reset), then returns the index. The registry
// lock orders the reset before the next lessee's first pin.
struct WorkerLease {
  size_t index;

  WorkerLease() {
    WorkerRegistry& r = Registry();
    std::lock_guard<std::mutex> lock(r.mu);
    if (r.free.empty()) {
      index = r.next++;
    } else {
      index = r.free.back();
      r.free.pop_back();
    }
  }

  ~WorkerLease() {
    std::vector<std::shared_ptr<const CompiledRuleset>> pins;
    {
      WorkerRegistry& r = Registry();
      std::lock_guard<std::mutex> lock(r.mu);
      for (Engine* engine : r.engines) {
        if (auto pin = engine->ReleaseWorker(index)) {
          pins.push_back(std::move(pin));
        }
      }
      r.free.push_back(index);
    }
    // `pins` frees any generation this thread held last, outside the lock.
  }

  WorkerLease(const WorkerLease&) = delete;
  WorkerLease& operator=(const WorkerLease&) = delete;
};

size_t WorkerIndex() {
  thread_local WorkerLease lease;
  return lease.index;
}

// --- Engine wiring -----------------------------------------------------------

Engine::Engine(sim::Kernel& kernel, EngineConfig config)
    : kernel_(kernel), config_(config) {
  {
    WorkerRegistry& r = Registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.engines.push_back(this);
  }
  // Publish generation 1 (the empty builtin chains). An empty program always
  // verifies, so the commit cannot fail here.
  (void)CommitRuleset();
}

Engine::~Engine() {
  WorkerRegistry& r = Registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.engines.erase(std::find(r.engines.begin(), r.engines.end(), this));
}

Engine* InstallProcessFirewall(sim::Kernel& kernel, EngineConfig config) {
  auto engine = std::make_unique<Engine>(kernel, config);
  Engine* raw = engine.get();
  raw->set_slot(kernel.AddModule(std::move(engine)));
  return raw;
}

namespace {

// Whether a SYSCALL_BEGIN for `nr` can match any rule `nr_mask` describes.
bool NrMayMatch(uint64_t nr_mask, sim::SyscallNr nr) {
  const auto bit = static_cast<uint64_t>(static_cast<int64_t>(nr));
  return bit >= 64 || ((nr_mask >> bit) & 1) != 0;
}

// Pass 2: the load-time verifier (verify.h). The evaluator trusts every
// arena fetch; this pass is where that trust is earned. The lowering pass's
// refusals join the verifier's findings, and CommitRuleset refuses to
// publish a snapshot with errors of either kind.
void VerifySnapshot(CompiledRuleset& snap, const analysis::AnalysisReport& lowering) {
  const auto t0 = std::chrono::steady_clock::now();
  VerifyResult vr = VerifyProgram(snap.program);
  snap.verify_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  for (const analysis::Diagnostic& d : lowering.diagnostics()) {
    vr.report.Add(d);
  }
  snap.verified = vr.ok();
  snap.verify_report = std::move(vr.report);
}

}  // namespace

std::shared_ptr<CompiledRuleset> Engine::CompileRuleset() const {
  auto snap = std::make_shared<CompiledRuleset>();
  snap->rules = ruleset_;  // shares the Rule objects, copies chain structure

  // --- commit-time compilation ---
  // Pass 1: lower the whole generation into the arena-packed program form
  // and its dispatch tables (compile.cc).
  const analysis::AnalysisReport lowering = LowerProgram(*snap);
  // Pass 2: the load-time verifier.
  VerifySnapshot(*snap, lowering);
  return snap;
}

Status Engine::CommitRuleset() { return PublishRuleset(CompileForCommit()); }

std::shared_ptr<CompiledRuleset> Engine::CompileForCommit() {
  // Free the generation the previous commit displaced (see displaced_)
  // outside the lock, and before the next one is built, so a compile never
  // runs with three generations live.
  std::shared_ptr<const CompiledRuleset> displaced;
  {
    std::lock_guard<std::mutex> lock(commit_mu_);
    displaced.swap(displaced_);
  }
  displaced.reset();
  return CompileRuleset();
}

Status Engine::PublishRuleset(std::shared_ptr<CompiledRuleset> snap) {
  if (!snap->verified) {
    // Abort the publish: hook evaluation keeps serving the previous
    // generation, exactly as if the commit never happened. (The staging
    // RuleSet keeps the caller's edit — pftables rolls it back when it holds
    // a --check backup.)
    return Status::Error("program verification failed:\n" +
                         snap->verify_report.RenderText());
  }
  {
    std::lock_guard<std::mutex> lock(commit_mu_);
    snap->generation = generation_.load(kRelaxed) + 1;
    displaced_ = std::move(published_);
    published_ = std::move(snap);
    generation_.store(published_->generation, std::memory_order_release);
  }
  return Status::Ok();
}

const CompiledRuleset& Engine::PinRuleset(size_t worker, EngineStatsBlock& sb,
                                          std::shared_ptr<const CompiledRuleset>* hold) {
  if (worker < kMaxWorkers) {
    WorkerSlot& w = workers_[worker];
    if (w.generation != generation_.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(commit_mu_);
      w.snap = published_;
      w.generation = w.snap->generation;
      sb.Add(Stat::kRulesetRefreshes);
    }
    return *w.snap;
  }
  // Workers beyond the slot capacity fall back to pinning via `hold`.
  std::lock_guard<std::mutex> lock(commit_mu_);
  *hold = published_;
  return **hold;
}

std::shared_ptr<const CompiledRuleset> Engine::ReleaseWorker(size_t index) {
  if (index >= kMaxWorkers) {
    return nullptr;
  }
  WorkerSlot& w = workers_[index];
  w.generation = ~0ull;
  return std::move(w.snap);
}

void Engine::SumBlocks(std::array<uint64_t, kStatCount>& out) const {
  out.fill(0);
  auto add = [&out](const EngineStatsBlock& b) {
    for (size_t i = 0; i < kStatCount; ++i) {
      out[i] += b.counters[i].load(kRelaxed);
    }
  };
  for (const EngineStatsBlock& b : stats_blocks_) {
    add(b);
  }
  add(stats_overflow_);
}

EngineStats Engine::stats() const {
  EngineStats out;
  const uint64_t gen_before = stats_gen_.load(std::memory_order_acquire);
  // The baseline is read before the blocks, and a counter reads 0 where a
  // reset racing this read left the baseline above the sum: a torn
  // snapshot may read low, never wrap.
  std::array<uint64_t, kStatCount> base;
  for (size_t i = 0; i < kStatCount; ++i) {
    base[i] = stats_base_[i].load(kRelaxed);
  }
  std::array<uint64_t, kStatCount> c;
  SumBlocks(c);
  for (size_t i = 0; i < kStatCount; ++i) {
    c[i] = c[i] > base[i] ? c[i] - base[i] : 0;
  }
  auto get = [&c](Stat stat) { return c[static_cast<size_t>(stat)]; };
  out.invocations = get(Stat::kInvocations);
  out.drops = get(Stat::kDrops);
  out.audited_drops = get(Stat::kAuditedDrops);
  out.rules_evaluated = get(Stat::kRulesEvaluated);
  out.ept_chain_hits = get(Stat::kEptChainHits);
  out.unwinds = get(Stat::kUnwinds);
  out.unwind_cache_hits = get(Stat::kUnwindCacheHits);
  out.ruleset_refreshes = get(Stat::kRulesetRefreshes);
  for (size_t i = 0; i < out.ctx_fetches.size(); ++i) {
    out.ctx_fetches[i] = get(CtxFetchStat(static_cast<Ctx>(i)));
  }
  out.trace_records = trace_.records();
  out.trace_drops = trace_.drops();
  out.audit_emitted = audit_.emitted();
  out.audit_records = audit_.records();
  out.audit_suppressed = audit_.suppressed();
  out.audit_ring_drops = audit_.ring_drops();
  const uint64_t gen_after = stats_gen_.load(std::memory_order_acquire);
  out.stats_generation = gen_after;
  out.torn = (gen_after & 1) != 0 || gen_after != gen_before;
  return out;
}

void Engine::ResetStats() {
  BeginCounterMutation();
  std::array<uint64_t, kStatCount> now;
  SumBlocks(now);
  for (size_t i = 0; i < kStatCount; ++i) {
    stats_base_[i].store(now[i], kRelaxed);
  }
  EndCounterMutation();
}

// --- per-task state ----------------------------------------------------------

size_t Engine::slot() {
  size_t s = slot_.load(std::memory_order_acquire);
  if (s == kNoSlot) [[unlikely]] {
    // Never registered: claim a slot of its own. Of two racing first uses,
    // the loser's reservation stays unused.
    const size_t fresh = kernel_.ReserveSecuritySlot();
    if (slot_.compare_exchange_strong(s, fresh, std::memory_order_acq_rel)) {
      s = fresh;
    }
  }
  return s;
}

PfTaskState& Engine::TaskState(sim::Task& task) {
  // The state is created exactly once, inside call_once, which then
  // publishes its address with release: every later touch is one acquire
  // load, and only the first touches of a task pay for call_once.
  const size_t s = slot();
  if (void* ready = task.security_ready[s].load(std::memory_order_acquire)) [[likely]] {
    return *static_cast<PfTaskState*>(ready);
  }
  std::call_once(task.security_once[s], [&task, s] {
    task.security[s] = std::make_shared<PfTaskState>();
    task.security_ready[s].store(task.security[s].get(), std::memory_order_release);
  });
  return *static_cast<PfTaskState*>(task.security_ready[s].load(std::memory_order_acquire));
}

void Engine::OnTaskExit(sim::Task& task) {
  // Frees the dictionary and empties the context cache. The emptied
  // PfTaskState stays in the slot until the task itself is freed, so a late
  // hook finds an empty state rather than a dangling one.
  PfTaskState& state = TaskState(task);
  {
    std::lock_guard<std::mutex> lock(state.mu);
    state.dict.clear();
  }
  state.ClearContextCache();
}

void Engine::OnTaskFork(sim::Task& parent, sim::Task& child) {
  // The STATE dictionary follows the process across fork (context caches do
  // not: the child's first access re-unwinds its own stack).
  PfTaskState& from = TaskState(parent);
  std::map<std::string, int64_t> dict;
  {
    std::lock_guard<std::mutex> lock(from.mu);
    dict = from.dict;
  }
  if (!dict.empty()) {
    TaskState(child).dict = std::move(dict);
  }
}

void Engine::OnTaskExec(sim::Task& task) {
  // execve replaces the image: cached unwinds describe a dead address space.
  // (The serial check would also reject them on the next syscall; emptying
  // the cache here keeps even same-syscall hooks from seeing pre-exec frames.)
  TaskState(task).ClearContextCache();
}

// --- context modules ---------------------------------------------------------

void Engine::FetchObject(Packet& pkt, EngineStatsBlock& sb) {
  sb.Add(CtxFetchStat(Ctx::kObject));
  sim::AccessRequest& req = *pkt.req;
  if (req.inode != nullptr) {
    pkt.has_object = true;
    pkt.object_sid = req.inode->sid;
    pkt.object_id = req.id;
    pkt.object_generation = req.inode->generation;
    pkt.object_owner = req.inode->uid;
  }
  pkt.Mark(Ctx::kObject);
}

void Engine::FetchLinkTarget(Packet& pkt, EngineStatsBlock& sb) {
  sb.Add(CtxFetchStat(Ctx::kLinkTarget));
  sim::AccessRequest& req = *pkt.req;
  if (req.op == sim::Op::kLnkFileRead && req.inode != nullptr) {
    pkt.link_owner = req.inode->uid;
    if (req.link_target != nullptr) {
      pkt.has_link_target = true;
      pkt.link_target_owner = req.link_target->uid;
      pkt.link_target_sid = req.link_target->sid;
      pkt.link_target_id = req.link_target->id();
    }
  }
  pkt.Mark(Ctx::kLinkTarget);
}

void Engine::FetchAdversaryAccess(Packet& pkt, EngineStatsBlock& sb) {
  if (!pkt.Has(Ctx::kObject)) {
    FetchObject(pkt, sb);
  }
  sb.Add(CtxFetchStat(Ctx::kAdversaryAccess));
  if (pkt.has_object) {
    const sim::MacPolicy& pol = kernel_.policy();
    pkt.adversary_writable = pol.AdversaryWritable(pkt.object_sid);
    pkt.adversary_readable = pol.AdversaryReadable(pkt.object_sid);
  }
  pkt.Mark(Ctx::kAdversaryAccess);
}

PfTaskState* Engine::ContextCache(sim::Task& task) {
  return config_.cache_context && task.syscall_depth > 0 ? &TaskState(task) : nullptr;
}

void Engine::FetchStack(Packet& pkt, EngineStatsBlock& sb) {
  sb.Add(CtxFetchStat(Ctx::kEntrypoint));
  sim::Task& task = *pkt.req->task;
  PfTaskState* cache = ContextCache(task);
  CachedFrame entry;
  if (cache != nullptr && cache->stack.Load(&entry) && entry.serial == task.syscall_count) {
    sb.Add(Stat::kUnwindCacheHits);
  } else {
    // A miss, a torn read, or an entry of an earlier system call.
    sb.Add(Stat::kUnwinds);
    const InnermostFrame top = UnwindInnermost(task);
    entry.serial = task.syscall_count;
    entry.valid = top.usable() ? 1 : 0;
    entry.frame = top.frame;
    if (cache != nullptr) {
      // Skipped while another hook on this task publishes: its unwind is as
      // valid as this one.
      cache->stack.TryStore(entry);
    }
  }
  if (entry.valid != 0) {
    pkt.entrypoint_valid = true;
    pkt.entrypoint = entry.frame;
  }
  pkt.Mark(Ctx::kEntrypoint);
  pkt.Mark(Ctx::kUserStack);
}

void Engine::FetchInterp(Packet& pkt, EngineStatsBlock& sb) {
  sb.Add(CtxFetchStat(Ctx::kInterpStack));
  sim::Task& task = *pkt.req->task;
  PfTaskState* cache = ContextCache(task);
  CachedInterp entry;
  if (cache == nullptr || !cache->interp.Load(&entry) || entry.serial != task.syscall_count) {
    const InterpTop top = UnwindInterpTop(task);
    entry.serial = task.syscall_count;
    entry.valid = top.usable() ? 1 : 0;
    entry.lang = top.lang;
    entry.script_id = top.script_id;
    if (cache != nullptr) {
      cache->interp.TryStore(entry);
    }
  }
  if (entry.valid != 0) {
    pkt.interp_valid = true;
    pkt.interp_lang = entry.lang;
    if (const std::string* path = task.ScriptPath(entry.script_id)) {
      pkt.interp_script = *path;
    }
  }
  pkt.Mark(Ctx::kInterpStack);
}

void Engine::EnsureContext(Packet& pkt, CtxMask mask) {
  CtxMask missing = mask & ~pkt.have;
  if (missing == 0) {
    return;
  }
  // Context-fetch tracepoint: only decisions being traced (or audited) carry
  // a scratch, so the unobserved hot path pays one thread-local load past
  // this point.
  // Timing is opt-in per decision (tracer active, or audit with
  // Config::timed): an armed-but-untimed audit pipeline must not put two
  // clock reads on every allow-path context fetch.
  uint64_t t0 = 0;
  if constexpr (kObsCompiledIn) {
    if (g_scratch != nullptr && g_scratch->time_ctx) {
      t0 = trace::NowNs();
    }
  }
  EngineStatsBlock& sb = *pkt.stats;
  if (missing & CtxBit(Ctx::kObject)) {
    FetchObject(pkt, sb);
  }
  if (missing & CtxBit(Ctx::kLinkTarget)) {
    FetchLinkTarget(pkt, sb);
  }
  if (missing & CtxBit(Ctx::kAdversaryAccess)) {
    FetchAdversaryAccess(pkt, sb);
  }
  if (missing & (CtxBit(Ctx::kEntrypoint) | CtxBit(Ctx::kUserStack))) {
    FetchStack(pkt, sb);
  }
  if (missing & CtxBit(Ctx::kInterpStack)) {
    FetchInterp(pkt, sb);
  }
  if constexpr (kObsCompiledIn) {
    if (DecisionScratch* ds = g_scratch; ds != nullptr && ds->time_ctx) {
      const uint64_t dt = trace::NowNs() - t0;
      ds->ctx_ns += dt;
      if (ds->trace_ctx) {
        trace::TraceRecord rec;
        rec.ts_ns = trace::NowNs();
        rec.worker = ds->worker;
        rec.op = ds->op;
        rec.event = static_cast<uint8_t>(trace::Event::kCtxFetch);
        rec.subject_sid = pkt.req->task->cred.sid;
        rec.chain_id = static_cast<int32_t>(missing);  // fetched CtxMask
        rec.eval_ns = trace::ClampNs(dt);
        ds->hub->Emit(rec);
      }
    }
  }
}

// --- logging -------------------------------------------------------------------

void Engine::EmitLog(Packet& pkt, const std::string& prefix) {
  EnsureContext(pkt, CtxBit(Ctx::kObject) | CtxBit(Ctx::kAdversaryAccess) |
                         CtxBit(Ctx::kEntrypoint));
  const sim::AccessRequest& req = *pkt.req;
  LogRecord rec;
  rec.tick = kernel_.tick();
  rec.pid = req.task->pid;
  rec.comm = req.task->comm;
  rec.exe = req.task->exe;
  rec.op = req.op;
  rec.syscall = std::string(sim::SyscallName(req.syscall_nr));
  rec.subject_label = kernel_.labels().Name(req.task->cred.sid);
  if (pkt.has_object) {
    rec.object_label = kernel_.labels().Name(pkt.object_sid);
    rec.object = pkt.object_id;
  }
  rec.name = std::string(req.name);
  if (pkt.entrypoint_valid) {
    rec.entry_valid = true;
    if (const sim::Mapping* map = req.task->mm.FindMapping(pkt.entrypoint.pc)) {
      rec.program = map->path;
    }
    rec.entrypoint = pkt.entrypoint.offset;
  }
  rec.adversary_writable = pkt.adversary_writable;
  rec.adversary_readable = pkt.adversary_readable;
  rec.prefix = prefix;
  log_.Append(std::move(rec));
  // Audit hook: a LOG fired during an audited decision becomes a kLogHit
  // record in the epilogue. The kLog handler parked its rule identity in
  // cur_chain/cur_rule just before calling here. The audit-drop EmitLog in
  // Authorize runs after the scratch is popped, so a denial never
  // double-reports as a log hit.
  if constexpr (audit::kAuditCompiledIn) {
    if (AuditScratch* as = g_audit) {
      as->NoteLog();
    }
  }
}

// --- program evaluator ------------------------------------------------------------
//
// The engine's one evaluator: an instruction interpreter over the verified
// arena. Builtin matches and targets execute inline from pool operands, and
// their handlers are their only implementation; kMatchNative/kTargetNative
// escape into a native extension module's virtual Matches()/Fire().
//
// The handler bodies live once, in src/core/exec_insn.inc, and are expanded
// into two dispatch strategies:
//
//   * ExecRuleSwitch — a portable switch loop (any C++20 compiler);
//   * ExecRuleThreaded — a computed-goto threaded interpreter (GNU C): each
//     handler fetches the next instruction and jumps *directly* to its
//     handler through a per-function label table, giving every opcode its
//     own indirect branch (its own predictor slot) and no per-iteration
//     loop/bounds re-dispatch.
//
// The bounds-free dispatch (`goto *table[insn.op]` over a 256-entry table,
// raw pool indexing in the handlers) is safe because no program reaches
// this code unverified: Engine::CompileRuleset runs the load-time verifier
// (verify.h) over every compiled program and CommitRuleset refuses to
// publish one whose proof fails — the eBPF contract, transplanted.

Engine::Verdict Engine::ExecRuleSwitch(const CompiledRuleset& rs, const RuleRecord& rec,
                                       uint32_t start, Packet& pkt, int depth) {
  const PfProgram& prog = rs.program;
  const sim::AccessRequest& req = *pkt.req;
  for (uint32_t pc = start; pc < rec.end; pc += kPfInsnWords) {
    const PfInsn insn = prog.Fetch(pc);
    switch (static_cast<PfOp>(insn.op)) {
#define PF_OP(name) case PfOp::name:
#define PF_OP_END break;
#include "src/core/exec_insn.inc"  // NOLINT(bugprone-suspicious-include)
#undef PF_OP
#undef PF_OP_END
    }
  }
  return Verdict::kFallthrough;
}

#if defined(PF_THREADED_DISPATCH) && (defined(__GNUC__) || defined(__clang__))

// GCC's cross-jumping pass would merge the identical PF_NEXT tails back
// into one shared indirect branch, collapsing the per-opcode predictor
// slots threading exists to create; keep the tails distinct.
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((optimize("no-crossjumping")))
#endif
Engine::Verdict Engine::ExecRuleThreaded(const CompiledRuleset& rs, const RuleRecord& rec,
                                         uint32_t start, Packet& pkt, int depth) {
  const PfProgram& prog = rs.program;
  const sim::AccessRequest& req = *pkt.req;
  if (start >= rec.end) {
    return Verdict::kFallthrough;
  }
  // Label table indexed by the raw opcode byte: all 256 values dispatch
  // somewhere, and the values outside the instruction set skip the
  // instruction — exactly the switch loop's no-default behavior. Static:
  // label addresses are constants within the function, so this materializes
  // once at load time.
  static const void* const kDispatch[256] = {
      &&op_invalid,          // 0
      &&op_kRuleBegin,       &&op_kCheckOp,         &&op_kMatchSubject,
      &&op_kEnsureCtx,       &&op_kCheckProgram,    &&op_kCheckEptOff,
      &&op_kCheckIno,        &&op_kMatchObject,     &&op_kMatchState,
      &&op_kMatchSignal,     &&op_kMatchInterp,     &&op_kMatchNative,
      &&op_kAccept,          &&op_kDrop,            &&op_kReturn,
      &&op_kContinue,        &&op_kJump,            &&op_kStateSet,
      &&op_kStateUnset,      &&op_kLog,             &&op_kTargetNative,
      &&op_kMatchStateEq,    &&op_kMatchStateNe,    &&op_kMatchSyscallNrEq,
      &&op_kMatchSyscallNrNe, &&op_kMatchSyscallArgEq, &&op_kMatchSyscallArgNe,
      &&op_kMatchCompareEq,  &&op_kMatchCompareNe,  &&op_kMatchPhase,  // 30 == kPfOpCount - 1
// 225 out-of-range slots (31..255), all skipping the instruction.
#define PF_INVALID8 \
  &&op_invalid, &&op_invalid, &&op_invalid, &&op_invalid, &&op_invalid, &&op_invalid, \
      &&op_invalid, &&op_invalid
      &&op_invalid, &&op_invalid, &&op_invalid, &&op_invalid, &&op_invalid,
      &&op_invalid, &&op_invalid, &&op_invalid, &&op_invalid,
      PF_INVALID8, PF_INVALID8, PF_INVALID8, PF_INVALID8, PF_INVALID8, PF_INVALID8,
      PF_INVALID8, PF_INVALID8, PF_INVALID8, PF_INVALID8, PF_INVALID8, PF_INVALID8,
      PF_INVALID8, PF_INVALID8, PF_INVALID8, PF_INVALID8, PF_INVALID8, PF_INVALID8,
      PF_INVALID8, PF_INVALID8, PF_INVALID8, PF_INVALID8, PF_INVALID8, PF_INVALID8,
      PF_INVALID8,
#undef PF_INVALID8
  };
  static_assert(kPfOpCount == 31, "keep the label table in sync with PfOp");

#define PF_NEXT                          \
  do {                                   \
    pc += kPfInsnWords;                  \
    if (pc >= rec.end) {                 \
      return Verdict::kFallthrough;      \
    }                                    \
    insn = prog.Fetch(pc);               \
    goto* kDispatch[insn.op];            \
  } while (0)

  uint32_t pc = start;
  PfInsn insn = prog.Fetch(pc);
  goto* kDispatch[insn.op];

op_invalid:
  PF_NEXT;

#define PF_OP(name) op_##name:
#define PF_OP_END PF_NEXT;
#include "src/core/exec_insn.inc"  // NOLINT(bugprone-suspicious-include)
#undef PF_OP
#undef PF_OP_END
#undef PF_NEXT
}

#else  // !PF_THREADED_DISPATCH: alias the switch loop so callers need no #if.

Engine::Verdict Engine::ExecRuleThreaded(const CompiledRuleset& rs, const RuleRecord& rec,
                                         uint32_t start, Packet& pkt, int depth) {
  return ExecRuleSwitch(rs, rec, start, pkt, depth);
}

#endif

Engine::Verdict Engine::ExecRule(const CompiledRuleset& rs, const RuleRecord& rec,
                                 uint32_t start, Packet& pkt, int depth) {
  // One predictable branch selects the dispatch strategy; everything the
  // handlers do is shared (exec_insn.inc), so this is an implementation
  // detail, never a semantic fork.
  if (config_.threaded_eval) {
    return ExecRuleThreaded(rs, rec, start, pkt, depth);
  }
  return ExecRuleSwitch(rs, rec, start, pkt, depth);
}

Engine::Verdict Engine::ExecEntries(const CompiledRuleset& rs, uint32_t off, uint32_t len,
                                    bool op_checked, Packet& pkt, int depth) {
  const PfProgram& prog = rs.program;
  const uint32_t* recs = prog.entries.data() + off;
  DecisionScratch* ds = nullptr;
  if constexpr (kObsCompiledIn) {
    ds = g_scratch;
  }
  // rules_evaluated is batched: one counter add per entry list instead of
  // per rule. Every return path below flushes, so the total still counts
  // each rule entered; the per-rule `evals` counter stays per rule —
  // `pftables -L -v` prints it.
  EngineStatsBlock& sb = *pkt.stats;
  uint32_t evals = 0;
  const auto flush = [&] { sb.Add(Stat::kRulesEvaluated, evals); };
  for (uint32_t i = 0; i < len; ++i) {
    const RuleRecord& rec = prog.rules[recs[i]];
    ++evals;
    rec.rule->evals.fetch_add(1, kRelaxed);
    // Bucket lists are op-filtered at compile time, so the kCheckOp guard is
    // a tautology there and evaluation enters past it; entrypoint-index
    // lists keep it (they are selected by (image, offset), not by op).
    const uint32_t start = op_checked ? rec.body : rec.entry + kPfInsnWords;
    Verdict v;
    if (ds != nullptr && ds->trace_rules) {
      // Per-rule attribution: inclusive time (a JUMP rule's span covers the
      // jumped-to chain), accumulated into the rule's eval_ns counter, plus
      // one kRule record whenever the rule produced a verdict.
      const uint64_t t0 = trace::NowNs();
      v = ExecRule(rs, rec, start, pkt, depth);
      const uint64_t dt = trace::NowNs() - t0;
      rec.rule->eval_ns.fetch_add(dt, kRelaxed);
      if (v != Verdict::kFallthrough) {
        trace::TraceRecord tr;
        tr.ts_ns = trace::NowNs();
        tr.worker = ds->worker;
        tr.op = ds->op;
        tr.event = static_cast<uint8_t>(trace::Event::kRule);
        tr.subject_sid = pkt.req->task->cred.sid;
        tr.chain_id = rec.chain_id;
        tr.rule_index = static_cast<int32_t>(rec.chain_index);
        tr.eval_ns = trace::ClampNs(dt);
        if (v == Verdict::kDrop) {
          tr.flags |= trace::kFlagDrop;
        }
        ds->hub->Emit(tr);
      }
    } else {
      v = ExecRule(rs, rec, start, pkt, depth);
    }
    if (v != Verdict::kFallthrough) {
      // First accept/drop wins attribution: with JUMPs the innermost rule
      // that actually decided sets it, and the enclosing JUMP rules (whose
      // ExecRule propagates that verdict) find it already claimed.
      if (ds != nullptr && ds->chain_id < 0 &&
          (v == Verdict::kAccept || v == Verdict::kDrop)) {
        ds->chain_id = rec.chain_id;
        ds->rule_index = static_cast<int32_t>(rec.chain_index);
      }
      flush();
      return v;  // accept, drop, or RETURN to the calling chain
    }
  }
  flush();
  return Verdict::kFallthrough;
}

Engine::Verdict Engine::ExecChain(const CompiledRuleset& rs, const ProgramChain& pc,
                                  Packet& pkt, int depth) {
  if (depth >= kMaxChainDepth) {
    return Verdict::kFallthrough;
  }
  const ProgramBucket& bucket = pc.ops[static_cast<size_t>(pkt.req->op)];
  if (config_.ept_chains) {
    if (bucket.plain_len != 0) {
      Verdict v = ExecEntries(rs, bucket.plain_off, bucket.plain_len,
                              /*op_checked=*/true, pkt, depth);
      if (v != Verdict::kFallthrough) {
        return v;
      }
    }
    if (bucket.has_indexed) {
      EnsureContext(pkt, CtxBit(Ctx::kEntrypoint));
      if (pkt.entrypoint_valid) {
        const EptItem* hit = pc.ept.Find(EptKey{pkt.entrypoint.image, pkt.entrypoint.offset});
        if (hit != nullptr) {
          pkt.stats->Add(Stat::kEptChainHits);
          return ExecEntries(rs, hit->off, hit->len, /*op_checked=*/false, pkt, depth);
        }
      }
    }
    return Verdict::kFallthrough;
  }
  return ExecEntries(rs, bucket.all_off, bucket.all_len, /*op_checked=*/true, pkt,
                     depth);
}

Engine::Verdict Engine::RunRootChain(const CompiledRuleset& rs, const ProgramChain& pc,
                                     Packet& pkt) {
  Verdict v = ExecChain(rs, pc, pkt, 0);
  if (v == Verdict::kReturn) {
    v = Verdict::kFallthrough;
  }
  if (v == Verdict::kFallthrough && pc.policy_drop) {
    v = Verdict::kDrop;
  }
  return v;
}

size_t ApplicableChains(const CompiledRuleset& rs, const sim::AccessRequest& req,
                        const ProgramChain* out[3]) {
  const PfProgram& prog = rs.program;
  const size_t op_index = static_cast<size_t>(req.op);
  size_t n = 0;
  auto consider = [&](int32_t id) {
    if (id < 0) {
      return;
    }
    const ProgramChain& pc = prog.chains[static_cast<size_t>(id)];
    if (((pc.op_mask >> op_index) & 1) != 0 || pc.policy_drop) {
      out[n++] = &pc;
    }
  };
  if (req.op == sim::Op::kSyscallBegin) {
    if (prog.root_syscallbegin >= 0 &&
        NrMayMatch(prog.chains[static_cast<size_t>(prog.root_syscallbegin)].nr_mask,
                   req.syscall_nr)) {
      consider(prog.root_syscallbegin);
    }
    return n;
  }
  // Creation operations consult the create chain first (template T2),
  // write-type operations additionally the output chain, then everything
  // falls through to input.
  if (IsCreateOp(req.op)) {
    consider(prog.root_create);
  }
  if (IsOutputOp(req.op)) {
    consider(prog.root_output);
  }
  consider(prog.root_input);
  return n;
}

int64_t Engine::Authorize(sim::AccessRequest& req) {
  if (!config_.enabled || req.task == nullptr) {
    return 0;
  }
  // The one worker lookup of the decision: every counter bump below, and
  // the context fetches through pkt.stats, use this block.
  const size_t worker = WorkerIndex();
  EngineStatsBlock& sb = StatsBlock(worker);
  sb.Add(Stat::kInvocations);
  std::shared_ptr<const CompiledRuleset> hold;
  const CompiledRuleset& rs = PinRuleset(worker, sb, &hold);

  const ProgramChain* applicable[3];
  const size_t num_applicable = ApplicableChains(rs, req, applicable);
  if (num_applicable == 0) {
    return 0;  // fast-path allow: never traced (no Packet, no rule base work)
  }

  // --- decision tracepoint, prologue. Disabled tracing costs one relaxed
  // load of the event mask here; PF_NO_TRACE removes even that.
  DecisionScratch scratch;
  DecisionScratch* prev_scratch = nullptr;
  bool trace_decision = false;
  bool trace_active = false;
  uint64_t t_start = 0;
  [[maybe_unused]] bool obs_timed = false;
  if constexpr (trace::kTraceCompiledIn) {
    const uint32_t ev = trace_.events();
    if (ev != 0 && ((trace_.op_filter() >> (static_cast<uint32_t>(req.op) &
                                            (trace::TraceHub::kMaxOps - 1))) &
                    1) != 0) {
      trace_decision = (ev & trace::EventBit(trace::Event::kDecision)) != 0;
      scratch.trace_rules = (ev & trace::EventBit(trace::Event::kRule)) != 0;
      scratch.trace_ctx = (ev & trace::EventBit(trace::Event::kCtxFetch)) != 0;
      trace_active = trace_decision || scratch.trace_rules || scratch.trace_ctx;
      if (trace_active) {
        // A worker past the hub's rings names its overflow lane.
        scratch.worker = static_cast<uint16_t>(std::min(worker, trace::TraceHub::kMaxWorkers));
        scratch.op = static_cast<uint8_t>(req.op);
        scratch.time_ctx = true;
        scratch.hub = &trace_;
        prev_scratch = g_scratch;
        g_scratch = &scratch;
        t_start = trace::NowNs();
        obs_timed = true;
      }
    }
  }

  // --- audit prologue. Attribution (verdict-producing rule, context time)
  // rides on the same DecisionScratch the tracer installs, so an audited but
  // untraced decision installs one too: its trace flags stay false and its
  // hub stays null, so no trace records can be emitted through it. Stage
  // timing is only armed when the hub asks for it (Config::timed) — the
  // default audited decision reads the clock once, at emission.
  AuditScratch audit_scratch;
  [[maybe_unused]] bool audit_active = false;
  if constexpr (audit::kAuditCompiledIn) {
    if (audit_.enabled()) {
      audit_active = true;
      audit_scratch.prev = g_audit;
      g_audit = &audit_scratch;
      if (!trace_active) {
        // No worker/op setup here: an audited-only decision resolves its
        // worker lane at emission time, so the (dominant) allow path pays
        // only the two TLS installs.
        prev_scratch = g_scratch;
        g_scratch = &scratch;
        if (audit_.timed()) {
          scratch.time_ctx = true;
          t_start = trace::NowNs();
          obs_timed = true;
        }
      }
    }
  }

  Packet pkt;
  pkt.req = &req;
  pkt.stats = &sb;
  if (!config_.lazy_context) {
    EnsureContext(pkt, kAllCtx);
  }

  Verdict verdict = Verdict::kFallthrough;
  for (size_t i = 0; i < num_applicable && verdict == Verdict::kFallthrough; ++i) {
    verdict = RunRootChain(rs, *applicable[i], pkt);
  }
  const bool drop = verdict == Verdict::kDrop;

  // --- observer epilogue: pop the shared scratch (installed by whichever of
  // the two prologues armed it) and close the decision's timing window.
  [[maybe_unused]] uint64_t total = 0;
  if constexpr (kObsCompiledIn) {
    if (trace_active || audit_active) {
      g_scratch = prev_scratch;
      if (obs_timed) {
        total = trace::NowNs() - t_start;
      }
    }
  }

  // --- decision tracepoint, epilogue: histogram sample + one kDecision
  // record covering context fetch and traversal of this request.
  if constexpr (trace::kTraceCompiledIn) {
    if (trace_decision) {
      trace_.RecordLatency(static_cast<uint32_t>(req.op), trace::Path::kCompiled, total);
      trace::TraceRecord rec;
      rec.ts_ns = trace::NowNs();
      rec.worker = scratch.worker;
      rec.op = scratch.op;
      rec.event = static_cast<uint8_t>(trace::Event::kDecision);
      rec.path = static_cast<uint8_t>(trace::Path::kCompiled);
      rec.subject_sid = req.task->cred.sid;
      rec.object_sid = pkt.has_object ? pkt.object_sid : sim::kInvalidSid;
      rec.chain_id = scratch.chain_id;
      rec.rule_index = scratch.rule_index;
      rec.ctx_ns = trace::ClampNs(scratch.ctx_ns);
      rec.total_ns = trace::ClampNs(total);
      rec.eval_ns = trace::ClampNs(total >= scratch.ctx_ns ? total - scratch.ctx_ns : 0);
      if (drop) {
        rec.flags |= trace::kFlagDrop;
        if (config_.audit_only) {
          rec.flags |= trace::kFlagAudited;
        }
      }
      if (pkt.entrypoint_valid) {
        rec.flags |= trace::kFlagEptValid;
        rec.ept_dev = pkt.entrypoint.image.dev;
        rec.ept_ino = pkt.entrypoint.image.ino;
        rec.ept_offset = pkt.entrypoint.offset;
      }
      trace_.Emit(rec);
    }
  }

  // --- audit epilogue: materialize this decision's security events with
  // full provenance. Runs after the scratch pop on purpose — the audit-mode
  // EmitLog in the verdict tail below must not double-report as a kLogHit.
  if constexpr (audit::kAuditCompiledIn) {
    if (audit_active) {
      g_audit = audit_scratch.prev;
      // Stack-local event check before anything shared: an allow that saw no
      // mid-traversal events — the hot path — pays no atomic load here (a
      // kind mask of 0 zeroes every event count below).
      const bool any_event = drop || audit_scratch.phase_count != 0 ||
                             audit_scratch.log_count != 0;
      const uint32_t kinds = any_event ? audit_.kinds() : 0;
      const bool deny_event =
          drop && (kinds & audit::KindBit(config_.audit_only
                                              ? audit::Kind::kAuditedDeny
                                              : audit::Kind::kDeny)) != 0;
      const uint32_t n_phase =
          (kinds & audit::KindBit(audit::Kind::kPhase)) != 0
              ? std::min(audit_scratch.phase_count, AuditScratch::kMaxPending)
              : 0;
      const uint32_t n_log =
          (kinds & audit::KindBit(audit::Kind::kLogHit)) != 0
              ? std::min(audit_scratch.log_count, AuditScratch::kMaxPending)
              : 0;
      if (deny_event || n_phase != 0 || n_log != 0) {
        const size_t w = std::min(worker, audit::AuditHub::kMaxWorkers);
        audit::AuditRecord base;
        base.ts_ns = trace::NowNs();
        base.generation = rs.generation;
        base.subject_sid = req.task->cred.sid;
        base.pid = static_cast<uint32_t>(req.task->pid);
        base.worker = static_cast<uint16_t>(w);
        base.op = static_cast<uint8_t>(req.op);
        base.tier = static_cast<uint8_t>(audit::Tier::kCompiled);
        if (req.inode != nullptr) {
          base.flags |= audit::kFlagHasObject;
          base.object_sid = req.inode->sid;
          base.object_dev = req.id.dev;
          base.object_ino = req.id.ino;
          base.object_gen = req.inode->generation;
        }
        if (pkt.entrypoint_valid) {
          base.flags |= audit::kFlagEptValid;
          base.ept_dev = pkt.entrypoint.image.dev;
          base.ept_ino = pkt.entrypoint.image.ino;
          base.ept_offset = pkt.entrypoint.offset;
        }
        if (obs_timed) {
          base.flags |= audit::kFlagTimed;
          base.total_ns = total;
          base.ctx_ns = scratch.ctx_ns;
        }
        // Mid-traversal events first, in occurrence order, then the verdict.
        for (uint32_t i = 0; i < n_phase; ++i) {
          audit::AuditRecord rec = base;
          rec.kind = static_cast<uint8_t>(audit::Kind::kPhase);
          rec.phase_from = static_cast<uint64_t>(audit_scratch.phase_from[i]);
          rec.phase_to = static_cast<uint64_t>(audit_scratch.phase_to[i]);
          audit_.Emit(w, rec);
        }
        for (uint32_t i = 0; i < n_log; ++i) {
          audit::AuditRecord rec = base;
          rec.kind = static_cast<uint8_t>(audit::Kind::kLogHit);
          rec.chain_id = audit_scratch.log_chain[i];
          rec.rule_index = audit_scratch.log_rule[i];
          audit_.Emit(w, rec);
        }
        if (deny_event) {
          audit::AuditRecord rec = base;
          rec.kind = static_cast<uint8_t>(config_.audit_only
                                              ? audit::Kind::kAuditedDeny
                                              : audit::Kind::kDeny);
          rec.chain_id = scratch.chain_id;
          rec.rule_index = scratch.rule_index;
          audit_.Emit(w, rec);
        }
      }
    }
  }

  if (drop) {
    if (config_.audit_only) {
      // Permissive deployment: log what enforcement would have denied.
      sb.Add(Stat::kAuditedDrops);
      EmitLog(pkt, "audit-drop");
      return 0;
    }
    sb.Add(Stat::kDrops);
    return sim::SysError(sim::Err::kAcces);
  }
  return 0;  // default allow
}

}  // namespace pf::core
