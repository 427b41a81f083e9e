// The Process Firewall engine.
//
// Registered as a SecurityModule behind the kernel's authorization hooks, it
// builds a Packet for each mediated operation, fetches process/resource
// context through context modules (lazily, with per-syscall caching), and
// runs the rule base — using entrypoint-specific chains where enabled.
// The three optimizations are independently toggleable to reproduce the
// ablation columns of paper Table 6:
//
//   FULL     = {lazy_context=false, cache_context=false, ept_chains=false}
//   CONCACHE = {lazy_context=false, cache_context=true,  ept_chains=false}
//   LAZYCON  = {lazy_context=true,  cache_context=true,  ept_chains=false}
//   EPTSPC   = {lazy_context=true,  cache_context=true,  ept_chains=true}
//              (the default)
//
// Every rung runs the one evaluator: the verified arena program (DESIGN.md
// "Compiled PF programs"). Every decision evaluates the published program;
// nothing memoizes verdicts (DESIGN.md "Why there is no verdict cache").
//
// Concurrency model (paper §5.1 makes the hooks re-entrant "without
// disabling interrupts"; here the same property is carried to real worker
// threads — see DESIGN.md "Concurrency model"):
//
//   * Per-task state (the STATE dictionary, context caches) lives in the
//     task's own security slot (sim::Task::security[slot]), created once
//     under the slot's std::once_flag and then reached through one acquire
//     load of the slot's published pointer. Each PfTaskState carries a small
//     mutex guarding its dictionary; each context-cache entry is a few words
//     behind a sequence counter (SeqCell), so a reader either copies a whole
//     entry or sees a miss and unwinds — never a torn unwind.
//   * Statistics are per-worker ("per-CPU") cache-line-aligned counter
//     blocks aggregated on read — there is no shared hot counter. The
//     worker-index lease makes each block's writer unique, so a bump is a
//     relaxed load and store, never a locked read-modify-write; threads past
//     the block count share one overflow block that adds atomically.
//     ResetStats records a baseline instead of zeroing blocks it does not
//     own. Authorize resolves the worker index once per decision.
//   * The compiled rule base is published RCU-style: each pftables commit
//     copies the staging RuleSet into an immutable CompiledRuleset snapshot
//     and bumps a generation counter. Hook-side readers pin the snapshot
//     through a per-worker epoch cache (one relaxed/acquire load on the fast
//     path; the commit mutex is taken only when the generation moved), so
//     rule reloads never block evaluation.
#ifndef SRC_CORE_ENGINE_H_
#define SRC_CORE_ENGINE_H_

#include <array>
#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>

#include "src/analysis/diagnostics.h"  // standalone by design, like pftables.h
#include "src/audit/hub.h"
#include "src/core/log.h"
#include "src/core/packet.h"
#include "src/core/program.h"
#include "src/core/ruleset.h"
#include "src/core/status.h"
#include "src/sim/kernel.h"
#include "src/trace/hub.h"

namespace pf::core {

// Maximum JUMP nesting depth. A chain entered at this depth is not
// evaluated (ExecChain falls through), so rules only reachable beyond
// the bound are dead — the static analyzer (src/analysis) flags them.
inline constexpr int kMaxChainDepth = 8;

// Operations by which the process *affects* resources (mediated by the
// output chain in addition to input); reads/deliveries are input-only.
bool IsOutputOp(sim::Op op);

// Creation operations, which consult the `create` chain first (paper
// template T2) before output/input.
bool IsCreateOp(sim::Op op);

struct EngineConfig {
  bool enabled = true;
  bool lazy_context = true;   // fetch context only when a rule needs it
  bool cache_context = true;  // reuse unwinds across hooks within a syscall
  bool ept_chains = true;     // entrypoint-specific chain index
  // Dispatch the program evaluator through the computed-goto threaded
  // interpreter instead of the switch loop. Both are generated from the same
  // handler bodies (src/core/exec_insn.inc) and are bit-identical; the flag
  // exists for A/B benchmarking and as a portability fallback. Ignored (the
  // switch loop runs) when the build lacks computed goto — non-GNU
  // compilers, or -DPF_THREADED_DISPATCH=OFF at configure time.
  bool threaded_eval = true;
  // Audit mode: evaluate rules and count/log would-be denials, but allow
  // everything. This is how an OS distributor shakes out false positives
  // before enforcing a generated rule base (paper §6.3.2).
  bool audit_only = false;
};

// Aggregated engine statistics (a consistent-enough snapshot: each counter
// is the sum of the per-worker blocks at read time less the last reset's
// baseline; see Engine::stats() for the exact tearing contract).
struct EngineStats {
  uint64_t invocations = 0;
  uint64_t drops = 0;
  uint64_t audited_drops = 0;  // denials suppressed by audit mode
  uint64_t rules_evaluated = 0;
  uint64_t ept_chain_hits = 0;
  uint64_t unwinds = 0;
  uint64_t unwind_cache_hits = 0;
  uint64_t ruleset_refreshes = 0;  // per-worker snapshot re-pins
  // The engine has no verdict cache, so these always read 0. They stay for
  // readers that still report verdict-cache rates (the perfbench ledger).
  uint64_t vcache_hits = 0;
  uint64_t vcache_misses = 0;
  uint64_t vcache_bypasses = 0;
  uint64_t vcache_state_hits = 0;
  uint64_t trace_records = 0;      // TraceRecords ever emitted
  uint64_t trace_drops = 0;        // records lost to full rings
  // Audit-pipeline conservation counters (src/audit): emitted = admitted +
  // suppressed; admitted records either drain, sit buffered, or are counted
  // in audit_ring_drops when a full ring evicted them unread.
  uint64_t audit_emitted = 0;
  uint64_t audit_records = 0;      // admitted into the per-worker rings
  uint64_t audit_suppressed = 0;   // collapsed by token-bucket suppression
  uint64_t audit_ring_drops = 0;   // evicted unread from full rings
  std::array<uint64_t, static_cast<size_t>(Ctx::kCount)> ctx_fetches{};
  // Counter-mutation generation at read time (see Engine::stats()). Odd, or
  // different before/after aggregation, means a reset/zeroing ran while this
  // snapshot was summed: `torn` is set and the values may mix pre- and
  // post-reset counts.
  uint64_t stats_generation = 0;
  bool torn = false;
};

// The counters of one EngineStatsBlock, in EngineStats order; the context
// fetches take the last Ctx::kCount entries.
enum class Stat : uint8_t {
  kInvocations,
  kDrops,
  kAuditedDrops,
  kRulesEvaluated,
  kEptChainHits,
  kUnwinds,
  kUnwindCacheHits,
  kRulesetRefreshes,
  kCtxFetches,
};
inline constexpr size_t kStatCount =
    static_cast<size_t>(Stat::kCtxFetches) + static_cast<size_t>(Ctx::kCount);

constexpr Stat CtxFetchStat(Ctx c) {
  return static_cast<Stat>(static_cast<size_t>(Stat::kCtxFetches) + static_cast<size_t>(c));
}

// One per-worker ("per-CPU") counter block. A worker block has exactly one
// writer, the thread holding its worker index, so Add is a relaxed load and
// a relaxed store: no locked read-modify-write. Only the overflow block,
// shared by every thread whose index is past the block count, adds with
// fetch_add.
struct alignas(64) EngineStatsBlock {
  std::array<std::atomic<uint64_t>, kStatCount> counters{};
  bool shared = false;

  void Add(Stat stat, uint64_t n = 1) {
    std::atomic<uint64_t>& c = counters[static_cast<size_t>(stat)];
    if (shared) {
      c.fetch_add(n, std::memory_order_relaxed);
    } else {
      c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
    }
  }
};

// Index of the calling worker thread, leased on first use and returned for
// reuse when the thread exits, so indices stay below the number of threads
// alive at once. Shared by every engine instance in the process: an exiting
// thread first drops its pins in every live engine (WorkerLease, engine.cc),
// so a dead thread keeps no generation alive and the next thread to lease
// the index starts with empty slots.
size_t WorkerIndex();
struct WorkerLease;

// A seqlock cell: a trivially copyable value kept as atomic words behind a
// sequence counter that is odd while a writer publishes. A read is a few
// plain loads on x86 and no read-modify-write; it fails when a writer was
// active or the counter moved meanwhile (a torn read). A writer that finds
// the counter taken skips publishing. Word stores are release and word
// loads acquire, so a reader that sees any word of a newer publication
// also sees the counter that publication moved.
template <typename T>
class SeqCell {
  static_assert(std::is_trivially_copyable_v<T> && sizeof(T) % 8 == 0);
  static constexpr size_t kWords = sizeof(T) / 8;

 public:
  SeqCell() { Store(T{}); }

  bool Load(T* out) const {
    const uint32_t seq = seq_.load(std::memory_order_acquire);
    if ((seq & 1) != 0) {
      return false;
    }
    uint64_t words[kWords];
    for (size_t i = 0; i < kWords; ++i) {
      words[i] = words_[i].load(std::memory_order_acquire);
    }
    if (seq_.load(std::memory_order_relaxed) != seq) {
      return false;
    }
    std::memcpy(out, words, sizeof(T));
    return true;
  }

  bool TryStore(const T& value) {
    uint32_t seq = seq_.load(std::memory_order_relaxed);
    if ((seq & 1) != 0 ||
        !seq_.compare_exchange_strong(seq, seq + 1, std::memory_order_relaxed)) {
      return false;
    }
    uint64_t words[kWords];
    std::memcpy(words, &value, sizeof(T));
    for (size_t i = 0; i < kWords; ++i) {
      words_[i].store(words[i], std::memory_order_release);
    }
    seq_.store(seq + 2, std::memory_order_release);
    return true;
  }

  // Publishes unconditionally, waiting out a concurrent writer (which holds
  // the counter for a handful of stores).
  void Store(const T& value) {
    while (!TryStore(value)) {
      std::this_thread::yield();
    }
  }

 private:
  std::atomic<uint32_t> seq_{0};
  std::array<std::atomic<uint64_t>, kWords> words_{};
};

// The context cache's entries (paper §4.2: one unwind serves every hook of
// a system call). Each holds only what the engine reads from an unwind,
// stamped with the task's syscall_count at the unwind; `serial` is
// kNoSyscall in an empty entry.
inline constexpr uint64_t kNoSyscall = ~0ull;

struct CachedFrame {
  uint64_t serial = kNoSyscall;
  uint64_t valid = 0;  // InnermostFrame::usable()
  BinFrame frame;
};

struct CachedInterp {
  uint64_t serial = kNoSyscall;
  uint32_t valid = 0;  // InterpTop::usable()
  sim::InterpLang lang = sim::InterpLang::kNone;
  uint32_t script_id = 0;
};

// Per-task Process Firewall state (the struct task_struct extension of the
// paper), held in the task's security slot. Created lazily: only tasks that
// actually hit a stateful rule or a cached unwind get one — the
// authorization fast path never touches it.
struct PfTaskState {
  // Guards dict. Held for pointer-sized critical sections.
  std::mutex mu;

  // STATE match/target dictionary.
  std::map<std::string, int64_t> dict;

  // The context cache: empty until the first unwind inside a system call,
  // emptied again on execve and exit.
  SeqCell<CachedFrame> stack;
  SeqCell<CachedInterp> interp;

  void ClearContextCache() {
    stack.Store(CachedFrame{});
    interp.Store(CachedInterp{});
  }
};

// One published generation of the rule base: a structural copy of the
// staging RuleSet (sharing the heap-allocated Rule objects) and its program.
struct CompiledRuleset {
  RuleSet rules;
  uint64_t generation = 0;

  // The arena-packed program form of the same generation (see program.h),
  // lowered from `rules` by LowerProgram. Its chains carry the generation's
  // one dispatch table; the evaluator, the static analyzer and
  // `pftables -L --compiled` all read it.
  PfProgram program;

  // Load-time verification of `program` (src/core/verify.h), run by every
  // compile. The report also carries lowering refusals (module-unlowerable).
  // `verified` is true iff it holds no errors; CommitRuleset refuses to
  // publish otherwise. pfcheck and pftables --check surface the report.
  analysis::AnalysisReport verify_report;
  bool verified = false;
  uint64_t verify_ns = 0;
};

// The builtin chains `req` traverses under `rs`, in order (syscallbegin, or
// create -> output -> input per paper template T2), written to `out`. A
// chain is skipped when its op mask shows no rule can match the op, or the
// syscall-number mask shows no syscallbegin rule can match the number —
// unless its policy is DROP. Returns how many were written; 0 is the
// fast-path allow, which builds no Packet and touches no per-task state.
size_t ApplicableChains(const CompiledRuleset& rs, const sim::AccessRequest& req,
                        const ProgramChain* out[3]);

class Engine : public sim::SecurityModule {
 public:
  Engine(sim::Kernel& kernel, EngineConfig config);
  ~Engine() override;

  // --- SecurityModule ---
  std::string_view ModuleName() const override { return "pf"; }
  int64_t Authorize(sim::AccessRequest& req) override;
  void OnTaskExit(sim::Task& task) override;
  void OnTaskFork(sim::Task& parent, sim::Task& child) override;
  void OnTaskExec(sim::Task& task) override;

  // --- configuration / data ---
  EngineConfig& config() { return config_; }
  // The staging rule base, edited by pftables. Structural edits are not seen
  // by hook evaluation until CommitRuleset() publishes a snapshot.
  RuleSet& ruleset() { return ruleset_; }
  LogSink& log() { return log_; }
  sim::Kernel& kernel() { return kernel_; }
  sim::MacPolicy& policy() { return kernel_.policy(); }
  // The sim::Task::security slot holding this engine's PfTaskState.
  // Registration assigns it: InstallProcessFirewall, or set_slot() with the
  // index Kernel::AddModule returned, before the first hook. An engine that
  // is never registered (pfexplain, pfdiff, ...) reserves a slot of its own
  // on first use, so two engines on one kernel never share per-task state.
  void set_slot(size_t slot) { slot_.store(slot, std::memory_order_release); }
  size_t slot();

  // Worker counter blocks; a thread whose worker index is at or past this
  // count writes the shared overflow block.
  static constexpr size_t kStatsBlocks = 64;
  // The counter block worker `worker` writes: its own, or the shared
  // overflow block past kStatsBlocks. Only that worker bumps it (a test
  // may stand in for the worker).
  EngineStatsBlock& StatsBlock(size_t worker) {
    return worker < kStatsBlocks ? stats_blocks_[worker] : stats_overflow_;
  }

  // Aggregates the per-worker counter blocks, less the baseline the last
  // ResetStats() recorded.
  //
  // Tearing contract: every per-worker counter is read with a relaxed load
  // while workers keep adding, so the snapshot is not a point-in-time cut —
  // two counters may disagree by in-flight decisions (e.g. `drops` can
  // momentarily exceed what `invocations` implies). Each counter is
  // individually monotone between resets, and sums converge once workers
  // quiesce, which is all the stats consumers (benches, pfshell, metrics)
  // need. The one non-monotone hazard is a concurrent ResetStats() or
  // `pftables -Z`: those bump `stats_gen_` to odd for their duration, and
  // stats() re-reads the generation after aggregating — a reader that saw an
  // odd or moved generation gets `torn = true` in the snapshot and should
  // retry or discard (MetricsText() and pftrace do exactly that). A torn
  // snapshot's counters may read low, never above the decisions counted.
  EngineStats stats() const;
  // Records the current totals as the baseline stats() subtracts. It stores
  // into no worker block: the block's owner could be between the load and
  // the store of a bump, and its store would overwrite a zero.
  void ResetStats();

  // Marks a counter-mutation window (even/odd generation) so concurrent
  // stats() readers can detect mid-zeroing aggregation. ResetStats() and
  // Pftables::ZeroCounters() bracket themselves with these; nesting is not
  // supported.
  void BeginCounterMutation() { stats_gen_.fetch_add(1, std::memory_order_acq_rel); }
  void EndCounterMutation() { stats_gen_.fetch_add(1, std::memory_order_acq_rel); }

  // The tracing control plane and record stream for this engine (src/trace).
  // Disabled (and nearly free) by default; compiled out under PF_NO_TRACE.
  trace::TraceHub& trace() { return trace_; }
  const trace::TraceHub& trace() const { return trace_; }

  // The security-event audit pipeline (src/audit, DESIGN.md §5j). Disabled
  // it costs one relaxed load per Authorize; compiled out under PF_AUDIT=OFF.
  audit::AuditHub& audit() { return audit_; }
  const audit::AuditHub& audit() const { return audit_; }

  // Prometheus text-exposition (format 0.0.4) of the engine counters, the
  // ring drop counters, and every non-empty (op, path) latency histogram.
  // `pfshell stats --prom` and the benches serve this verbatim. Implemented
  // in metrics.cc.
  std::string MetricsText() const;

  // Publishes the staging rule base as a new immutable generation:
  // PublishRuleset(CompileForCommit()). Called by Pftables after every
  // successful mutating command; safe to call while worker threads evaluate.
  // Like an iptables table replace, every commit lowers and verifies the
  // whole staging base (CompileRuleset). When the load-time verifier rejects
  // the compiled program, or a module cannot be lowered, nothing is
  // published — the live generation keeps serving and the error carries the
  // report.
  Status CommitRuleset();

  // The two steps of CommitRuleset, for callers that gate a commit on the
  // compiled snapshot (pftables --check, --widening-gate) and then publish
  // the very snapshot they inspected instead of compiling it again.
  // CompileForCommit frees the generation the previous commit displaced
  // (see displaced_), then compiles the staging base, so a compile never
  // runs with three generations live. PublishRuleset publishes `snap`, or
  // refuses one the verifier rejected; `snap` must come from
  // CompileForCommit with no staging edit since.
  std::shared_ptr<CompiledRuleset> CompileForCommit();
  Status PublishRuleset(std::shared_ptr<CompiledRuleset> snap);

  // Compiles the staging rule base into a CompiledRuleset snapshot without
  // publishing it (generation stays 0). This is what the static analyzer
  // (src/analysis) and the pftables --check gate run over: analysis sees
  // exactly the structures hook evaluation would, including uncommitted
  // staging edits, with no effect on the live generation.
  std::shared_ptr<CompiledRuleset> CompileRuleset() const;

  // The currently published generation (nullptr before the first commit
  // completes — the constructor commits generation 1, so users always see a
  // snapshot). Tests and tools use this to inspect the program hooks
  // actually execute; the hot path pins via worker slots instead.
  std::shared_ptr<const CompiledRuleset> PublishedRuleset() const {
    std::lock_guard<std::mutex> lock(commit_mu_);
    return published_;
  }

  uint64_t ruleset_generation() const {
    return generation_.load(std::memory_order_acquire);
  }
  // Every commit relowers the whole rule base, so delta_commits() always
  // reads 0 and full_commits() counts every publication. They stay for
  // readers that still report a delta-commit ratio (the perfbench ledger).
  uint64_t delta_commits() const { return 0; }
  uint64_t full_commits() const { return ruleset_generation(); }

  // The task's PfTaskState, created on first use in the task's slot.
  PfTaskState& TaskState(sim::Task& task);

  // Context-module dispatch: collects every field in `mask` not yet in the
  // packet. Fields that cannot be collected are marked collected-but-absent
  // (rules needing them simply fail to match).
  void EnsureContext(Packet& pkt, CtxMask mask);

  // Emits a LOG record for the packet.
  void EmitLog(Packet& pkt, const std::string& prefix);

 private:
  enum class Verdict { kAccept, kDrop, kFallthrough, kReturn };

  // Pins the current ruleset generation for worker `worker`, whose counter
  // block is `sb`. `hold` keeps the snapshot alive for callers beyond the
  // per-worker slot capacity.
  const CompiledRuleset& PinRuleset(size_t worker, EngineStatsBlock& sb,
                                    std::shared_ptr<const CompiledRuleset>* hold);
  // Empties worker `index`'s slot for its exiting thread and hands back the
  // pin it held, for the caller to free outside the lease registry's lock.
  std::shared_ptr<const CompiledRuleset> ReleaseWorker(size_t index);
  friend struct WorkerLease;

  // Sums every block's counters into `out`, without the baseline.
  void SumBlocks(std::array<uint64_t, kStatCount>& out) const;

  // The program evaluator (engine.cc): an instruction interpreter over the
  // arena, no virtual calls on the builtin-module path. RunRootChain runs
  // one builtin chain and applies its default policy on fallthrough.
  Verdict RunRootChain(const CompiledRuleset& rs, const ProgramChain& pc, Packet& pkt);
  Verdict ExecChain(const CompiledRuleset& rs, const ProgramChain& pc, Packet& pkt,
                    int depth);
  // op_checked: the entry list came from a per-op bucket (op-filtered by
  // construction), so rule bodies enter past their kCheckOp guard; the
  // entrypoint index's lists are not op-filtered and keep the guard.
  Verdict ExecEntries(const CompiledRuleset& rs, uint32_t off, uint32_t len,
                      bool op_checked, Packet& pkt, int depth);
  // ExecRule picks a dispatch strategy per EngineConfig::threaded_eval. The
  // two strategies are expansions of the same handler bodies
  // (src/core/exec_insn.inc): ExecRuleSwitch is the portable switch loop,
  // ExecRuleThreaded the computed-goto threaded interpreter (defined only
  // when the toolchain supports it; the declaration is unconditional so the
  // header stays configuration-independent).
  Verdict ExecRule(const CompiledRuleset& rs, const RuleRecord& rec, uint32_t start,
                   Packet& pkt, int depth);
  Verdict ExecRuleSwitch(const CompiledRuleset& rs, const RuleRecord& rec, uint32_t start,
                         Packet& pkt, int depth);
  Verdict ExecRuleThreaded(const CompiledRuleset& rs, const RuleRecord& rec,
                           uint32_t start, Packet& pkt, int depth);

  // The context modules bump their fetch counters in `sb`, the deciding
  // worker's block.
  void FetchObject(Packet& pkt, EngineStatsBlock& sb);
  void FetchLinkTarget(Packet& pkt, EngineStatsBlock& sb);
  void FetchAdversaryAccess(Packet& pkt, EngineStatsBlock& sb);
  // The task's context cache, or null when this hook must not use one:
  // caching is off, or the hook runs outside any system call (signal
  // delivery at a checkpoint), where syscall_count names an earlier call.
  PfTaskState* ContextCache(sim::Task& task);
  void FetchStack(Packet& pkt, EngineStatsBlock& sb);
  void FetchInterp(Packet& pkt, EngineStatsBlock& sb);

  sim::Kernel& kernel_;
  EngineConfig config_;
  RuleSet ruleset_;  // staging copy (control plane)
  LogSink log_;
  static constexpr size_t kNoSlot = ~size_t{0};
  std::atomic<size_t> slot_{kNoSlot};

  trace::TraceHub trace_;
  audit::AuditHub audit_;
  std::atomic<uint64_t> stats_gen_{0};  // even: stable; odd: mutation running

  // --- RCU-style ruleset publication ---
  static constexpr size_t kMaxWorkers = 64;
  struct alignas(64) WorkerSlot {
    std::shared_ptr<const CompiledRuleset> snap;
    uint64_t generation = ~0ull;
  };
  mutable std::mutex commit_mu_;  // guards published_/displaced_ swaps
  std::shared_ptr<const CompiledRuleset> published_;
  // The generation the last commit displaced, freed by the next commit.
  // Dropped at publish instead, its last reference would sit in a worker
  // slot, and the first hook to re-pin would pay for freeing the whole
  // generation (milliseconds at 100k rules) inside Authorize.
  std::shared_ptr<const CompiledRuleset> displaced_;
  std::atomic<uint64_t> generation_{0};
  std::array<WorkerSlot, kMaxWorkers> workers_;

  // Per-worker stats blocks, the overflow block for indices past them, and
  // the baseline ResetStats() recorded (see EngineStatsBlock).
  std::array<EngineStatsBlock, kStatsBlocks> stats_blocks_;
  EngineStatsBlock stats_overflow_{.shared = true};
  std::array<std::atomic<uint64_t>, kStatCount> stats_base_{};
};

// Creates an Engine, registers it with the kernel, and wires its per-task
// state slot. The kernel owns the engine; the returned pointer stays valid
// for the kernel's lifetime.
Engine* InstallProcessFirewall(sim::Kernel& kernel, EngineConfig config = {});

}  // namespace pf::core

#endif  // SRC_CORE_ENGINE_H_
