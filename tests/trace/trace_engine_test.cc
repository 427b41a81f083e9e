// Engine-side tracing semantics: what the tracepoints in Authorize /
// ExecEntries / EnsureContext actually record, that
// per-rule time attribution lands in the pftables counters, that `-Z`
// zeroing is transactional (stats_generation), and that `-L -v` exposes
// the attribution without changing the non-verbose rendering.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/apps/programs.h"
#include "src/audit/hub.h"
#include "src/core/engine.h"
#include "src/core/pftables.h"
#include "src/sim/sysimage.h"
#include "src/trace/export.h"
#include "src/trace/hub.h"

namespace pf::core {
namespace {

using trace::Event;
using trace::TraceRecord;

// Kernel + engine + a raw task on /bin/true with one user frame, same shape
// as the verdict-cache rig.
struct Rig {
  sim::Kernel kernel{0x5eed};
  Engine* engine = nullptr;
  sim::Task task;
  std::vector<std::shared_ptr<sim::Inode>> pins;

  explicit Rig(const EngineConfig& cfg = {}) {
    sim::BuildSysImage(kernel);
    apps::InstallPrograms(kernel);
    engine = InstallProcessFirewall(kernel, cfg);
    task.pid = 100;
    task.syscall_depth = 1;  // every request runs inside a system call
    task.comm = "traced";
    task.exe = sim::kBinTrue;
    task.cred.sid = kernel.labels().Intern("staff_t");
    task.cwd = kernel.vfs().root()->id();
    task.mm.Reset(kernel.AslrStackBase());
    kernel.MapImage(task, kernel.LookupNoHooks(sim::kBinTrue), sim::kBinTrue);
    const sim::Mapping* map = task.mm.FindMappingByPath(sim::kBinTrue);
    task.mm.PushFrame(map->base + 0x100, 16, false);
  }

  Status Install(const std::vector<std::string>& rules) {
    Pftables pft(engine);
    return pft.ExecAll(rules);
  }

  int64_t Open(const char* path) {
    ++task.syscall_count;
    auto inode = kernel.LookupNoHooks(path);
    sim::AccessRequest req;
    req.task = &task;
    req.op = sim::Op::kFileOpen;
    req.inode = inode.get();
    req.id = inode->id();
    req.syscall_nr = sim::SyscallNr::kOpen;
    pins.push_back(std::move(inode));
    return engine->Authorize(req);
  }
};

std::vector<TraceRecord> OfKind(const std::vector<TraceRecord>& recs, Event e) {
  std::vector<TraceRecord> out;
  for (const TraceRecord& r : recs) {
    if (r.event == static_cast<uint8_t>(e)) {
      out.push_back(r);
    }
  }
  return out;
}

TEST(TraceEngineTest, DisabledEmitsNothing) {
  Rig rig;
  ASSERT_TRUE(rig.Install({"pftables -o FILE_OPEN -d shadow_t -j DROP"}).ok());
  EXPECT_LT(rig.Open("/etc/shadow"), 0);
  EXPECT_EQ(rig.Open("/etc/passwd"), 0);
  EXPECT_EQ(rig.engine->trace().records(), 0u);
  EXPECT_TRUE(rig.engine->trace().Drain().empty());
  EngineStats s = rig.engine->stats();
  EXPECT_EQ(s.trace_records, 0u);
  EXPECT_EQ(s.trace_drops, 0u);
}

TEST(TraceEngineTest, DecisionRecordCarriesVerdictAndAttribution) {
  if (!trace::kTraceCompiledIn) {
    GTEST_SKIP() << "tracing compiled out (PF_NO_TRACE)";
  }
  Rig rig;
  ASSERT_TRUE(rig.Install({"pftables -o FILE_OPEN -d shadow_t -j DROP"}).ok());
  rig.engine->trace().Enable();

  EXPECT_LT(rig.Open("/etc/shadow"), 0);
  EXPECT_EQ(rig.Open("/etc/passwd"), 0);
  rig.engine->trace().Disable();

  std::vector<TraceRecord> decisions =
      OfKind(rig.engine->trace().Drain(), Event::kDecision);
  ASSERT_EQ(decisions.size(), 2u);

  const TraceRecord& drop = decisions[0];
  EXPECT_EQ(drop.op, static_cast<uint8_t>(sim::Op::kFileOpen));
  EXPECT_TRUE(drop.flags & trace::kFlagDrop);
  EXPECT_EQ(drop.subject_sid, rig.task.cred.sid);
  EXPECT_EQ(drop.object_sid, rig.kernel.labels().Intern("shadow_t"));
  // The verdict came from the compiled program's input chain, rule 0.
  EXPECT_EQ(drop.path, static_cast<uint8_t>(trace::Path::kCompiled));
  EXPECT_GE(drop.chain_id, 0);
  EXPECT_EQ(drop.rule_index, 0);
  EXPECT_GT(drop.total_ns, 0u);
  EXPECT_LE(drop.eval_ns, drop.total_ns);

  const TraceRecord& accept = decisions[1];
  EXPECT_FALSE(accept.flags & trace::kFlagDrop);
  // Default-accept: no rule produced the verdict.
  EXPECT_EQ(accept.chain_id, -1);
  EXPECT_EQ(accept.rule_index, -1);

  // Timestamps are monotone in emission order.
  EXPECT_LE(drop.ts_ns, accept.ts_ns);
}

TEST(TraceEngineTest, RuleEventsAttributeTimeToCounters) {
  if (!trace::kTraceCompiledIn) {
    GTEST_SKIP() << "tracing compiled out (PF_NO_TRACE)";
  }
  Rig rig;
  ASSERT_TRUE(rig.Install({"pftables -o FILE_OPEN -d shadow_t -j DROP"}).ok());
  rig.engine->trace().Enable();
  for (int i = 0; i < 8; ++i) {
    EXPECT_LT(rig.Open("/etc/shadow"), 0);
  }
  rig.engine->trace().Disable();

  std::vector<TraceRecord> rules =
      OfKind(rig.engine->trace().Drain(), Event::kRule);
  ASSERT_FALSE(rules.empty());
  for (const TraceRecord& r : rules) {
    EXPECT_TRUE(r.flags & trace::kFlagDrop);
    EXPECT_GE(r.chain_id, 0);
    EXPECT_EQ(r.rule_index, 0);
  }

  // The accumulated per-rule time surfaces in the verbose listing only.
  Pftables pft(rig.engine);
  const std::string verbose = pft.List("filter", /*verbose=*/true);
  EXPECT_NE(verbose.find("time="), std::string::npos) << verbose;
  EXPECT_NE(verbose.find("evals="), std::string::npos);
  const std::string plain = pft.List("filter");
  EXPECT_EQ(plain.find("time="), std::string::npos) << plain;
}

TEST(TraceEngineTest, OpFilterSelectsOps) {
  if (!trace::kTraceCompiledIn) {
    GTEST_SKIP() << "tracing compiled out (PF_NO_TRACE)";
  }
  Rig rig;
  ASSERT_TRUE(rig.Install({"pftables -o FILE_OPEN -d shadow_t -j DROP"}).ok());
  rig.engine->trace().Enable();
  // Admit only DIR_SEARCH; the FILE_OPEN decision below must not record.
  rig.engine->trace().SetOpFilter(
      1ull << static_cast<uint32_t>(sim::Op::kDirSearch));
  EXPECT_LT(rig.Open("/etc/shadow"), 0);
  rig.engine->trace().SetOpFilter(~0ull);
  EXPECT_LT(rig.Open("/etc/shadow"), 0);
  rig.engine->trace().Disable();

  std::vector<TraceRecord> decisions =
      OfKind(rig.engine->trace().Drain(), Event::kDecision);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].op, static_cast<uint8_t>(sim::Op::kFileOpen));
}

TEST(TraceEngineTest, LatencyHistogramsPopulate) {
  if (!trace::kTraceCompiledIn) {
    GTEST_SKIP() << "tracing compiled out (PF_NO_TRACE)";
  }
  Rig rig;
  ASSERT_TRUE(rig.Install({"pftables -o FILE_OPEN -d shadow_t -j DROP"}).ok());
  rig.engine->trace().Enable();
  for (int i = 0; i < 16; ++i) {
    rig.Open("/etc/shadow");
  }
  rig.engine->trace().Disable();
  const trace::LatencyHistogram& h = rig.engine->trace().histogram(
      static_cast<uint32_t>(sim::Op::kFileOpen), trace::Path::kCompiled);
  EXPECT_EQ(h.count(), 16u);
  EXPECT_GT(h.sum(), 0u);
}

TEST(TraceEngineTest, StatsGenerationDetectsZeroing) {
  Rig rig;
  ASSERT_TRUE(rig.Install({"pftables -o FILE_OPEN -d shadow_t -j DROP"}).ok());
  EXPECT_LT(rig.Open("/etc/shadow"), 0);

  EngineStats before = rig.engine->stats();
  EXPECT_FALSE(before.torn);
  EXPECT_EQ(before.stats_generation % 2, 0u) << "generation odd outside a mutation";

  Pftables pft(rig.engine);
  ASSERT_TRUE(pft.ZeroCounters().ok());
  EngineStats after = rig.engine->stats();
  EXPECT_FALSE(after.torn);
  EXPECT_EQ(after.stats_generation, before.stats_generation + 2)
      << "one zeroing = one begin/end generation pair";

  // A mid-mutation reader must see itself torn.
  rig.engine->BeginCounterMutation();
  EngineStats mid = rig.engine->stats();
  EXPECT_TRUE(mid.torn);
  rig.engine->EndCounterMutation();
  EXPECT_FALSE(rig.engine->stats().torn);
}

TEST(TraceEngineTest, ZeroCountersIsScopedAndValidated) {
  Rig rig;
  ASSERT_TRUE(rig.Install({
      "pftables -N web",
      "pftables -o FILE_OPEN -d shadow_t -j DROP",
      "pftables -A web -o FILE_OPEN -j ACCEPT",
  }).ok());
  EXPECT_LT(rig.Open("/etc/shadow"), 0);
  EXPECT_EQ(rig.Open("/etc/passwd"), 0);

  Pftables pft(rig.engine);
  std::string listing = pft.List();
  EXPECT_NE(listing.find("evals"), std::string::npos);

  // Unknown chain: an error, nothing zeroed.
  EXPECT_FALSE(pft.ZeroCounters("nope").ok());

  // Zeroing one chain leaves the others' counters alone; zeroing all
  // clears everything. Counter state is visible via the -L rendering.
  ASSERT_TRUE(pft.ZeroCounters("web").ok());
  ASSERT_TRUE(pft.ZeroCounters().ok());
  // After a full zero the input rule reports zero evals; run one more
  // access and it counts from zero again.
  EXPECT_LT(rig.Open("/etc/shadow"), 0);
  EngineStats s = rig.engine->stats();
  EXPECT_FALSE(s.torn);
}

TEST(TraceEngineTest, PftablesZCommandParses) {
  Rig rig;
  ASSERT_TRUE(rig.Install({"pftables -o FILE_OPEN -d shadow_t -j DROP"}).ok());
  EXPECT_LT(rig.Open("/etc/shadow"), 0);
  Pftables pft(rig.engine);
  EXPECT_TRUE(pft.Exec("pftables -Z").ok());
  EXPECT_TRUE(pft.Exec("pftables -Z input").ok());
  EXPECT_FALSE(pft.Exec("pftables -Z no_such_chain").ok());
  // `-L -v` must parse (the -v must not be taken for a chain name).
  EXPECT_TRUE(pft.Exec("pftables -L -v").ok());
}

TEST(TraceEngineTest, TraceRecordsSurfaceInEngineStats) {
  if (!trace::kTraceCompiledIn) {
    GTEST_SKIP() << "tracing compiled out (PF_NO_TRACE)";
  }
  Rig rig;
  ASSERT_TRUE(rig.Install({"pftables -o FILE_OPEN -d shadow_t -j DROP"}).ok());
  rig.engine->trace().Enable(trace::EventBit(Event::kDecision));
  for (int i = 0; i < 4; ++i) {
    rig.Open("/etc/shadow");
  }
  rig.engine->trace().Disable();
  EngineStats s = rig.engine->stats();
  EXPECT_EQ(s.trace_records, 4u);
  EXPECT_EQ(s.trace_drops, 0u);
}

// The rings are single-producer, so a worker whose index is past the
// hubs' rings must not write a ring a live worker owns. Threads lease
// indices and stay parked until one holds index kMaxWorkers; that thread
// makes a traced and audited denial, with kMaxWorkers + 1 leases live.
TEST(TraceEngineTest, WorkerPastTheRingsWritesTheOverflowLane) {
  if (!trace::kTraceCompiledIn || !audit::kAuditCompiledIn) {
    GTEST_SKIP() << "tracing or audit compiled out";
  }
  constexpr size_t kLane = trace::TraceHub::kMaxWorkers;
  static_assert(kLane == audit::AuditHub::kMaxWorkers);
  Rig rig;
  ASSERT_TRUE(rig.Install({"pftables -o FILE_OPEN -d shadow_t -j DROP"}).ok());
  rig.engine->trace().Enable();
  rig.engine->audit().Enable();

  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> found{false};
  int64_t verdict = 0;
  std::vector<std::thread> parked;
  // Every parked thread holds a distinct index, so 4 * kLane threads cover
  // any index the registry handed out before this test.
  for (size_t n = 0; n < 4 * kLane && !found.load(); ++n) {
    std::promise<void> leased;
    std::future<void> ready = leased.get_future();
    parked.emplace_back([&, leased = std::move(leased)]() mutable {
      if (WorkerIndex() == kLane) {
        verdict = rig.Open("/etc/shadow");
        found.store(true);
      }
      leased.set_value();
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release; });
    });
    ready.wait();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  for (std::thread& t : parked) {
    t.join();
  }

  ASSERT_TRUE(found.load()) << "no thread leased index " << kLane;
  EXPECT_LT(verdict, 0);
  for (size_t w = 0; w < kLane; ++w) {
    EXPECT_EQ(rig.engine->trace().ring(w), nullptr) << "trace ring " << w;
    EXPECT_EQ(rig.engine->audit().ring(w), nullptr) << "audit ring " << w;
  }
  ASSERT_NE(rig.engine->trace().ring(kLane), nullptr);
  ASSERT_NE(rig.engine->audit().ring(kLane), nullptr);
  const std::vector<TraceRecord> traced = rig.engine->trace().Drain();
  ASSERT_FALSE(traced.empty());
  for (const TraceRecord& r : traced) {
    EXPECT_EQ(r.worker, kLane);
  }
  const std::vector<audit::AuditRecord> audited = rig.engine->audit().Drain();
  ASSERT_EQ(audited.size(), 1u);
  EXPECT_EQ(audited[0].worker, kLane);
}

}  // namespace
}  // namespace pf::core
