// pfaudit pipeline proof (DESIGN.md §5j):
//
//   * AuditHub unit behavior against synthetic records: the kind enable
//     mask, token-bucket suppression with the collapsed-run count carried on
//     the first admitted record, sliding-window rotation and the deny-rate
//     anomaly flag, and ring eviction accounting;
//   * the conservation contract stated in hub.h — emitted == pushed +
//     suppressed, pushed == drained + ring_drops + still-buffered — nothing
//     the engine emits is ever unaccounted for;
//   * end-to-end attribution (the ISSUE acceptance criterion): every denial
//     a real workload provokes yields a drained AuditRecord whose (rule,
//     subject, entrypoint, tier) attribution matches the per-rule hit
//     counters exactly;
//   * audit-only mode, LOG-hit and @phase-transition records.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/apps/programs.h"
#include "src/audit/export.h"
#include "src/audit/hub.h"
#include "src/core/engine.h"
#include "src/core/modules.h"
#include "src/core/pftables.h"
#include "src/sim/error.h"
#include "src/sim/sched.h"
#include "src/sim/sysimage.h"

namespace pf::audit {
namespace {

AuditRecord MakeDeny(uint64_t ts, int32_t chain = 2, int32_t rule = 1,
                     uint32_t sid = 7) {
  AuditRecord r;
  r.ts_ns = ts;
  r.kind = static_cast<uint8_t>(Kind::kDeny);
  r.tier = static_cast<uint8_t>(Tier::kCompiled);
  r.chain_id = chain;
  r.rule_index = rule;
  r.subject_sid = sid;
  r.op = 1;
  return r;
}

// --- hub unit behavior ----------------------------------------------------

TEST(AuditHubTest, KindMaskDropsDisabledKindsSilently) {
  AuditHub hub;
  AuditHub::Config cfg;
  cfg.kinds = KindBit(Kind::kDeny);
  hub.Enable(cfg);
  AuditRecord log = MakeDeny(100);
  log.kind = static_cast<uint8_t>(Kind::kLogHit);
  EXPECT_FALSE(hub.Emit(0, log));
  EXPECT_EQ(hub.emitted(), 0u) << "a masked kind must not count as emitted";
  EXPECT_TRUE(hub.Emit(0, MakeDeny(200)));
  EXPECT_EQ(hub.emitted(), 1u);
  EXPECT_EQ(hub.Drain().size(), 1u);
}

TEST(AuditHubTest, TokenBucketCollapsesRunsAndCarriesTheCount) {
  AuditHub hub;
  AuditHub::Config cfg;
  cfg.bucket_capacity = 4;
  cfg.refill_per_sec = 1;
  hub.Enable(cfg);

  // A dense run at one key: 4 admitted on the initial burst, 6 collapsed.
  for (int i = 0; i < 10; ++i) {
    const bool admitted = hub.Emit(0, MakeDeny(1000 + static_cast<uint64_t>(i)));
    EXPECT_EQ(admitted, i < 4) << "record " << i;
  }
  EXPECT_EQ(hub.emitted(), 10u);
  EXPECT_EQ(hub.suppressed(), 6u);

  // One second later a token has refilled: the next record is admitted and
  // carries the collapsed-run count — the stream loses no information.
  ASSERT_TRUE(hub.Emit(0, MakeDeny(1000 + 1'000'000'000ull)));
  std::vector<AuditRecord> recs = hub.Drain();
  ASSERT_EQ(recs.size(), 5u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(recs[i].flags & kFlagSuppressedTail, 0) << i;
    EXPECT_EQ(recs[i].suppressed, 0u) << i;
  }
  EXPECT_NE(recs.back().flags & kFlagSuppressedTail, 0);
  EXPECT_EQ(recs.back().suppressed, 6u);

  // Per-key accounting matches the global counters.
  std::vector<KeyWindow> windows = hub.WindowSnapshot();
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].suppressed, 6u);
  EXPECT_EQ(windows[0].total, 11u);
}

TEST(AuditHubTest, DifferentKeysHaveIndependentBuckets) {
  AuditHub hub;
  AuditHub::Config cfg;
  cfg.bucket_capacity = 1;
  cfg.refill_per_sec = 0;
  hub.Enable(cfg);
  EXPECT_TRUE(hub.Emit(0, MakeDeny(10, /*chain=*/1, /*rule=*/0)));
  EXPECT_FALSE(hub.Emit(0, MakeDeny(11, /*chain=*/1, /*rule=*/0)));
  // A different rule, subject, or entrypoint is a different key.
  EXPECT_TRUE(hub.Emit(0, MakeDeny(12, /*chain=*/1, /*rule=*/1)));
  EXPECT_TRUE(hub.Emit(0, MakeDeny(13, /*chain=*/1, /*rule=*/0, /*sid=*/8)));
  AuditRecord ept = MakeDeny(14, 1, 0);
  ept.flags |= kFlagEptValid;
  ept.ept_ino = 42;
  ept.ept_offset = 0x100;
  EXPECT_TRUE(hub.Emit(0, ept));
}

TEST(AuditHubTest, ZeroBucketCapacityDisablesSuppression) {
  AuditHub hub;
  AuditHub::Config cfg;
  cfg.bucket_capacity = 0;
  hub.Enable(cfg);
  for (int i = 0; i < 256; ++i) {
    EXPECT_TRUE(hub.Emit(0, MakeDeny(static_cast<uint64_t>(i))));
  }
  EXPECT_EQ(hub.suppressed(), 0u);
  EXPECT_EQ(hub.Drain().size(), 256u);
}

TEST(AuditHubTest, WindowRotationFlagsAndClearsAnomalies) {
  AuditHub hub;
  AuditHub::Config cfg;
  cfg.bucket_capacity = 0;  // suppression off: observe every record
  cfg.window_ns = 1000;
  cfg.spike_min = 8;
  cfg.spike_factor = 4.0;
  hub.Enable(cfg);

  // Window 1: a quiet baseline of 2 records.
  hub.Emit(0, MakeDeny(0));
  hub.Emit(0, MakeDeny(1));
  // Window 2: a burst. The spike trips once window_count >= spike_min and
  // count > factor * trailing (2): at the 9th record (9 > 8 = 4.0*2).
  for (int i = 0; i < 12; ++i) {
    hub.Emit(0, MakeDeny(1000 + static_cast<uint64_t>(i)));
  }
  EXPECT_EQ(hub.anomalies(), 1u);
  std::vector<AuditRecord> recs = hub.Drain();
  ASSERT_EQ(recs.size(), 14u);
  size_t flagged = 0;
  for (const AuditRecord& r : recs) {
    flagged += (r.flags & kFlagAnomaly) != 0 ? 1 : 0;
  }
  EXPECT_EQ(flagged, 4u) << "records 9..12 of the burst window spike";

  std::vector<KeyWindow> windows = hub.WindowSnapshot();
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_TRUE(windows[0].anomaly);
  EXPECT_EQ(windows[0].window_count, 12u);
  EXPECT_EQ(windows[0].trailing_count, 2u);

  // Window 3, calm again: the flag clears on rotation, the burst becomes
  // the trailing baseline.
  hub.Emit(0, MakeDeny(2000));
  windows = hub.WindowSnapshot();
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_FALSE(windows[0].anomaly);
  EXPECT_EQ(windows[0].trailing_count, 12u);
  EXPECT_EQ(windows[0].window_count, 1u);

  // A long gap (more than one full window) zeroes the baseline: spikes are
  // judged against the immediately preceding window, not ancient history.
  hub.Emit(0, MakeDeny(50000));
  windows = hub.WindowSnapshot();
  EXPECT_EQ(windows[0].trailing_count, 0u);
}

TEST(AuditHubTest, ConservationHoldsAcrossSuppressionAndRingEviction) {
  AuditHub hub;
  AuditHub::Config cfg;
  cfg.ring_capacity = 16;  // force eviction of unread records
  cfg.bucket_capacity = 32;
  cfg.refill_per_sec = 0;
  hub.Enable(cfg);

  // 64 distinct keys x 2 records: 128 emitted, later keys evict earlier
  // records from the tiny ring; one key also runs into its bucket.
  for (int k = 0; k < 64; ++k) {
    hub.Emit(0, MakeDeny(static_cast<uint64_t>(k), /*chain=*/k, /*rule=*/0));
  }
  for (int i = 0; i < 64; ++i) {
    hub.Emit(0, MakeDeny(100 + static_cast<uint64_t>(i), /*chain=*/99, /*rule=*/0));
  }

  const uint64_t emitted = hub.emitted();
  const uint64_t suppressed = hub.suppressed();
  const uint64_t pushed = hub.records();
  EXPECT_EQ(emitted, 128u);
  EXPECT_EQ(emitted, pushed + suppressed)
      << "every emitted record is either pushed or suppressed";

  const size_t drained_now = hub.Drain().size();
  EXPECT_EQ(hub.drained(), drained_now);
  EXPECT_EQ(pushed, hub.drained() + hub.ring_drops())
      << "after a full drain nothing is buffered: pushed == drained + evicted";
  EXPECT_GT(hub.ring_drops(), 0u) << "the 16-slot ring must have evicted";
  EXPECT_GT(suppressed, 0u) << "key 99 must have exhausted its bucket";
}

TEST(AuditHubTest, DrainMergesWorkersInTimestampOrder) {
  AuditHub hub;
  AuditHub::Config cfg;
  cfg.bucket_capacity = 0;
  hub.Enable(cfg);
  hub.Emit(0, MakeDeny(300));
  hub.Emit(1, MakeDeny(100));
  hub.Emit(2, MakeDeny(200));
  std::vector<AuditRecord> recs = hub.Drain();
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[0].ts_ns, 100u);
  EXPECT_EQ(recs[1].ts_ns, 200u);
  EXPECT_EQ(recs[2].ts_ns, 300u);
}

// --- end-to-end: a real denied workload ----------------------------------

struct BootedEngine {
  std::unique_ptr<sim::Kernel> kernel;
  core::Engine* engine = nullptr;  // owned by the kernel module list
  std::unique_ptr<core::Pftables> pft;
};

BootedEngine Boot(const std::vector<std::string>& rules,
                  core::EngineConfig cfg = {}) {
  BootedEngine env;
  env.kernel = std::make_unique<sim::Kernel>(0x5eed);
  sim::BuildSysImage(*env.kernel);
  apps::InstallPrograms(*env.kernel);
  env.engine = core::InstallProcessFirewall(*env.kernel, cfg);
  env.pft = std::make_unique<core::Pftables>(env.engine);
  EXPECT_TRUE(env.pft->ExecAll(rules).ok());
  return env;
}

// A task stopped at a known entrypoint, issuing requests directly.
std::unique_ptr<sim::Task> MakeTask(sim::Kernel& kernel, const char* label,
                                    uint64_t offset = 0x4000) {
  auto task = std::make_unique<sim::Task>();
  task->pid = 777;
  task->comm = "audit-test";
  task->exe = sim::kBinTrue;
  task->cred.uid = 0;
  task->cred.euid = 0;
  task->cred.sid = kernel.labels().Intern(label);
  task->cwd = kernel.vfs().root()->id();
  task->mm.Reset(kernel.AslrStackBase());
  kernel.MapImage(*task, kernel.LookupNoHooks(sim::kBinTrue), sim::kBinTrue);
  const sim::Mapping* map = task->mm.FindMappingByPath(sim::kBinTrue);
  task->mm.PushFrame(map->base + offset, 16, false);
  return task;
}

sim::AccessRequest OpenRequest(sim::Task& task, sim::Inode* inode) {
  sim::AccessRequest req;
  req.task = &task;
  req.op = sim::Op::kFileOpen;
  req.inode = inode;
  req.id = inode->id();
  req.syscall_nr = sim::SyscallNr::kOpen;
  return req;
}

TEST(AuditPipelineTest, EveryBlockedAccessYieldsAnExactlyAttributedRecord) {
  if (!kAuditCompiledIn) {
    GTEST_SKIP() << "audit compiled out (PF_AUDIT=OFF)";
  }
  // Entrypoint-filtered so the lazily resolved entrypoint context is
  // material to the decision — every deny record must carry the binding.
  BootedEngine env =
      Boot({"pftables -p /bin/true -i 0x4000 -o FILE_OPEN -d shadow_t -j DROP"});
  AuditHub::Config acfg;
  acfg.bucket_capacity = 0;  // count every denial
  env.engine->audit().Enable(acfg);

  // Locate the DROP rule in the published program for hit-counter ground
  // truth: attribution must match it *exactly*.
  std::shared_ptr<const core::CompiledRuleset> rs = env.engine->PublishedRuleset();
  ASSERT_NE(rs, nullptr);
  const core::RuleRecord* drop_rr = nullptr;
  for (const core::RuleRecord& rr : rs->program.rules) {
    if (rr.rule->source.find("DROP") != std::string::npos) {
      drop_rr = &rr;
    }
  }
  ASSERT_NE(drop_rr, nullptr);
  const uint64_t hits_before = drop_rr->rule->hits.load(std::memory_order_relaxed);
  const core::EngineStats before = env.engine->stats();

  // A scheduler-driven workload: 32 denied opens interleaved with allowed
  // traffic, all from one frame (one entrypoint binding).
  sim::Scheduler sched(*env.kernel);
  sim::SpawnOpts opts;
  opts.name = "victim";
  opts.exe = sim::kBinTrue;
  sim::Pid pid = sched.Spawn(opts, [](sim::Proc& p) {
    sim::UserFrame frame(p, sim::kBinTrue, 0x4000);
    for (int i = 0; i < 32; ++i) {
      int64_t fd = p.Open("/etc/passwd", sim::kORdOnly);
      if (fd >= 0) {
        p.Close(static_cast<int>(fd));
      }
      EXPECT_EQ(p.Open("/etc/shadow", sim::kORdOnly),
                sim::SysError(sim::Err::kAcces));
    }
  });
  sched.RunUntilExit(pid);

  const core::EngineStats after = env.engine->stats();
  const uint64_t drops = after.drops - before.drops;
  const uint64_t hits =
      drop_rr->rule->hits.load(std::memory_order_relaxed) - hits_before;
  EXPECT_GE(drops, 32u);

  std::vector<AuditRecord> recs = env.engine->audit().Drain();
  std::vector<const AuditRecord*> denies;
  for (const AuditRecord& r : recs) {
    if (r.kind == static_cast<uint8_t>(Kind::kDeny)) {
      denies.push_back(&r);
    }
  }
  // One record per denial.
  ASSERT_EQ(denies.size(), drops);

  uint64_t traversed = 0;
  const uint32_t shadow_sid = env.kernel->labels().Intern("shadow_t");
  for (const AuditRecord* r : denies) {
    // Rule attribution is exact: every denial names the rule that fired.
    EXPECT_EQ(r->chain_id, drop_rr->chain_id);
    EXPECT_EQ(r->rule_index, static_cast<int32_t>(drop_rr->chain_index));
    EXPECT_EQ(r->subject_sid, denies[0]->subject_sid);
    EXPECT_NE(r->flags & kFlagHasObject, 0);
    EXPECT_EQ(r->object_sid, shadow_sid);
    EXPECT_NE(r->flags & kFlagEptValid, 0) << "workload runs framed";
    EXPECT_EQ(r->ept_offset, 0x4000u);
    EXPECT_EQ(r->ept_ino, denies[0]->ept_ino);
    EXPECT_EQ(r->generation, rs->generation);
    const Tier tier = static_cast<Tier>(r->tier);
    if (tier == Tier::kCompiled) {
      ++traversed;
    } else {
      ADD_FAILURE() << "unexpected tier " << TierName(tier);
    }
  }
  // Every decision traverses, so the records match the hit counter exactly.
  EXPECT_EQ(traversed, hits);
  EXPECT_EQ(hits, drops);

  // Conservation, as surfaced through EngineStats.
  const core::EngineStats s = env.engine->stats();
  EXPECT_EQ(s.audit_emitted, s.audit_records + s.audit_suppressed);
  EXPECT_EQ(s.audit_records,
            env.engine->audit().drained() + s.audit_ring_drops);

  // The aggregator groups everything under one (rule, subject, entrypoint).
  std::vector<KeyWindow> windows = env.engine->audit().WindowSnapshot();
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].key.chain_id, drop_rr->chain_id);
  EXPECT_EQ(windows[0].total, drops);
}

TEST(AuditPipelineTest, AuditOnlyModeEmitsAuditedDenyAndAllows) {
  if (!kAuditCompiledIn) {
    GTEST_SKIP() << "audit compiled out (PF_AUDIT=OFF)";
  }
  core::EngineConfig cfg;
  cfg.audit_only = true;
  BootedEngine env = Boot({"pftables -o FILE_OPEN -d shadow_t -j DROP"}, cfg);
  AuditHub::Config acfg;
  acfg.bucket_capacity = 0;
  env.engine->audit().Enable(acfg);

  std::unique_ptr<sim::Task> task = MakeTask(*env.kernel, "staff_t");
  auto shadow = env.kernel->LookupNoHooks("/etc/shadow");
  sim::AccessRequest req = OpenRequest(*task, shadow.get());
  EXPECT_EQ(env.engine->Authorize(req), 0) << "audit mode allows";
  EXPECT_EQ(env.engine->stats().audited_drops, 1u);

  std::vector<AuditRecord> recs = env.engine->audit().Drain();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].kind, static_cast<uint8_t>(Kind::kAuditedDeny));
  EXPECT_EQ(recs[0].subject_sid, task->cred.sid);

  // The kAuditedDeny kind has its own mask bit.
  AuditHub::Config masked;
  masked.bucket_capacity = 0;
  masked.kinds = KindBit(Kind::kDeny);
  env.engine->audit().Enable(masked);
  EXPECT_EQ(env.engine->Authorize(req), 0);
  EXPECT_TRUE(env.engine->audit().Drain().empty());
}

TEST(AuditPipelineTest, LogHitsCarryTheLogRulesAttribution) {
  if (!kAuditCompiledIn) {
    GTEST_SKIP() << "audit compiled out (PF_AUDIT=OFF)";
  }
  BootedEngine env = Boot({
      "pftables -o FILE_OPEN -d shadow_t -j LOG --prefix audit-test",
      "pftables -o FILE_OPEN -d shadow_t -j DROP",
  });
  AuditHub::Config acfg;
  acfg.bucket_capacity = 0;
  env.engine->audit().Enable(acfg);

  std::unique_ptr<sim::Task> task = MakeTask(*env.kernel, "staff_t");
  auto shadow = env.kernel->LookupNoHooks("/etc/shadow");
  sim::AccessRequest req = OpenRequest(*task, shadow.get());
  EXPECT_EQ(env.engine->Authorize(req), sim::SysError(sim::Err::kAcces));

  std::vector<AuditRecord> recs = env.engine->audit().Drain();
  const AuditRecord* log = nullptr;
  const AuditRecord* deny = nullptr;
  for (const AuditRecord& r : recs) {
    if (r.kind == static_cast<uint8_t>(Kind::kLogHit)) {
      log = &r;
    } else if (r.kind == static_cast<uint8_t>(Kind::kDeny)) {
      deny = &r;
    }
  }
  ASSERT_NE(log, nullptr);
  ASSERT_NE(deny, nullptr);
  // Both rules live in the same chain; LOG fired first.
  EXPECT_EQ(log->chain_id, deny->chain_id);
  EXPECT_LT(log->rule_index, deny->rule_index);
  EXPECT_EQ(log->subject_sid, deny->subject_sid);
}

TEST(AuditPipelineTest, PhaseTransitionsEmitFromToRecords) {
  if (!kAuditCompiledIn) {
    GTEST_SKIP() << "audit compiled out (PF_AUDIT=OFF)";
  }
  BootedEngine env = Boot({
      "pftables -o FILE_OPEN -d shadow_t -j PHASE --enter serving",
  });
  AuditHub::Config acfg;
  acfg.bucket_capacity = 0;
  env.engine->audit().Enable(acfg);

  std::unique_ptr<sim::Task> task = MakeTask(*env.kernel, "staff_t");
  auto shadow = env.kernel->LookupNoHooks("/etc/shadow");
  sim::AccessRequest req = OpenRequest(*task, shadow.get());
  EXPECT_EQ(env.engine->Authorize(req), 0) << "PHASE continues, no verdict";

  std::vector<AuditRecord> recs = env.engine->audit().Drain();
  const AuditRecord* phase = nullptr;
  for (const AuditRecord& r : recs) {
    if (r.kind == static_cast<uint8_t>(Kind::kPhase)) {
      phase = &r;
    }
  }
  ASSERT_NE(phase, nullptr);
  EXPECT_EQ(phase->phase_from,
            static_cast<uint64_t>(core::PhaseId(core::kPhaseInitName)));
  EXPECT_EQ(phase->phase_to, static_cast<uint64_t>(core::PhaseId("serving")));
  EXPECT_EQ(phase->chain_id, -1) << "a phase record is not rule-attributed";
  EXPECT_EQ(phase->subject_sid, task->cred.sid);
}

TEST(AuditPipelineTest, DisabledHubEmitsNothing) {
  BootedEngine env = Boot({"pftables -o FILE_OPEN -d shadow_t -j DROP"});
  std::unique_ptr<sim::Task> task = MakeTask(*env.kernel, "staff_t");
  auto shadow = env.kernel->LookupNoHooks("/etc/shadow");
  sim::AccessRequest req = OpenRequest(*task, shadow.get());
  EXPECT_EQ(env.engine->Authorize(req), sim::SysError(sim::Err::kAcces));
  EXPECT_EQ(env.engine->audit().emitted(), 0u);
  EXPECT_TRUE(env.engine->audit().Drain().empty());
}

// --- exporters over real records ------------------------------------------

TEST(AuditExportTest, RenderersCoverDrainedRecords) {
  if (!kAuditCompiledIn) {
    GTEST_SKIP() << "audit compiled out (PF_AUDIT=OFF)";
  }
  BootedEngine env = Boot({"pftables -o FILE_OPEN -d shadow_t -j DROP"});
  AuditHub::Config acfg;
  acfg.bucket_capacity = 0;
  env.engine->audit().Enable(acfg);
  std::unique_ptr<sim::Task> task = MakeTask(*env.kernel, "staff_t");
  auto shadow = env.kernel->LookupNoHooks("/etc/shadow");
  sim::AccessRequest req = OpenRequest(*task, shadow.get());
  EXPECT_EQ(env.engine->Authorize(req), sim::SysError(sim::Err::kAcces));

  std::vector<AuditRecord> recs = env.engine->audit().Drain();
  ASSERT_FALSE(recs.empty());
  trace::NameTable names{&env.kernel->labels()};
  const std::string text = RenderText(recs, names);
  EXPECT_NE(text.find("deny"), std::string::npos);
  EXPECT_NE(text.find("shadow_t"), std::string::npos);
  EXPECT_NE(text.find("staff_t"), std::string::npos);
  const std::string jsonl = RenderJsonLines(recs, names);
  EXPECT_NE(jsonl.find("\"kind\""), std::string::npos);
  const std::string windows = RenderWindows(env.engine->audit(), names);
  EXPECT_NE(windows.find("staff_t"), std::string::npos);
}

}  // namespace
}  // namespace pf::audit
