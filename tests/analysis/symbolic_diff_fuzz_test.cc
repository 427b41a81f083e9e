// Differential proof of the symbolic decision-space model: seeded random
// rule bases (the same five generator flavors the compiled-evaluator fuzz
// battery uses, tests/core/fuzz_rules.h) replayed as concrete request
// streams through Engine::Authorize, with every request also mapped to its
// atom assignment in the model's universe. The region containing the
// assignment must predict the engine's verdict exactly — over evolving
// per-task STATE, entrypoint-indexed chains (both ept modes), JUMP nests at
// the depth cutoff, and native extension modules valued concretely.
//
// The second half proves pfdiff against brute force: for rule base A and a
// one-rule-deleted copy B, a request's concrete verdict flips between A and
// B if and only if its assignment lies in a verdict-changing DiffRegion,
// with from/to matching the observed verdicts.
//
// Seed control: PF_FUZZ_SEEDS=N runs N consecutive seeds (default 16).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "src/analysis/symbolic/diff.h"
#include "src/analysis/symbolic/model.h"
#include "src/apps/programs.h"
#include "src/core/engine.h"
#include "src/core/pftables.h"
#include "src/sim/error.h"
#include "src/sim/sysimage.h"
#include "tests/core/fuzz_rules.h"

namespace pf::analysis::symbolic {
namespace {

constexpr uint64_t kSeedBase = 0xf002;  // same base as the evaluator battery

int SeedCount() {
  if (const char* env = std::getenv("PF_FUZZ_SEEDS"); env != nullptr) {
    const int n = std::atoi(env);
    if (n >= 1) {
      return n;
    }
  }
  return 16;
}

// COUNT with a declared static kind: the runtime behavior is identical to
// the fuzz harness's CountTarget (side-effecting continue), but the model
// can see that it continues — without this the whole model is indeterminate
// by design (a dynamic target could be anything).
class StaticCountTarget : public core::fuzzgen::CountTarget {
 public:
  using CountTarget::CountTarget;
  std::optional<core::TargetKind> StaticKind() const override {
    return core::TargetKind::kContinue;
  }
};

struct TaskProfile {
  const char* label;
  const char* bin;        // nullptr = no stack frames (invalid entrypoint)
  uint64_t offset = 0;    // binary-relative entrypoint offset
};

// Entrypoint classes the generators mention (-i 0x100/0x200/0x300 and
// 0x8000+k*0x40 on the three bins), plus an unmentioned offset and an
// invalid stack.
const TaskProfile kProfiles[] = {
    {"staff_t", "/bin/true", 0x100},
    {"user_t", "/bin/true", 0x200},
    {"etc_t", "/usr/bin/apache2", 0x8000},
    {"user_t", "/bin/sh", 0x8040},
    {"staff_t", "/bin/true", 0x9999},  // offset no rule mentions
    {"tmp_t", nullptr},                // unwind yields no entrypoint
};

struct Env {
  std::unique_ptr<sim::Kernel> kernel;
  core::Engine* engine = nullptr;  // owned by the kernel module list
  std::unique_ptr<core::Engine> scratch;  // for the diff test's B side
  std::unique_ptr<core::Pftables> pft;
  uint64_t count_fires = 0;
};

void RegisterStaticFuzzModules(core::Pftables& pft, uint64_t* count_fires) {
  core::fuzzgen::RegisterFuzzModules(pft, count_fires);
  // Shadow the harness's COUNT with the statically-kinded twin.
  pft.RegisterTarget("COUNT", [count_fires](const std::vector<std::string>& opts,
                                            std::unique_ptr<core::TargetModule>* t) {
    if (!opts.empty()) {
      return core::Status::Error("COUNT takes no options");
    }
    *t = std::make_unique<StaticCountTarget>(count_fires);
    return core::Status::Ok();
  });
}

std::unique_ptr<sim::Task> MakeTask(sim::Kernel& kernel, const TaskProfile& prof,
                                    sim::Pid pid) {
  auto task = std::make_unique<sim::Task>();
  task->pid = pid;
  task->comm = "symfuzz";
  task->exe = prof.bin != nullptr ? prof.bin : sim::kBinTrue;
  task->cred.uid = 0;
  task->cred.euid = 0;
  task->cred.sid = kernel.labels().Intern(prof.label);
  task->cwd = kernel.vfs().root()->id();
  task->mm.Reset(kernel.AslrStackBase());
  if (prof.bin != nullptr) {
    kernel.MapImage(*task, kernel.LookupNoHooks(prof.bin), prof.bin);
    const sim::Mapping* map = task->mm.FindMappingByPath(prof.bin);
    task->mm.PushFrame(map->base + prof.offset, 16, false);
  }
  return task;
}

// Truth of an uninterpreted predicate dimension for a concrete request. The
// generators emit exactly three opaque shapes: the ODD_INO native match, the
// SIGNAL_MATCH handler test (always false here: no task installs handlers),
// and COMPARE with a C_UID variable operand (uid pinned to 0 above).
bool OpaqueTruth(const std::string& id, bool has_object, uint64_t ino) {
  if (id.rfind("ODD_INO", 0) == 0) {
    return has_object && ino % 2 == 1;
  }
  if (id.rfind("SIGNAL_MATCH", 0) == 0) {
    return false;
  }
  if (id.rfind("COMPARE", 0) == 0) {
    const size_t v2 = id.find("--v2 ");
    EXPECT_NE(v2, std::string::npos) << "unparseable COMPARE id: " << id;
    const int64_t rhs = std::strtoll(id.c_str() + v2 + 5, nullptr, 0);
    const bool negate = id.find("--nequal") != std::string::npos;
    const bool equal = rhs == 0;  // C_UID is 0 for every task in this test
    return negate ? !equal : equal;
  }
  ADD_FAILURE() << "opaque dimension with unknown concrete semantics: " << id;
  return false;
}

// Maps one concrete request onto its atom assignment. `dict` is the task's
// STATE dictionary as it stands when Authorize begins.
std::vector<uint32_t> Assignment(const Universe& u, sim::Kernel& kernel,
                                 const TaskProfile& prof, const sim::Task& task,
                                 const sim::AccessRequest& req,
                                 const std::map<std::string, int64_t>& dict) {
  std::vector<uint32_t> a(u.dim_count(), 0);
  a[kDimSubject] = u.AtomForSid(task.cred.sid);
  const bool has_object = req.inode != nullptr;
  const uint64_t ino = has_object ? req.id.ino : 0;
  if (has_object) {
    a[kDimObject] = u.AtomForSid(req.inode->sid);
    a[kDimIno] = u.AtomForIno(ino);
  }
  if (prof.bin != nullptr) {
    const sim::FileId image = kernel.LookupNoHooks(prof.bin)->id();
    a[kDimEpt] = u.AtomForEpt(true, image, prof.offset);
  } else {
    a[kDimEpt] = u.AtomForEpt(false, {}, 0);
  }
  a[kDimInterp] = u.AtomForInterp(sim::InterpLang::kNone, "");
  a[kDimArgBase] = u.AtomForArg(0, static_cast<int64_t>(req.syscall_nr));
  for (int i = 1; i < kNumArgDims; ++i) {
    a[kDimArgBase + i] = u.AtomForArg(i, req.args[static_cast<size_t>(i - 1)]);
  }
  for (size_t i = 0; i < u.state_dims.size(); ++i) {
    const auto it = dict.find(u.state_dims[i].key);
    a[u.StateDimIndex(i)] = u.AtomForState(
        i, it == dict.end() ? std::nullopt : std::optional<int64_t>(it->second));
  }
  for (size_t i = 0; i < u.opaque_ids.size(); ++i) {
    a[u.OpaqueDimIndex(i)] = OpaqueTruth(u.opaque_ids[i], has_object, ino) ? 1 : 0;
  }
  return a;
}

int64_t VerdictOf(OutcomeKind k) {
  return k == OutcomeKind::kAllow ? 0 : sim::SysError(sim::Err::kAcces);
}

Env BootEnv(uint64_t seed, bool ept, bool scratch_second_engine) {
  Env env;
  env.kernel = std::make_unique<sim::Kernel>(0x5eed);
  sim::BuildSysImage(*env.kernel);
  apps::InstallPrograms(*env.kernel);
  core::EngineConfig cfg;
  cfg.ept_chains = ept;
  env.engine = core::InstallProcessFirewall(*env.kernel, cfg);
  env.pft = std::make_unique<core::Pftables>(env.engine);
  RegisterStaticFuzzModules(*env.pft, &env.count_fires);
  env.kernel->MkFileAt("/tmp/t", "x", 0666, 0, 0, "tmp_t");

  std::mt19937_64 rule_rng(seed);
  core::Status s = env.pft->ExecAll(
      core::fuzzgen::RandomRules(rule_rng, core::fuzzgen::FlavorForSeed(seed)));
  EXPECT_TRUE(s.ok()) << "seed " << seed << ": " << s.message();
  if (scratch_second_engine) {
    env.scratch = std::make_unique<core::Engine>(*env.kernel, cfg);
  }
  return env;
}

// ~800 requests per (seed, ept mode): every verdict the engine returns must
// equal the verdict of the unique region containing the request's atoms.
void RunVerdictProof(uint64_t seed, bool ept) {
  Env env = BootEnv(seed, ept, /*scratch_second_engine=*/false);
  if (::testing::Test::HasFatalFailure()) {
    return;
  }
  ModelOptions opts;
  opts.ept_chains = ept;
  const SymbolicModel model =
      BuildModel(*env.engine->CompileRuleset(), env.engine->policy(), nullptr, opts);
  ASSERT_FALSE(model.indeterminate)
      << "seed " << seed << ": static COUNT should keep the model determinate";
  ASSERT_TRUE(model.exact_state)
      << "seed " << seed << ": generators only write literal STATE values";

  std::vector<std::unique_ptr<sim::Task>> tasks;
  for (size_t i = 0; i < std::size(kProfiles); ++i) {
    tasks.push_back(
        MakeTask(*env.kernel, kProfiles[i], static_cast<sim::Pid>(400 + i)));
  }

  const char* kPaths[] = {"/etc/passwd", "/etc/shadow", "/tmp/t", "/bin/true"};
  std::vector<std::shared_ptr<sim::Inode>> pins;
  std::mt19937_64 rng(seed ^ 0x51f7ed);
  const Universe& u = *model.universe;

  for (int i = 0; i < 800; ++i) {
    const size_t ti = rng() % std::size(kProfiles);
    sim::Task& task = *tasks[ti];
    sim::AccessRequest req;
    req.task = &task;
    switch (rng() % 8) {
      case 0:
      case 1:
      case 2: {
        auto inode = env.kernel->LookupNoHooks(kPaths[rng() % std::size(kPaths)]);
        req.op = sim::Op::kFileOpen;
        req.inode = inode.get();
        req.id = inode->id();
        req.syscall_nr = sim::SyscallNr::kOpen;
        pins.push_back(std::move(inode));
        break;
      }
      case 3: {
        auto inode = env.kernel->LookupNoHooks(kPaths[rng() % std::size(kPaths)]);
        req.op = sim::Op::kFileGetattr;
        req.inode = inode.get();
        req.id = inode->id();
        req.syscall_nr = sim::SyscallNr::kStat;
        pins.push_back(std::move(inode));
        break;
      }
      case 4: {
        // The model (like the pairwise analyzer) assumes object-carrying
        // ops carry an object, so the bind request pins one.
        auto inode = env.kernel->LookupNoHooks("/tmp/t");
        req.op = sim::Op::kSocketBind;
        req.inode = inode.get();
        req.id = inode->id();
        req.syscall_nr = sim::SyscallNr::kBind;
        pins.push_back(std::move(inode));
        break;
      }
      case 5:
        req.op = sim::Op::kSignalDeliver;
        req.sig = sim::kSigUsr1;
        req.sig_sender = 1;
        req.syscall_nr = sim::SyscallNr::kKill;
        break;
      default:
        req.op = sim::Op::kSyscallBegin;
        req.syscall_nr = static_cast<sim::SyscallNr>(rng() % 8);
        break;
    }

    // Snapshot the STATE dictionary before the call: region membership is a
    // function of the pre-decision state.
    const std::map<std::string, int64_t> dict = env.engine->TaskState(task).dict;
    const std::vector<uint32_t> a =
        Assignment(u, *env.kernel, kProfiles[ti], task, req, dict);
    const DecisionRegion* region = model.Find(req.op, a);
    ASSERT_NE(region, nullptr)
        << "seed " << seed << " request " << i << ": assignment in no region — "
        << "the partition is not total";
    ASSERT_NE(region->outcome, OutcomeKind::kIndeterminate);

    const int64_t got = env.engine->Authorize(req);
    ASSERT_EQ(got, VerdictOf(region->outcome))
        << "seed " << seed << " (flavor "
        << core::fuzzgen::FlavorName(core::fuzzgen::FlavorForSeed(seed))
        << ", ept " << (ept ? "on" : "off") << ") request " << i << " op "
        << sim::OpName(req.op) << ": engine disagrees with region decided by "
        << region->decided_by << " [" << u.Witness(region->region) << "]";
  }
}

TEST(SymbolicDiffFuzzTest, ModelPredictsEveryVerdict) {
  const int seeds = SeedCount();
  for (int i = 0; i < seeds; ++i) {
    for (const bool ept : {true, false}) {
      RunVerdictProof(kSeedBase + static_cast<uint64_t>(i), ept);
      if (::testing::Test::HasFailure()) {
        return;  // first divergence wins
      }
    }
  }
}

// pfdiff vs brute force: delete the first `input` rule of each seed's base
// and check region membership against observed verdict flips, request by
// request (fresh task per request: both sides decide from empty STATE).
TEST(SymbolicDiffFuzzTest, DiffEqualsBruteForceDelta) {
  const int seeds = std::min(SeedCount(), 6);
  for (int i = 0; i < seeds; ++i) {
    const uint64_t seed = kSeedBase + static_cast<uint64_t>(i);
    Env env = BootEnv(seed, /*ept=*/true, /*scratch_second_engine=*/true);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
    // B = A minus its first input rule, loaded into the scratch engine.
    core::Pftables bpft(env.scratch.get());
    uint64_t scratch_count = 0;
    RegisterStaticFuzzModules(bpft, &scratch_count);
    std::mt19937_64 rule_rng(seed);
    ASSERT_TRUE(bpft.ExecAll(core::fuzzgen::RandomRules(
                                 rule_rng, core::fuzzgen::FlavorForSeed(seed)))
                    .ok());
    ASSERT_TRUE(bpft.Exec("pftables -D input 1").ok())
        << "every generator flavor seeds the input chain";

    const DiffResult diff =
        DiffRulesets(*env.engine->CompileRuleset(), *env.scratch->CompileRuleset(),
                     env.engine->policy());
    const Universe& u = *diff.universe;
    ASSERT_TRUE(diff.exact) << "seed " << seed;

    const char* kPaths[] = {"/etc/passwd", "/etc/shadow", "/tmp/t", "/bin/true"};
    const sim::Op kObjOps[] = {sim::Op::kFileOpen, sim::Op::kFileGetattr,
                               sim::Op::kSocketBind};
    sim::Pid pid = 900;
    int flips = 0;
    for (size_t ti = 0; ti < std::size(kProfiles); ++ti) {
      for (int nr = 0; nr < 8; nr += 3) {
        std::vector<sim::AccessRequest> reqs;
        std::vector<std::shared_ptr<sim::Inode>> pins;
        for (const sim::Op op : kObjOps) {
          for (const char* path : kPaths) {
            auto inode = env.kernel->LookupNoHooks(path);
            sim::AccessRequest req;
            req.op = op;
            req.inode = inode.get();
            req.id = inode->id();
            req.syscall_nr = static_cast<sim::SyscallNr>(nr);
            pins.push_back(std::move(inode));
            reqs.push_back(req);
          }
        }
        {
          sim::AccessRequest sig;
          sig.op = sim::Op::kSignalDeliver;
          sig.sig = sim::kSigUsr1;
          sig.sig_sender = 1;
          sig.syscall_nr = static_cast<sim::SyscallNr>(nr);
          reqs.push_back(sig);
          sim::AccessRequest sys;
          sys.op = sim::Op::kSyscallBegin;
          sys.syscall_nr = static_cast<sim::SyscallNr>(nr);
          reqs.push_back(sys);
        }
        for (sim::AccessRequest& req : reqs) {
          // Fresh task per request: STATE targets fired by one request must
          // not leak into the next (the brute force compares stateless
          // single-request verdicts, which is what the diff regions encode).
          auto task = MakeTask(*env.kernel, kProfiles[ti], pid++);
          req.task = task.get();
          const std::vector<uint32_t> a =
              Assignment(u, *env.kernel, kProfiles[ti], *task, req, {});
          const int64_t va = env.engine->Authorize(req);
          const int64_t vb = env.scratch->Authorize(req);

          const DiffRegion* hit = nullptr;
          int hits = 0;
          for (const DiffRegion& dr : diff.regions) {
            if (dr.op == req.op && dr.region.Contains(a)) {
              ++hits;
              hit = &dr;
            }
          }
          ASSERT_LE(hits, 1) << "seed " << seed << ": diff regions overlap";
          if (va != vb) {
            ++flips;
            ASSERT_EQ(hits, 1)
                << "seed " << seed << " op " << sim::OpName(req.op)
                << ": brute-force verdict flip (" << va << " -> " << vb
                << ") missed by pfdiff";
            EXPECT_EQ(VerdictOf(hit->from), va) << "seed " << seed;
            EXPECT_EQ(VerdictOf(hit->to), vb) << "seed " << seed;
          } else if (hits == 1) {
            EXPECT_EQ(hit->from, hit->to)
                << "seed " << seed << " op " << sim::OpName(req.op)
                << ": pfdiff claims a verdict flip brute force cannot see at "
                << hit->witness;
          }
        }
      }
      if (::testing::Test::HasFailure()) {
        return;
      }
    }
    // Not every seed's deleted rule decides verdicts, but across the seed
    // set at least one must (otherwise the proof proves nothing).
    if (i == 0) {
      RecordProperty("flips_seed0", flips);
    }
  }
}

}  // namespace
}  // namespace pf::analysis::symbolic
