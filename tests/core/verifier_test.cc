// Load-time verifier (src/core/verify.h) tests: a corpus of hand-corrupted
// arena programs — each corruption targeting one invariant the verifier must
// prove — asserting the exact diagnostic code and rule locus, plus the
// property that every program the lowering pipeline produces (across all
// fuzz generator flavors) verifies clean, so the engine's mandatory commit
// gate can never reject a legitimately compiled rule base.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/programs.h"
#include "src/apps/rule_library.h"
#include "src/core/engine.h"
#include "src/core/pftables.h"
#include "src/core/program.h"
#include "src/core/verify.h"
#include "src/sim/sysimage.h"
#include "tests/core/fuzz_rules.h"

namespace pf::core {
namespace {

using analysis::Diagnostic;
using analysis::Severity;

// A booted system with a compiled snapshot of `rules`. The kernel owns the
// engine; the snapshot shares Rule/module objects with it, so everything
// must stay alive together.
struct Compiled {
  std::unique_ptr<sim::Kernel> kernel;
  Engine* engine = nullptr;
  std::unique_ptr<Pftables> pft;
  std::unique_ptr<uint64_t> count_fires = std::make_unique<uint64_t>(0);
  std::shared_ptr<CompiledRuleset> snap;
};

Compiled Build(const std::vector<std::string>& rules) {
  Compiled c;
  c.kernel = std::make_unique<sim::Kernel>(0x5eed);
  sim::BuildSysImage(*c.kernel);
  apps::InstallPrograms(*c.kernel);
  c.engine = InstallProcessFirewall(*c.kernel);
  c.pft = std::make_unique<Pftables>(c.engine);
  fuzzgen::RegisterFuzzModules(*c.pft, c.count_fires.get());
  Status s = c.pft->ExecAll(rules);
  if (!s.ok()) {
    ADD_FAILURE() << "rule install failed: " << s.message();
    return c;
  }
  c.snap = c.engine->CompileRuleset();
  return c;
}

// A small deterministic base containing at least one instance of every
// instruction the corruption corpus pokes at: MATCH_SUBJECT (labelset),
// JUMP, STATE match/set, the native escapes, and LOG.
std::vector<std::string> CorpusRules() {
  return {
      "pftables -N aux",
      "pftables -A input -s staff_t -j aux",
      "pftables -A aux -m STATE --key k --cmp 1 -j DROP",
      "pftables -A aux -j STATE --set --key k --value 2",
      "pftables -A input -m ODD_INO -j COUNT",
      "pftables -A output -d etc_t -j LOG --prefix v",
  };
}

// Re-encodes one instruction into the arena copy under corruption.
void Patch(PfProgram& prog, uint32_t pc, const PfInsn& insn) {
  std::memcpy(prog.arena.data() + pc, &insn, sizeof(insn));
}

// First (record index, arena pc) whose fetched opcode is `op`.
std::optional<std::pair<uint32_t, uint32_t>> FindOp(const PfProgram& prog, PfOp op) {
  for (uint32_t i = 0; i < prog.rules.size(); ++i) {
    const RuleRecord& rec = prog.rules[i];
    for (uint32_t pc = rec.entry; pc < rec.end; pc += kPfInsnWords) {
      if (static_cast<PfOp>(prog.Fetch(pc).op) == op) {
        return std::make_pair(i, pc);
      }
    }
  }
  return std::nullopt;
}

// The locus the verifier must report for record `rec_idx`.
std::string LocusOf(const PfProgram& prog, uint32_t rec_idx) {
  const RuleRecord& rec = prog.rules[rec_idx];
  return "filter/" + prog.chains[static_cast<size_t>(rec.chain_id)].name + ":" +
         std::to_string(rec.chain_index + 1);
}

const Diagnostic* FindDiag(const analysis::AnalysisReport& report,
                           const std::string& code) {
  for (const Diagnostic& d : report.diagnostics()) {
    if (d.code == code) {
      return &d;
    }
  }
  return nullptr;
}

// Corrupts the instruction found by `op`, expecting exactly one way to fail:
// the given code at the record's own locus.
void ExpectRejects(PfProgram prog, PfOp op, const char* code,
                   void (*mutate)(PfInsn&, const PfProgram&)) {
  auto found = FindOp(prog, op);
  ASSERT_TRUE(found.has_value()) << "corpus lacks opcode " << static_cast<int>(op);
  PfInsn insn = prog.Fetch(found->second);
  mutate(insn, prog);
  Patch(prog, found->second, insn);

  VerifyResult vr = VerifyProgram(prog);
  EXPECT_FALSE(vr.ok()) << "corruption of op " << static_cast<int>(op)
                        << " was not rejected";
  const Diagnostic* d = FindDiag(vr.report, code);
  ASSERT_NE(d, nullptr) << "missing " << code << " diagnostic:\n"
                        << vr.report.RenderText();
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->locus.Render(), LocusOf(prog, found->first))
      << "diagnostic not pinned to the corrupted record:\n"
      << vr.report.RenderText();
}

// --- the clean cases ---------------------------------------------------------

TEST(VerifierTest, ShippedLibraryVerifiesClean) {
  Compiled c = Build(apps::RuleLibrary::DefaultRuleBase());
  ASSERT_NE(c.snap, nullptr);
  EXPECT_TRUE(c.snap->verified);
  EXPECT_TRUE(c.snap->verify_report.empty())
      << c.snap->verify_report.RenderText();
  EXPECT_GT(c.snap->verify_ns, 0u);

  VerifyResult vr = VerifyProgram(c.snap->program);
  EXPECT_TRUE(vr.ok());
  EXPECT_TRUE(vr.report.empty()) << vr.report.RenderText();
}

TEST(VerifierTest, CorpusBaseVerifiesCleanBeforeCorruption) {
  Compiled c = Build(CorpusRules());
  ASSERT_NE(c.snap, nullptr);
  EXPECT_TRUE(c.snap->verified);
  VerifyResult vr = VerifyProgram(c.snap->program);
  EXPECT_TRUE(vr.report.empty()) << vr.report.RenderText();
}

// Property: every program the fuzz generators can produce — all five
// flavors — compiles to a program the verifier accepts, and the only
// findings it may raise are the deep-jumps flavor's intentional
// depth-exceeded warnings (its last chain sits past the runtime cutoff).
TEST(VerifierTest, EveryFuzzGeneratedProgramVerifies) {
  for (uint64_t seed = 0xf002; seed < 0xf002 + 10; ++seed) {
    std::mt19937_64 rng(seed);
    Compiled c = Build(fuzzgen::RandomRules(rng, fuzzgen::FlavorForSeed(seed)));
    ASSERT_NE(c.snap, nullptr) << "seed " << seed;
    EXPECT_TRUE(c.snap->verified) << "seed " << seed << ":\n"
                                  << c.snap->verify_report.RenderText();
    for (const Diagnostic& d : c.snap->verify_report.diagnostics()) {
      EXPECT_EQ(d.code, "depth-exceeded") << "seed " << seed;
      EXPECT_EQ(d.severity, Severity::kWarning) << "seed " << seed;
    }
  }
}

// --- the corruption corpus ---------------------------------------------------

TEST(VerifierTest, RejectsOutOfBoundsLabelSetRef) {
  Compiled c = Build(CorpusRules());
  ASSERT_NE(c.snap, nullptr);
  ExpectRejects(c.snap->program, PfOp::kMatchSubject, "pool-oob",
                [](PfInsn& insn, const PfProgram& prog) {
                  insn.a = static_cast<uint32_t>(prog.labelsets.size()) + 7;
                });
}

TEST(VerifierTest, RejectsOutOfBoundsStateOperand) {
  Compiled c = Build(CorpusRules());
  ASSERT_NE(c.snap, nullptr);
  // The STATE --cmp rule lowers to the specialized kMatchStateEq form.
  ExpectRejects(c.snap->program, PfOp::kMatchStateEq, "pool-oob",
                [](PfInsn& insn, const PfProgram& prog) {
                  insn.b = prog.operands.size() + 3;
                });
}

TEST(VerifierTest, RejectsUnresolvedJumpTarget) {
  Compiled c = Build(CorpusRules());
  ASSERT_NE(c.snap, nullptr);
  ExpectRejects(c.snap->program, PfOp::kJump, "jump-target-oob",
                [](PfInsn& insn, const PfProgram& prog) {
                  insn.a = static_cast<uint32_t>(prog.chains.size()) + 3;
                });
}

TEST(VerifierTest, RejectsStoreOutsideStateSlots) {
  Compiled c = Build(CorpusRules());
  ASSERT_NE(c.snap, nullptr);
  ExpectRejects(c.snap->program, PfOp::kStateSet, "state-slot-oob",
                [](PfInsn& insn, const PfProgram& prog) {
                  insn.a = static_cast<uint32_t>(prog.strings.size()) + 1;
                });
}

TEST(VerifierTest, RejectsBadNativeMatchIndex) {
  Compiled c = Build(CorpusRules());
  ASSERT_NE(c.snap, nullptr);
  ExpectRejects(c.snap->program, PfOp::kMatchNative, "native-oob",
                [](PfInsn& insn, const PfProgram& prog) {
                  insn.a = static_cast<uint32_t>(prog.native_matches.size());
                });
}

TEST(VerifierTest, RejectsBadNativeTargetIndex) {
  Compiled c = Build(CorpusRules());
  ASSERT_NE(c.snap, nullptr);
  ExpectRejects(c.snap->program, PfOp::kTargetNative, "native-oob",
                [](PfInsn& insn, const PfProgram& prog) {
                  insn.a = static_cast<uint32_t>(prog.native_targets.size());
                });
}

TEST(VerifierTest, RejectsBadOpcode) {
  Compiled c = Build(CorpusRules());
  ASSERT_NE(c.snap, nullptr);
  // The first value past the instruction set, and one far outside it.
  ExpectRejects(c.snap->program, PfOp::kLog, "bad-opcode",
                [](PfInsn& insn, const PfProgram&) {
                  insn.op = static_cast<uint8_t>(kPfOpCount);
                });
  ExpectRejects(c.snap->program, PfOp::kLog, "bad-opcode",
                [](PfInsn& insn, const PfProgram&) { insn.op = 0xee; });
}

TEST(VerifierTest, RejectsTruncatedArena) {
  Compiled c = Build(CorpusRules());
  ASSERT_NE(c.snap, nullptr);
  PfProgram prog = c.snap->program;
  ASSERT_FALSE(prog.arena.empty());
  prog.arena.pop_back();  // last record now runs past the arena end

  VerifyResult vr = VerifyProgram(prog);
  EXPECT_FALSE(vr.ok());
  const Diagnostic* d = FindDiag(vr.report, "arena-truncated");
  ASSERT_NE(d, nullptr) << vr.report.RenderText();
  EXPECT_EQ(d->severity, Severity::kError);
}

TEST(VerifierTest, RejectsChainTableOutOfBounds) {
  Compiled c = Build(CorpusRules());
  ASSERT_NE(c.snap, nullptr);
  PfProgram prog = c.snap->program;
  ASSERT_FALSE(prog.entries.empty());
  prog.entries[0] = static_cast<uint32_t>(prog.rules.size()) + 11;

  VerifyResult vr = VerifyProgram(prog);
  EXPECT_FALSE(vr.ok());
  const Diagnostic* d = FindDiag(vr.report, "chain-table-oob");
  ASSERT_NE(d, nullptr) << vr.report.RenderText();
  EXPECT_EQ(d->severity, Severity::kError);
  // Chain-table findings are chain-level, not record-level: the locus names
  // the owning chain with no rule position.
  EXPECT_EQ(d->locus.pos, 0) << d->locus.Render();
  EXPECT_FALSE(d->locus.chain.empty());
}

// --- classifier proofs -------------------------------------------------------

// First bucket with a live classifier matching `pred`.
template <typename Pred>
ProgramBucket* FindBucket(PfProgram& prog, Pred pred) {
  for (ProgramChain& chain : prog.chains) {
    for (ProgramBucket& b : chain.ops) {
      if (b.has_classifier && pred(b)) {
        return &b;
      }
    }
  }
  return nullptr;
}

void ExpectClassifierDiag(const PfProgram& prog, const char* code) {
  VerifyResult vr = VerifyProgram(prog);
  EXPECT_FALSE(vr.ok()) << "corrupted classifier was accepted";
  const Diagnostic* d = FindDiag(vr.report, code);
  ASSERT_NE(d, nullptr) << "missing " << code << " diagnostic:\n"
                        << vr.report.RenderText();
  EXPECT_EQ(d->severity, Severity::kError);
  // Classifier findings are chain-level (the bucket has no single rule).
  EXPECT_EQ(d->locus.pos, 0) << d->locus.Render();
  EXPECT_FALSE(d->locus.chain.empty());
}

TEST(VerifierTest, RejectsClassifierResidualSliceOutOfBounds) {
  Compiled c = Build(CorpusRules());
  ASSERT_NE(c.snap, nullptr);
  PfProgram prog = c.snap->program;
  ProgramBucket* b =
      FindBucket(prog, [](const ProgramBucket& pb) { return pb.residual_len > 0; });
  ASSERT_NE(b, nullptr) << "corpus produced no classifier residual";
  b->residual_off = static_cast<uint32_t>(prog.entries.size());
  ExpectClassifierDiag(prog, "classifier-oob");
}

TEST(VerifierTest, RejectsClassifierTupleCountBeyondMaskLimit) {
  Compiled c = Build(CorpusRules());
  ASSERT_NE(c.snap, nullptr);
  PfProgram prog = c.snap->program;
  // The evaluator merges into a fixed array of kTupleMaskLimit + 1 active
  // slices; a count past that (or past the table pool) must be rejected
  // before dispatch, not discovered by an overrun.
  ProgramBucket* b =
      FindBucket(prog, [](const ProgramBucket& pb) { return pb.tuple_cnt > 0; });
  ASSERT_NE(b, nullptr) << "corpus produced no tuple tables (exact-dim rules missing?)";
  b->tuple_cnt = kTupleMaskLimit + 1;
  ExpectClassifierDiag(prog, "classifier-oob");
}

TEST(VerifierTest, RejectsClassifierSlotCountNotPowerOfTwo) {
  Compiled c = Build(CorpusRules());
  ASSERT_NE(c.snap, nullptr);
  PfProgram prog = c.snap->program;
  const ProgramBucket* b =
      FindBucket(prog, [](const ProgramBucket& pb) { return pb.tuple_cnt > 0; });
  ASSERT_NE(b, nullptr);
  // The probe's wrap-around masks with slot_count - 1; anything that is not
  // a power of two would silently alias slots.
  prog.tuple_tables[b->tuple_off].slot_count += 1;
  ExpectClassifierDiag(prog, "classifier-oob");
}

TEST(VerifierTest, RejectsClassifierDroppingARuleFromCoverage) {
  Compiled c = Build(CorpusRules());
  ASSERT_NE(c.snap, nullptr);
  PfProgram prog = c.snap->program;
  // Shrinking the residual by one rule keeps every slice in bounds but
  // leaves a rule the scan would evaluate unreachable by any probe — the
  // exactly-once coverage proof must catch it.
  ProgramBucket* b =
      FindBucket(prog, [](const ProgramBucket& pb) { return pb.residual_len > 0; });
  ASSERT_NE(b, nullptr);
  b->residual_len -= 1;
  ExpectClassifierDiag(prog, "classifier-coverage");
}

TEST(VerifierTest, RejectsClassifierDoubleCoveringARule) {
  Compiled c = Build(CorpusRules());
  ASSERT_NE(c.snap, nullptr);
  PfProgram prog = c.snap->program;
  // Pointing an occupied tuple slot at the bucket's full `all` slice keeps
  // everything in bounds but double-covers whatever the residual already
  // holds — a probe hitting that key would evaluate rules twice, so the
  // multiset comparison must reject it.
  const ProgramBucket* b = FindBucket(prog, [](const ProgramBucket& pb) {
    return pb.tuple_cnt > 0 && pb.all_len > 0;
  });
  ASSERT_NE(b, nullptr);
  const TupleTable& t = prog.tuple_tables[b->tuple_off];
  TupleSlot* slot = nullptr;
  for (uint32_t s = 0; s < t.slot_count; ++s) {
    if (prog.tuple_slots[t.slot_off + s].len > 0) {
      slot = &prog.tuple_slots[t.slot_off + s];
      break;
    }
  }
  ASSERT_NE(slot, nullptr) << "occupied tuple table has no occupied slot";
  slot->off = b->all_off;
  slot->len = b->all_len;
  ExpectClassifierDiag(prog, "classifier-coverage");
}

// --- rule records ------------------------------------------------------------

// The evaluator bumps the counters of every record an entry list names
// through RuleRecord::rule, so a record without a rule must never load.
// Point one `plain` slice entry at an appended copy of a real record (its
// own arena words, RULE_BEGIN naming the copy) with the rule cleared: the
// copy is sound in every other respect, so only the rule check can catch it.
TEST(VerifierTest, RejectsRecordWithoutRule) {
  Compiled c = Build(CorpusRules());
  ASSERT_NE(c.snap, nullptr);
  PfProgram prog = c.snap->program;
  const ProgramBucket* b =
      FindBucket(prog, [](const ProgramBucket& pb) { return pb.plain_len > 0; });
  ASSERT_NE(b, nullptr);
  RuleRecord copy = prog.rules[prog.entries[b->plain_off]];
  const std::vector<uint64_t> words(prog.arena.begin() + copy.entry,
                                    prog.arena.begin() + copy.end);
  const uint32_t shift = static_cast<uint32_t>(prog.arena.size()) - copy.entry;
  copy.entry += shift;
  copy.body += shift;
  copy.end += shift;
  copy.rule = nullptr;
  prog.arena.insert(prog.arena.end(), words.begin(), words.end());
  const uint32_t idx = static_cast<uint32_t>(prog.rules.size());
  PfInsn begin = prog.Fetch(copy.entry);
  begin.a = idx;
  Patch(prog, copy.entry, begin);
  prog.rules.push_back(copy);
  prog.entries[b->plain_off] = idx;

  VerifyResult vr = VerifyProgram(prog);
  EXPECT_FALSE(vr.ok()) << "a slice naming a record without a rule was accepted";
  const Diagnostic* d = FindDiag(vr.report, "rule-malformed");
  ASSERT_NE(d, nullptr) << vr.report.RenderText();
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->locus.Render(), LocusOf(prog, idx)) << vr.report.RenderText();
  EXPECT_EQ(vr.report.errors(), 1u) << vr.report.RenderText();
}

// --- STATE protocol ------------------------------------------------------------

// The corpus STATE rules (match k==1, set k=2 on the input/aux buckets) lower
// to literal STATE instructions whose key and operand indices the verifier
// proves in-pool.
TEST(VerifierTest, CorpusLowersAStateProtocolAndVerifiesClean) {
  Compiled c = Build(CorpusRules());
  ASSERT_NE(c.snap, nullptr);
  const PfProgram& prog = c.snap->program;
  EXPECT_TRUE(FindOp(prog, PfOp::kMatchStateEq).has_value())
      << "corpus STATE match on key k did not lower";
  EXPECT_TRUE(FindOp(prog, PfOp::kStateSet).has_value())
      << "corpus STATE --set on key k did not lower";
  VerifyResult vr = VerifyProgram(prog);
  EXPECT_TRUE(vr.ok()) << vr.report.RenderText();
}

// --- depth semantics ---------------------------------------------------------

// The deep-jumps generator builds a nest of exactly kMaxChainDepth chains;
// the last one is entered at the runtime cutoff and never executes. That is
// a reachability wart, not a safety hole: warning by default (the commit
// gate must keep accepting such bases), error only under strict_depth.
TEST(VerifierTest, OverDepthChainWarnsByDefaultErrorsUnderStrict) {
  std::mt19937_64 rng(0xd0);
  Compiled c = Build(fuzzgen::RandomRules(rng, fuzzgen::Flavor::kDeepJumps));
  ASSERT_NE(c.snap, nullptr);
  const std::string last_chain = "d" + std::to_string(kMaxChainDepth);

  VerifyResult lax = VerifyProgram(c.snap->program);
  EXPECT_TRUE(lax.ok()) << lax.report.RenderText();
  const Diagnostic* warn = FindDiag(lax.report, "depth-exceeded");
  ASSERT_NE(warn, nullptr) << lax.report.RenderText();
  EXPECT_EQ(warn->severity, Severity::kWarning);
  EXPECT_EQ(warn->locus.Render(), "filter/" + last_chain);

  VerifyOptions strict;
  strict.strict_depth = true;
  VerifyResult hard = VerifyProgram(c.snap->program, strict);
  EXPECT_FALSE(hard.ok());
  const Diagnostic* err = FindDiag(hard.report, "depth-exceeded");
  ASSERT_NE(err, nullptr) << hard.report.RenderText();
  EXPECT_EQ(err->severity, Severity::kError);
  EXPECT_EQ(err->locus.Render(), "filter/" + last_chain);
}

}  // namespace
}  // namespace pf::core
