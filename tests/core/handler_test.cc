// Hand-derived pins for evaluator behaviour that no other test observes:
// the op guard an entrypoint-index list keeps, the image identity -p
// compares, the init phase an absent @phase key stands for, missing compare
// context, an unusable stack under a bare -i, RETURN from a root chain,
// eager versus lazy context fetch, and the hit counters of ACCEPT and
// STATE --unset. Each case states its expected verdicts,
// counters and dictionary in comments, worked out from the rule text alone.

#include <gtest/gtest.h>

#include "src/core/modules.h"
#include "tests/core/decision_rig.h"

namespace pf::core {
namespace {

using Dict = std::map<std::string, int64_t>;

TEST(HandlerTest, EntrypointIndexListKeepsItsOpGuard) {
  // Both rules are entrypoint-indexed, so /bin/true:0x100 selects the list
  // holding rule 1 alone. That list is keyed by (image, offset), not by op:
  // the FILE_OPEN bucket reaches it because rule 2 is an indexed FILE_OPEN
  // rule, and rule 1's -o FILE_WRITE guard must still reject the open.
  DecisionRig rig({
      "pftables -p /bin/true -i 0x100 -o FILE_WRITE -j DROP",
      "pftables -p /bin/true -i 0x200 -o FILE_OPEN -j DROP",
  });
  rig.Frame(0x100);
  // open from /bin/true:0x100 -> rule 1 evaluated, fails its op guard ->
  // allow. Rule 2 sits in another entrypoint's list and is never entered.
  EXPECT_EQ(rig.Decide(rig.Open("/etc/passwd")), kAllow);
  EXPECT_EQ(rig.Evals(1), 1u);
  EXPECT_EQ(rig.Hits(1), 0u);
  EXPECT_EQ(rig.Evals(2), 0u);
  EXPECT_EQ(rig.engine->stats().ept_chain_hits, 1u);
  // A write from the same entrypoint is what rule 1 is for -> DROP, through
  // a second index hit.
  EXPECT_EQ(rig.Decide(rig.On(sim::Op::kFileWrite, "/etc/passwd", sim::SyscallNr::kWrite)),
            kDeny);
  EXPECT_EQ(rig.Hits(1), 1u);
  EXPECT_EQ(rig.engine->stats().ept_chain_hits, 2u);
}

TEST(HandlerTest, ProgramGuardComparesTheWholeImageIdentity) {
  // -p without -i is not entrypoint-indexable, so both rules run from the
  // plain list. /bin/true and /bin/false share a device: only the inode
  // tells them apart.
  DecisionRig rig({
      "pftables -p /bin/false -o FILE_OPEN -j DROP",
      "pftables -p /bin/true -o FILE_OPEN -d shadow_t -j DROP",
  });
  rig.Frame(0x100);
  // open passwd from /bin/true: rule 1 names another binary, rule 2 another
  // label -> allow, both evaluated, no hits.
  EXPECT_EQ(rig.Decide(rig.Open("/etc/passwd")), kAllow);
  // open shadow from /bin/true: rule 2 -> DROP.
  EXPECT_EQ(rig.Decide(rig.Open("/etc/shadow")), kDeny);
  EXPECT_EQ(rig.Evals(1), 2u);
  EXPECT_EQ(rig.Hits(1), 0u);
  EXPECT_EQ(rig.Hits(2), 1u);
}

TEST(HandlerTest, AbsentPhaseIsInit) {
  DecisionRig rig({"pftables -o FILE_OPEN -m PHASE --is init -j DROP"});
  // The task never entered a phase: no @phase key, which reads as init ->
  // DROP, hits 1, and the match writes nothing.
  EXPECT_EQ(rig.Decide(rig.Open("/etc/passwd")), kDeny);
  EXPECT_EQ(rig.Hits(1), 1u);
  EXPECT_EQ(rig.Dict(), Dict{});
  // Entering any other phase ends it -> allow, hits stay 1.
  rig.Dict()[std::string(kPhaseKeyName)] = PhaseId("serving");
  EXPECT_EQ(rig.Decide(rig.Open("/etc/passwd")), kAllow);
  EXPECT_EQ(rig.Hits(1), 1u);

  // --nequal inverts the test: init is not serving -> DROP; serving -> allow.
  DecisionRig neq({"pftables -o FILE_OPEN -m PHASE --is serving --nequal -j DROP"});
  EXPECT_EQ(neq.Decide(neq.Open("/etc/passwd")), kDeny);
  neq.Dict()[std::string(kPhaseKeyName)] = PhaseId("serving");
  EXPECT_EQ(neq.Decide(neq.Open("/etc/passwd")), kAllow);
  EXPECT_EQ(neq.Hits(1), 1u);
}

TEST(HandlerTest, CompareEqualOnMissingContextNeverMatches) {
  // Both operands are absent on a plain open (no link target). Two missing
  // values are not equal values: --equal must not match -> allow, hits 0.
  DecisionRig rig({"pftables -o FILE_OPEN -m COMPARE --v1 C_TGT_DAC_OWNER --v2 "
                   "C_TGT_DAC_OWNER --equal -j DROP"});
  EXPECT_EQ(rig.Decide(rig.Open("/etc/passwd")), kAllow);
  EXPECT_EQ(rig.Evals(1), 1u);
  EXPECT_EQ(rig.Hits(1), 0u);
}

TEST(HandlerTest, EntrypointOffsetNeedsAUsableStack) {
  // The task has no call frames, so the unwind yields no entrypoint. An
  // unusable stack forfeits only the entrypoint rules: -i 0 without -p must
  // not match it, even though an absent entrypoint's offset field reads 0.
  DecisionRig rig({
      "pftables -o FILE_OPEN -j LOG --prefix probe",
      "pftables -i 0 -o FILE_OPEN -j DROP",
  });
  // open -> LOG (hit 1, records entry_valid=false), rule 2 fails -> allow.
  EXPECT_EQ(rig.Decide(rig.Open("/etc/passwd")), kAllow);
  EXPECT_EQ(rig.Hits(1), 1u);
  EXPECT_EQ(rig.Evals(2), 1u);
  EXPECT_EQ(rig.Hits(2), 0u);
  ASSERT_EQ(rig.engine->log().size(), 1u);
  EXPECT_FALSE(rig.engine->log().records()[0].entry_valid);
  EXPECT_EQ(rig.engine->log().records()[0].prefix, "probe");
}

TEST(HandlerTest, ReturnFromARootChainFallsThroughToTheNextChain) {
  // A write consults output, then input. RETURN ends output only: input
  // still runs and decides -> DROP, one hit each.
  DecisionRig rig({
      "pftables -A output -o FILE_WRITE -j RETURN",
      "pftables -A input -o FILE_WRITE -d etc_t -j DROP",
  });
  EXPECT_EQ(rig.Decide(rig.On(sim::Op::kFileWrite, "/etc/passwd", sim::SyscallNr::kWrite)),
            kDeny);
  EXPECT_EQ(rig.Hits(1, "output"), 1u);
  EXPECT_EQ(rig.Hits(1, "input"), 1u);
}

TEST(HandlerTest, ReturnFromARootChainStillMeetsItsPolicy) {
  // Under a DROP policy, RETURN from the root chain is a fallthrough, and a
  // fallthrough meets the policy -> DROP (the RETURN rule itself hits).
  DecisionRig rig({
      "pftables -P output DROP",
      "pftables -A output -o FILE_WRITE -j RETURN",
  });
  EXPECT_EQ(rig.Decide(rig.On(sim::Op::kFileWrite, "/etc/passwd", sim::SyscallNr::kWrite)),
            kDeny);
  EXPECT_EQ(rig.Hits(1, "output"), 1u);
}

TEST(HandlerTest, EagerContextFetchesEveryKindLazyOnlyWhatRulesNeed) {
  // The FULL rung (lazy_context off) fetches every context kind up front;
  // the default fetches only what the rule needs (-d: the object).
  const auto fetches = [](bool lazy) {
    EngineConfig cfg;
    cfg.lazy_context = lazy;
    DecisionRig rig({"pftables -o FILE_OPEN -d shadow_t -j DROP"}, cfg);
    rig.Frame(0x100);
    EXPECT_EQ(rig.Decide(rig.Open("/etc/passwd")), kAllow);
    const EngineStats s = rig.engine->stats();
    EXPECT_EQ(s.unwinds, lazy ? 0u : 1u);
    return s.ctx_fetches;
  };
  const auto n = [](Ctx c) { return static_cast<size_t>(c); };
  const auto eager = fetches(false);
  EXPECT_EQ(eager[n(Ctx::kObject)], 1u);
  EXPECT_EQ(eager[n(Ctx::kLinkTarget)], 1u);
  EXPECT_EQ(eager[n(Ctx::kAdversaryAccess)], 1u);
  EXPECT_EQ(eager[n(Ctx::kEntrypoint)], 1u);
  EXPECT_EQ(eager[n(Ctx::kInterpStack)], 1u);
  const auto lazy = fetches(true);
  EXPECT_EQ(lazy[n(Ctx::kObject)], 1u);
  EXPECT_EQ(lazy[n(Ctx::kLinkTarget)] + lazy[n(Ctx::kAdversaryAccess)] +
                lazy[n(Ctx::kEntrypoint)] + lazy[n(Ctx::kInterpStack)],
            0u);
}

TEST(HandlerTest, AcceptCountsOneHitPerMatchingDecision) {
  DecisionRig rig({
      "pftables -o FILE_OPEN -d etc_t -j ACCEPT",
      "pftables -o FILE_OPEN -j DROP",
  });
  // 3 opens of /etc/passwd (etc_t): rule 1 accepts each, rule 2 never runs.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(rig.Decide(rig.Open("/etc/passwd")), kAllow);
  }
  // 2 opens of /etc/shadow (shadow_t): rule 1 fails, rule 2 drops.
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(rig.Decide(rig.Open("/etc/shadow")), kDeny);
  }
  EXPECT_EQ(rig.Hits(1), 3u);
  EXPECT_EQ(rig.Evals(1), 5u);
  EXPECT_EQ(rig.Hits(2), 2u);
  EXPECT_EQ(rig.Evals(2), 2u);
  const EngineStats s = rig.engine->stats();
  EXPECT_EQ(s.invocations, 5u);
  EXPECT_EQ(s.drops, 2u);
  EXPECT_EQ(s.rules_evaluated, 7u);
}

TEST(HandlerTest, StateUnsetErasesTheKeyAndCountsHits) {
  DecisionRig rig({
      "pftables -o SOCKET_BIND -j STATE --set --key b --value 1",
      "pftables -o FILE_OPEN -j STATE --unset --key b",
      "pftables -o FILE_OPEN -m STATE --key b -j DROP",
  });
  auto bind = [&rig] {
    sim::AccessRequest req = rig.Bare(sim::Op::kSocketBind, sim::SyscallNr::kBind);
    req.name = "/tmp/sock";
    return rig.Decide(req);
  };
  // bind -> rule 1 sets b=1 -> allow, {b:1}.
  EXPECT_EQ(bind(), kAllow);
  EXPECT_EQ(rig.Dict(), (Dict{{"b", 1}}));
  // open -> rule 2 erases b, so rule 3 (present?) fails -> allow, {}.
  EXPECT_EQ(rig.Decide(rig.Open("/etc/passwd")), kAllow);
  EXPECT_EQ(rig.Dict(), Dict{});
  // open again with b already absent: rule 2 still fires -> allow, {}.
  EXPECT_EQ(rig.Decide(rig.Open("/etc/passwd")), kAllow);
  EXPECT_EQ(rig.Dict(), Dict{});
  EXPECT_EQ(rig.Hits(1), 1u);
  EXPECT_EQ(rig.Hits(2), 2u);
  EXPECT_EQ(rig.Evals(3), 2u);
  EXPECT_EQ(rig.Hits(3), 0u);
}

}  // namespace
}  // namespace pf::core
