#include "src/analysis/analyzer.h"

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/modules.h"

namespace pf::analysis {

namespace {

using core::CompiledRuleset;
using core::Ctx;
using core::CtxBit;
using core::CtxMask;
using core::CtxVar;
using core::PfInsn;
using core::PfOp;
using core::PfProgram;
using core::ProgramChain;
using core::Rule;
using core::RuleRecord;
using core::TargetKind;

std::string CtxName(Ctx c) {
  switch (c) {
    case Ctx::kObject:
      return "object";
    case Ctx::kLinkTarget:
      return "link-target";
    case Ctx::kAdversaryAccess:
      return "adversary-access";
    case Ctx::kEntrypoint:
      return "entrypoint";
    case Ctx::kUserStack:
      return "user-stack";
    case Ctx::kInterpStack:
      return "interp-stack";
    case Ctx::kCount:
      break;
  }
  return "?";
}

std::string CtxNames(CtxMask mask) {
  std::string out;
  for (uint32_t i = 0; i < static_cast<uint32_t>(Ctx::kCount); ++i) {
    if ((mask & (1u << i)) != 0) {
      if (!out.empty()) {
        out += "+";
      }
      out += CtxName(static_cast<Ctx>(i));
    }
  }
  return out.empty() ? "nothing" : out;
}

// How one instruction touches the STATE dictionary: the key it reads or
// writes (kMatchPhase reads the reserved "@phase" key), viewed into the
// program's string pool.
struct StateRef {
  enum Use { kCheck, kSet, kUnset };
  std::string_view key;
  Use use = kCheck;
};

std::optional<StateRef> StateRefOfInsn(const PfProgram& prog, const PfInsn& insn) {
  switch (static_cast<PfOp>(insn.op)) {
    case PfOp::kMatchState:
    case PfOp::kMatchStateEq:
    case PfOp::kMatchStateNe:
      return StateRef{prog.strings[insn.a], StateRef::kCheck};
    case PfOp::kStateSet:
      return StateRef{prog.strings[insn.a], StateRef::kSet};
    case PfOp::kStateUnset:
      return StateRef{prog.strings[insn.a], StateRef::kUnset};
    case PfOp::kMatchPhase:
      return StateRef{core::kPhaseKeyName, StateRef::kCheck};
    default:
      return std::nullopt;
  }
}

RuleLocus Locus(const std::string& chain, size_t pos0) {
  return RuleLocus{"filter", chain, pos0 + 1};
}

RuleLocus ChainLocus(const std::string& chain) { return RuleLocus{"filter", chain, 0}; }

// --- per-op available context -------------------------------------------------

// Whether the kernel supplies an object inode with this operation (signal
// delivery, syscall entry, and fork mediate subject-side events only).
bool OpHasObject(sim::Op op) {
  switch (op) {
    case sim::Op::kSignalDeliver:
    case sim::Op::kSyscallBegin:
    case sim::Op::kFork:
      return false;
    default:
      return true;
  }
}

// Context fields a rule evaluated at `op` could ever observe as present.
// Process-side context (entrypoint, stacks) is always fetchable; object-side
// context needs an object; link-target context exists only while following a
// symlink.
CtxMask AvailableCtx(sim::Op op) {
  CtxMask m = CtxBit(Ctx::kEntrypoint) | CtxBit(Ctx::kUserStack) |
              CtxBit(Ctx::kInterpStack);
  if (OpHasObject(op)) {
    m |= CtxBit(Ctx::kObject) | CtxBit(Ctx::kAdversaryAccess);
  }
  if (op == sim::Op::kLnkFileRead) {
    m |= CtxBit(Ctx::kLinkTarget);
  }
  return m;
}

// Whether Packet::Resolve can ever produce a value for this operand at `op`
// (mirrors the per-op guards in packet.cc).
bool OperandAvailable(const core::Operand& v, sim::Op op) {
  if (!v.is_var) {
    return true;
  }
  switch (v.var) {
    case CtxVar::kIno:
    case CtxVar::kGen:
    case CtxVar::kDev:
    case CtxVar::kSid:
    case CtxVar::kDacOwner:
      return OpHasObject(op);
    case CtxVar::kTgtDacOwner:
    case CtxVar::kTgtSid:
      return op == sim::Op::kLnkFileRead;
    case CtxVar::kSig:
      return op == sim::Op::kSignalDeliver;
    case CtxVar::kPid:
    case CtxVar::kUid:
    case CtxVar::kEuid:
    case CtxVar::kSyscall:
      return true;
  }
  return true;
}

// --- rule summaries -----------------------------------------------------------

// Dense bitvector over the interned-label universe: the concrete expansion
// of one LabelSet (negation and SYSHIGH resolved against the MAC policy).
struct SidSet {
  std::vector<bool> bits;

  bool Any() const {
    return std::find(bits.begin(), bits.end(), true) != bits.end();
  }
  bool SupersetOf(const SidSet& o) const {
    for (size_t i = 0; i < bits.size(); ++i) {
      if (o.bits[i] && !bits[i]) {
        return false;
      }
    }
    return true;
  }
};

struct RuleInfo {
  const Rule* rule = nullptr;
  size_t pos0 = 0;
  SidSet subject;          // expansion of -s over all interned sids
  SidSet object;           // expansion of -d (all-true when wildcard)
  bool requires_object = false;
  std::optional<TargetKind> static_kind;
};

SidSet ExpandSubject(const core::LabelSet& ls, const sim::MacPolicy& policy,
                     size_t universe) {
  SidSet s;
  s.bits.resize(universe);
  for (size_t sid = 0; sid < universe; ++sid) {
    s.bits[sid] = ls.MatchesSubject(static_cast<sim::Sid>(sid), policy);
  }
  return s;
}

SidSet ExpandObject(const core::LabelSet& ls, const sim::MacPolicy& policy,
                    size_t universe) {
  SidSet s;
  s.bits.resize(universe);
  for (size_t sid = 0; sid < universe; ++sid) {
    s.bits[sid] = ls.MatchesObject(static_cast<sim::Sid>(sid), policy);
  }
  return s;
}

// Summaries are built from the program's rule records: the static verdict
// kind is the one the lowering pass computed (so analyzer and evaluator
// agree by construction), while the label-set expansion goes through the
// record's side pointer — the arena stores interned sid slices, not the MAC
// policy they expand against.
RuleInfo Summarize(const RuleRecord& rec, size_t pos0, const sim::MacPolicy& policy,
                   size_t universe) {
  const Rule& rule = *rec.rule;
  RuleInfo info;
  info.rule = &rule;
  info.pos0 = pos0;
  info.subject = ExpandSubject(rule.subject, policy, universe);
  info.object = ExpandObject(rule.object, policy, universe);
  info.requires_object = !rule.object.wildcard || rule.ino.has_value();
  info.static_kind = rec.static_kind;
  return info;
}

bool IsTerminal(std::optional<TargetKind> k) {
  return k == TargetKind::kAccept || k == TargetKind::kDrop || k == TargetKind::kReturn;
}

// True when every packet rule `b` matches is also matched by rule `a`
// (match-space containment). Sound under the engine's traversal: the
// default-match comparisons mirror DefaultMatches field by field, and -m
// modules compare through MatchModule::Subsumes. Note the entrypoint index
// cannot reorder a subsuming pair past each other: `a` carrying a program or
// entrypoint constraint forces `b` to carry the same one, so the pair always
// lands in the same (plain or per-entrypoint) partition.
bool Subsumes(const RuleInfo& a, const RuleInfo& b) {
  const Rule& ra = *a.rule;
  const Rule& rb = *b.rule;
  if (ra.op && (!rb.op || *rb.op != *ra.op)) {
    return false;
  }
  if (!a.subject.SupersetOf(b.subject)) {
    return false;
  }
  if (a.requires_object) {
    if (!b.requires_object) {
      return false;  // b also matches object-less requests
    }
    if (ra.ino && (!rb.ino || *rb.ino != *ra.ino)) {
      return false;
    }
    if (!a.object.SupersetOf(b.object)) {
      return false;
    }
  }
  if (ra.has_program() &&
      (!rb.has_program() || !(rb.program_file == ra.program_file))) {
    return false;
  }
  if (ra.entrypoint && (!rb.entrypoint || *rb.entrypoint != *ra.entrypoint)) {
    return false;
  }
  for (const auto& ma : ra.matches) {
    bool covered = false;
    for (const auto& mb : rb.matches) {
      if (ma->Subsumes(*mb)) {
        covered = true;
        break;
      }
    }
    if (!covered) {
      return false;
    }
  }
  return true;
}

Severity DropAware(std::optional<TargetKind> kind) {
  return kind == TargetKind::kDrop ? Severity::kError : Severity::kWarning;
}

// Why `info.rule` can never match at `op`, or "" when it can. Mirrors the
// runtime behavior: DefaultMatches fails when a required object is absent,
// SIGNAL_MATCH pins the op, and STATE/COMPARE operands resolve per op.
std::string BlockReason(const RuleInfo& info, sim::Op op) {
  const Rule& rule = *info.rule;
  const std::string opname = std::string(sim::OpName(op));
  if (info.requires_object && !OpHasObject(op)) {
    return "-d/--ino require an object and -o " + opname + " carries none";
  }
  for (const auto& m : rule.matches) {
    CtxMask missing = m->Needs() & ~AvailableCtx(op);
    if (missing != 0) {
      return "-m " + std::string(m->Name()) + " needs " + CtxNames(missing) +
             " context, which -o " + opname + " never supplies";
    }
    if (dynamic_cast<const core::SignalMatch*>(m.get()) != nullptr &&
        op != sim::Op::kSignalDeliver) {
      return "-m SIGNAL_MATCH matches only -o PROCESS_SIGNAL_DELIVERY";
    }
    if (const auto* sm = dynamic_cast<const core::StateMatch*>(m.get());
        sm != nullptr && sm->cmp && !OperandAvailable(*sm->cmp, op)) {
      return "-m STATE --cmp " + sm->cmp->Render() + " never resolves at -o " + opname;
    }
    if (const auto* cm = dynamic_cast<const core::CompareMatch*>(m.get())) {
      for (const core::Operand* v : {&cm->v1, &cm->v2}) {
        if (!OperandAvailable(*v, op)) {
          return "-m COMPARE operand " + v->Render() + " never resolves at -o " +
                 opname;
        }
      }
    }
  }
  return "";
}

// --- analysis passes ----------------------------------------------------------

// Every pass runs over the program form (rs.program): chain ids index the
// per-chain tables, JUMP edges and static verdict kinds come from the
// lowered RuleRecords, and the per-op reachability closure walks the same
// entry-table slices the compiled evaluator dispatches over — what is
// analyzed is literally what executes. The RuleRecord side pointers into the
// shared Rule objects supply the parts the arena intentionally does not
// encode: label-set expansion against the MAC policy, module subsumption,
// and context-needs classification.
struct Analysis {
  const CompiledRuleset& rs;
  const sim::MacPolicy& policy;
  const AnalyzerOptions& opts;
  AnalysisReport* report;
  const PfProgram& prog;

  // Per-chain rule summaries, indexed by program chain id.
  std::vector<std::vector<RuleInfo>> infos;
  // Chains reachable per op via the engine's root selection + JUMP edges.
  std::array<std::vector<char>, sim::kOpCount> reach;
  // Chains reachable from any root, op-agnostic (for unreachable-chain).
  std::vector<char> reach_any;
  // Minimum JUMP depth a chain is entered at (roots = 0; -1 = unreachable).
  std::vector<int> min_depth;
  bool has_cycle = false;

  void Run();

 private:
  void BuildSummaries();
  void BuildReachability();
  void CheckShadowing();
  void CheckJumpGraph();
  void CheckRuleLiveness();
  void CheckStateProtocol();
};

void Analysis::BuildSummaries() {
  const size_t universe = policy.labels().size();
  infos.resize(prog.chains.size());
  for (size_t id = 0; id < prog.chains.size(); ++id) {
    const ProgramChain& pc = prog.chains[id];
    infos[id].reserve(pc.rules.size());
    for (size_t i = 0; i < pc.rules.size(); ++i) {
      infos[id].push_back(Summarize(prog.rules[pc.rules[i]], i, policy, universe));
    }
  }
}

void Analysis::BuildReachability() {
  // Mirror Engine::Authorize's root-chain selection per op, then close over
  // JUMP edges using the program's per-op bucket slices (a rule whose -o
  // precheck cannot pass is not in the bucket, so its jump does not extend
  // reach).
  for (auto& r : reach) {
    r.assign(prog.chains.size(), 0);
  }
  reach_any.assign(prog.chains.size(), 0);
  min_depth.assign(prog.chains.size(), -1);

  for (size_t opi = 0; opi < sim::kOpCount; ++opi) {
    const sim::Op op = static_cast<sim::Op>(opi);
    std::vector<int32_t> roots;
    if (op == sim::Op::kSyscallBegin) {
      roots.push_back(prog.root_syscallbegin);
    } else {
      if (core::IsCreateOp(op)) {
        roots.push_back(prog.root_create);
      }
      if (core::IsOutputOp(op)) {
        roots.push_back(prog.root_output);
      }
      roots.push_back(prog.root_input);
    }
    std::deque<int32_t> queue;
    for (int32_t root : roots) {
      if (root >= 0 && reach[opi][static_cast<size_t>(root)] == 0) {
        reach[opi][static_cast<size_t>(root)] = 1;
        queue.push_back(root);
      }
    }
    while (!queue.empty()) {
      const int32_t id = queue.front();
      queue.pop_front();
      const core::ProgramBucket& bucket = prog.chains[static_cast<size_t>(id)].ops[opi];
      for (uint32_t i = 0; i < bucket.all_len; ++i) {
        const RuleRecord& rec = prog.rules[prog.entries[bucket.all_off + i]];
        if (rec.jump_chain >= 0 && reach[opi][static_cast<size_t>(rec.jump_chain)] == 0) {
          reach[opi][static_cast<size_t>(rec.jump_chain)] = 1;
          queue.push_back(rec.jump_chain);
        }
      }
    }
  }

  // Op-agnostic reachability with entry depths (BFS = minimum JUMP depth).
  std::deque<int32_t> queue;
  for (int32_t root :
       {prog.root_input, prog.root_output, prog.root_create, prog.root_syscallbegin}) {
    if (root >= 0 && reach_any[static_cast<size_t>(root)] == 0) {
      reach_any[static_cast<size_t>(root)] = 1;
      min_depth[static_cast<size_t>(root)] = 0;
      queue.push_back(root);
    }
  }
  while (!queue.empty()) {
    const int32_t id = queue.front();
    queue.pop_front();
    for (uint32_t rec_idx : prog.chains[static_cast<size_t>(id)].rules) {
      const RuleRecord& rec = prog.rules[rec_idx];
      if (rec.jump_chain >= 0 && reach_any[static_cast<size_t>(rec.jump_chain)] == 0) {
        reach_any[static_cast<size_t>(rec.jump_chain)] = 1;
        min_depth[static_cast<size_t>(rec.jump_chain)] =
            min_depth[static_cast<size_t>(id)] + 1;
        queue.push_back(rec.jump_chain);
      }
    }
  }
}

void Analysis::CheckShadowing() {
  for (size_t id = 0; id < prog.chains.size(); ++id) {
    const std::string& name = prog.chains[id].name;
    const std::vector<RuleInfo>& v = infos[id];
    for (size_t j = 1; j < v.size(); ++j) {
      // Empty-expansion rules are reported by CheckRuleLiveness; a shadow
      // diagnostic on top of "matches nothing" would be noise.
      if (!v[j].subject.Any() || (v[j].requires_object && !v[j].object.Any())) {
        continue;
      }
      for (size_t i = 0; i < j; ++i) {
        if (!IsTerminal(v[i].static_kind)) {
          continue;  // non-terminal (or unknown) rules let traversal continue
        }
        if (!Subsumes(v[i], v[j])) {
          continue;
        }
        std::string kind =
            v[i].static_kind == TargetKind::kDrop     ? "DROP"
            : v[i].static_kind == TargetKind::kAccept ? "ACCEPT"
                                                      : "RETURN";
        report->Add(DropAware(v[j].static_kind), "shadowed-rule", Locus(name, j),
                    "rule can never fire: every packet it matches is consumed by the "
                    "earlier terminal " +
                        kind + " rule at position " + std::to_string(i + 1),
                    Locus(name, i));
        break;  // one shadow finding per rule
      }
    }
  }
}

void Analysis::CheckJumpGraph() {
  // Undefined targets + RETURN in a root chain, straight off the rule
  // records: an undefined JUMP is a record with a declared target name but
  // no resolved chain id.
  for (size_t id = 0; id < prog.chains.size(); ++id) {
    const ProgramChain& pc = prog.chains[id];
    for (size_t i = 0; i < pc.rules.size(); ++i) {
      const RuleRecord& rec = prog.rules[pc.rules[i]];
      if (rec.jump_name != core::kPfNoIndex && rec.jump_chain < 0) {
        report->Add(Severity::kError, "undefined-chain", Locus(pc.name, i),
                    "JUMP to undefined chain '" + prog.strings[rec.jump_name] + "'");
      }
      if (pc.builtin && rec.static_kind == TargetKind::kReturn) {
        report->Add(Severity::kWarning, "return-from-root", Locus(pc.name, i),
                    "RETURN in builtin chain '" + pc.name +
                        "' skips the remaining rules of the chain and falls through "
                        "to the default policy");
      }
    }
  }

  // Cycle detection: iterative DFS over jump edges, every chain a start
  // node (cycles among unreachable chains still hang a future reload).
  enum class Color { kWhite, kGrey, kBlack };
  std::vector<Color> color(prog.chains.size(), Color::kWhite);
  // Each stack frame: (chain id, next rule index to expand).
  for (size_t start = 0; start < prog.chains.size(); ++start) {
    if (color[start] != Color::kWhite) {
      continue;
    }
    std::vector<std::pair<int32_t, size_t>> stack;
    stack.emplace_back(static_cast<int32_t>(start), 0);
    color[start] = Color::kGrey;
    while (!stack.empty()) {
      auto& [cur, idx] = stack.back();
      const ProgramChain& pc = prog.chains[static_cast<size_t>(cur)];
      if (idx >= pc.rules.size()) {
        color[static_cast<size_t>(cur)] = Color::kBlack;
        stack.pop_back();
        continue;
      }
      const size_t rule_idx = idx++;
      const int32_t next = prog.rules[pc.rules[rule_idx]].jump_chain;
      if (next < 0) {
        continue;
      }
      if (color[static_cast<size_t>(next)] == Color::kGrey) {
        has_cycle = true;
        // Render the cycle: the segment of the DFS stack from `next` down
        // to the jumping rule.
        std::string path = prog.chains[static_cast<size_t>(next)].name;
        bool in_cycle = false;
        for (const auto& frame : stack) {
          if (frame.first == next) {
            in_cycle = true;
            continue;
          }
          if (in_cycle) {
            path += " -> " + prog.chains[static_cast<size_t>(frame.first)].name;
          }
        }
        path += " -> " + prog.chains[static_cast<size_t>(next)].name;
        report->Add(Severity::kError, "jump-cycle", Locus(pc.name, rule_idx),
                    "JUMP cycle: " + path);
      } else if (color[static_cast<size_t>(next)] == Color::kWhite) {
        color[static_cast<size_t>(next)] = Color::kGrey;
        stack.emplace_back(next, 0);
      }
    }
  }

  // Unreachable chains + the depth bound.
  for (size_t id = 0; id < prog.chains.size(); ++id) {
    const ProgramChain& pc = prog.chains[id];
    if (reach_any[id] == 0) {
      report->Add(Severity::kWarning, "unreachable-chain", ChainLocus(pc.name),
                  "no JUMP from a builtin chain reaches this chain; its " +
                      std::to_string(pc.rules.size()) + " rule(s) are never evaluated");
      continue;
    }
    if (min_depth[id] >= opts.max_depth) {
      report->Add(Severity::kError, "depth-exceeded", ChainLocus(pc.name),
                  "chain is first entered at JUMP depth " + std::to_string(min_depth[id]) +
                      " >= the traversal bound " + std::to_string(opts.max_depth) +
                      "; its rules never run");
    }
  }

  // On an acyclic jump graph, also flag chains whose *deepest* entry path
  // crosses the bound: some JUMP silently evaluates nothing.
  if (!has_cycle) {
    // Longest entry depth per chain: relax jump edges to a fixpoint (the
    // graph is acyclic here and tiny — chains count in the tens).
    std::vector<int> max_depth_in(prog.chains.size(), -1);
    for (int32_t root :
         {prog.root_input, prog.root_output, prog.root_create, prog.root_syscallbegin}) {
      if (root >= 0) {
        max_depth_in[static_cast<size_t>(root)] = 0;
      }
    }
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t id = 0; id < prog.chains.size(); ++id) {
        if (max_depth_in[id] < 0) {
          continue;
        }
        for (uint32_t rec_idx : prog.chains[id].rules) {
          const int32_t next = prog.rules[rec_idx].jump_chain;
          if (next < 0) {
            continue;
          }
          const int d = max_depth_in[id] + 1;
          if (max_depth_in[static_cast<size_t>(next)] < d) {
            max_depth_in[static_cast<size_t>(next)] = d;
            changed = true;
          }
        }
      }
    }
    for (size_t id = 0; id < prog.chains.size(); ++id) {
      if (reach_any[id] != 0 && min_depth[id] < opts.max_depth &&
          max_depth_in[id] >= opts.max_depth) {
        report->Add(Severity::kWarning, "deep-jump", ChainLocus(prog.chains[id].name),
                    "some JUMP path enters this chain at depth " +
                        std::to_string(max_depth_in[id]) + " >= the traversal bound " +
                        std::to_string(opts.max_depth) +
                        "; the chain is silently skipped on that path");
      }
    }
  }
}

void Analysis::CheckRuleLiveness() {
  for (size_t id = 0; id < prog.chains.size(); ++id) {
    const std::string& name = prog.chains[id].name;
    const bool chain_reachable = reach_any[id] != 0;
    const std::vector<RuleInfo>& v = infos[id];
    for (const RuleInfo& info : v) {
      const Rule& rule = *info.rule;

      // Empty label-set expansions are dead regardless of reachability.
      if (!info.subject.Any()) {
        report->Add(DropAware(info.static_kind), "empty-match", Locus(name, info.pos0),
                    "-s " + rule.subject.Render(policy.labels()) +
                        " expands to the empty label set under the current MAC "
                        "policy; the rule matches nothing");
        continue;
      }
      if (info.requires_object && !rule.object.wildcard && !info.object.Any()) {
        report->Add(DropAware(info.static_kind), "empty-match", Locus(name, info.pos0),
                    "-d " + rule.object.Render(policy.labels()) +
                        " expands to the empty label set under the current MAC "
                        "policy; the rule matches nothing");
        continue;
      }

      if (!chain_reachable) {
        continue;  // covered by the chain-level unreachable-chain finding
      }

      // Ops that both reach this chain and pass the rule's -o precheck.
      std::vector<sim::Op> rops;
      for (size_t opi = 0; opi < sim::kOpCount; ++opi) {
        const sim::Op op = static_cast<sim::Op>(opi);
        if (rule.op && *rule.op != op) {
          continue;
        }
        if (reach[opi][id] != 0) {
          rops.push_back(op);
        }
      }
      if (rops.empty()) {
        std::string why =
            rule.op ? "chain '" + name + "' is never traversed for -o " +
                          std::string(sim::OpName(*rule.op))
                    : "no mediated operation traverses chain '" + name + "'";
        report->Add(DropAware(info.static_kind), "unreachable-rule",
                    Locus(name, info.pos0), "rule is never evaluated: " + why);
        continue;
      }

      // Context satisfiability: some reaching op must be able to supply
      // everything the rule's matches read.
      std::vector<sim::Op> live;
      std::string first_reason;
      for (sim::Op op : rops) {
        std::string reason = BlockReason(info, op);
        if (reason.empty()) {
          live.push_back(op);
        } else if (first_reason.empty()) {
          first_reason = std::move(reason);
        }
      }
      if (live.empty()) {
        report->Add(DropAware(info.static_kind), "context-unavailable",
                    Locus(name, info.pos0),
                    "rule can never match: on every operation that reaches it, " +
                        first_reason);
        continue;
      }

      // Target-side context: a STATE --set whose value never resolves fires
      // but stores nothing.
      const auto* st = dynamic_cast<const core::StateTarget*>(rule.target.get());
      if (st != nullptr && !st->unset && st->value.is_var) {
        bool resolvable = false;
        for (sim::Op op : live) {
          if (OperandAvailable(st->value, op)) {
            resolvable = true;
            break;
          }
        }
        if (!resolvable) {
          report->Add(Severity::kWarning, "target-context-unavailable",
                      Locus(name, info.pos0),
                      "STATE --set value " + st->value.Render() +
                          " never resolves on any operation that reaches this rule; "
                          "the target fires but stores nothing");
        }
      }
    }
  }
}

void Analysis::CheckStateProtocol() {
  struct KeyUse {
    std::vector<std::pair<RuleLocus, const RuleInfo*>> checks;
    std::vector<RuleLocus> sets;
    std::vector<RuleLocus> unsets;
  };
  std::map<std::string, KeyUse> keys;

  // Scan the instruction stream rather than dynamic_cast the module tree:
  // every STATE match and STATE target lowers to a dedicated arena op with
  // its key interned in the string pool, so the protocol pass sees exactly
  // what the compiled evaluator will execute.
  for (size_t id = 0; id < prog.chains.size(); ++id) {
    const ProgramChain& pc = prog.chains[id];
    for (size_t i = 0; i < pc.rules.size(); ++i) {
      const RuleRecord& rec = prog.rules[pc.rules[i]];
      for (uint32_t p = rec.entry; p < rec.end; p += core::kPfInsnWords) {
        const std::optional<StateRef> ref = StateRefOfInsn(prog, prog.Fetch(p));
        if (!ref.has_value()) {
          continue;
        }
        KeyUse& use = keys[std::string(ref->key)];
        switch (ref->use) {
          case StateRef::kCheck:
            use.checks.emplace_back(Locus(pc.name, i), &infos[id][i]);
            break;
          case StateRef::kSet:
            use.sets.push_back(Locus(pc.name, i));
            break;
          case StateRef::kUnset:
            use.unsets.push_back(Locus(pc.name, i));
            break;
        }
      }
    }
  }

  for (const auto& [key, use] : keys) {
    if (key == core::kPhaseKeyName) {
      // The phase key reads as the distinguished init phase while absent, so
      // a PHASE guard with no -j PHASE writer is a legitimate init-only rule,
      // not a dead check.
      continue;
    }
    if (use.sets.empty()) {
      // An absent key never matches a STATE check (even --nequal), so every
      // check of a never-set key deadens its rule.
      for (const auto& [locus, info] : use.checks) {
        report->Add(DropAware(info->static_kind), "state-never-set", locus,
                    "STATE --key " + key +
                        " is checked here but no rule ever sets it; the match can "
                        "never succeed");
      }
      for (const RuleLocus& locus : use.unsets) {
        report->Add(Severity::kInfo, "state-unset-never-set", locus,
                    "STATE --unset of key " + key + " which no rule ever sets");
      }
    }
    if (use.checks.empty() && !use.sets.empty()) {
      for (const RuleLocus& locus : use.sets) {
        report->Add(Severity::kWarning, "state-never-checked", locus,
                    "STATE --set of key " + key +
                        " is never checked by any STATE match; the stored state "
                        "protects nothing");
      }
    }
  }
}

void Analysis::Run() {
  BuildSummaries();
  BuildReachability();
  if (opts.jump_graph) {
    CheckJumpGraph();
  }
  if (opts.shadowing) {
    CheckShadowing();
    CheckRuleLiveness();
  }
  if (opts.state_protocol) {
    CheckStateProtocol();
  }
}

}  // namespace

AnalysisReport AnalyzeRuleset(const core::CompiledRuleset& rs,
                              const sim::MacPolicy& policy,
                              const AnalyzerOptions& opts) {
  AnalysisReport report;
  Analysis analysis{rs, policy, opts, &report, rs.program};
  analysis.Run();
  report.Sort();
  return report;
}

AnalysisReport AnalyzeEngine(core::Engine& engine, const AnalyzerOptions& opts) {
  return AnalyzeRuleset(*engine.CompileRuleset(), engine.policy(), opts);
}

}  // namespace pf::analysis
