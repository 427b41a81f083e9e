#include "src/analysis/symbolic/model.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <unordered_map>

#include "src/core/modules.h"
#include "src/core/symbolize.h"

namespace pf::analysis::symbolic {
namespace {

using core::Chain;
using core::CompiledRuleset;
using core::kMaxChainDepth;
using core::MatchModule;
using core::Rule;
using core::TargetKind;

// Mirror of the per-op object availability the analyzer uses: signal
// delivery, syscall entry, and fork mediate subject-side events only, so a
// rule with object constraints can never match them.
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

uint64_t Hash64(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

uint64_t HashString(uint64_t h, const std::string& s) {
  for (const char c : s) {
    h = Hash64(h, static_cast<uint8_t>(c));
  }
  return Hash64(h, 0x5f);
}

// Abstract value of one STATE slot along one traversal path. kInitial means
// "whatever the task dictionary held at Authorize entry" (tracked by the
// slot's universe dimension); a STATE --set/--unset on the path overrides it.
struct SlotVal {
  enum Kind : uint8_t { kInitial, kLiteral, kAbsent, kUnknown };
  Kind kind = kInitial;
  int64_t literal = 0;
  bool operator==(const SlotVal&) const = default;
};

struct Item {
  Region region;
  std::vector<SlotVal> env;           // one per universe state dimension
  std::vector<std::string> effects;
};

enum class CV : uint8_t { kFallthrough, kAccept, kDrop, kReturn, kIndeterminate };

struct Outcome {
  CV verdict = CV::kFallthrough;
  Item item;
  std::string decided_by;
};

// One rule's match predicate, lowered once: the sparse conjunction over
// universe dimensions plus the STATE checks (resolved per-path against the
// slot environment at evaluation time).
struct RulePred {
  bool never = false;                // provably cannot match any request
  std::optional<sim::Op> op;         // -o pin merged with module OpPins
  bool requires_object = false;
  Conjunction conj;
  struct StateCheck {
    uint32_t slot = 0;               // index into Universe::state_dims
    std::optional<int64_t> cmp;
    bool negate = false;
    const MatchModule* module = nullptr;
  };
  std::vector<StateCheck> state_checks;
};

class PredSink : public core::SymbolicSink {
 public:
  PredSink(const Universe& u, RulePred& pred) : u_(u), pred_(pred) {}

  void Constrain(uint32_t dim, DimSet set) {
    pred_.conj.emplace_back(dim, std::move(set));
  }

  void Visit(const MatchModule& m) {
    current_ = &m;
    if (!m.Symbolize(*this)) {
      Opaque(m.Name(), m.Render());
    }
    current_ = nullptr;
  }

  void StateCheck(const std::string& key, std::optional<int64_t> cmp,
                  bool negate) override {
    const auto dim = u_.FindStateDim(key);
    if (!dim) {  // collector and pred builder walk the same rules
      pred_.never = true;
      return;
    }
    pred_.state_checks.push_back(
        {*dim - kDimFixedCount, cmp, negate, current_});
  }

  void SyscallArg(int arg, int64_t value, bool negate) override {
    if (arg < 0 || arg >= kNumArgDims) {
      Opaque(current_ != nullptr ? current_->Name() : "SYSCALL_ARGS",
             current_ != nullptr ? current_->Render() : "?");
      return;
    }
    const uint32_t atom = u_.AtomForArg(arg, value);
    Constrain(kDimArgBase + static_cast<uint32_t>(arg),
              negate ? DimSet::AllBut({atom}) : DimSet::Of({atom}));
  }

  void Interp(const std::string& suffix,
              std::optional<sim::InterpLang> lang) override {
    Constrain(kDimInterp, u_.InterpMembers(suffix, lang));
  }

  void OpPin(sim::Op op) override {
    if (pred_.op && *pred_.op != op) {
      pred_.never = true;
      return;
    }
    pred_.op = op;
  }

  void Const(bool result) override {
    if (!result) {
      pred_.never = true;
    }
  }

  void Opaque(std::string_view name, const std::string& render) override {
    const auto dim = u_.FindOpaqueDim(std::string(name) + "|" + render);
    if (!dim) {
      pred_.never = true;
      return;
    }
    Constrain(*dim, DimSet::Of({1}));
  }

 private:
  const Universe& u_;
  RulePred& pred_;
  const MatchModule* current_ = nullptr;
};

// One key of a chain's entrypoint index as the model groups it: the ops
// its rules can match, and its rules in chain order.
struct IndexKey {
  uint64_t op_mask = 0;
  std::vector<const Rule*> rules;
};

// The model's own traversal plan for one chain, worked out from
// Chain::rules() alone, so the model checks lowering's bucketing instead of
// reading it. `ops` has bit i set when some rule's -o is absent or equal to
// op i, the test that makes a builtin chain apply. `index` groups the
// entrypoint-indexable rules by the atom of their (image, offset) key, and
// `index_ops` is the union of its keys' op masks.
struct ChainPlan {
  uint64_t ops = 0;
  uint64_t index_ops = 0;
  std::vector<const Rule*> plain;  // the non-indexable rules, chain order
  std::map<uint32_t, IndexKey> index;
};

class Builder {
 public:
  Builder(const CompiledRuleset& rs, std::shared_ptr<const Universe> universe,
          const ModelOptions& opts, SymbolicModel& m)
      : rs_(rs), u_(*universe), opts_(opts), m_(m) {
    m_.universe = std::move(universe);
  }

  void Run() {
    CollectLoci();
    for (size_t op = 0; op < sim::kOpCount; ++op) {
      RunOp(static_cast<sim::Op>(op));
      m_.max_op_regions = std::max(m_.max_op_regions, m_.by_op[op].size());
      m_.region_count += m_.by_op[op].size();
    }
    if (!m_.indeterminate) {
      for (const RuleLocusInfo& locus : m_.loci) {
        if (m_.fired.count(locus.rule) == 0) {
          m_.dead.push_back(locus);
        }
      }
    }
    m_.exact_state = u_.exact_state;
  }

 private:
  void CollectLoci() {
    for (const auto& [name, chain] : rs_.rules.filter().chains()) {
      for (size_t i = 0; i < chain.size(); ++i) {
        m_.loci.push_back({name, i + 1, &chain.rule_at(i)});
        locus_of_[&chain.rule_at(i)] = name + ":" + std::to_string(i + 1);
      }
    }
  }

  const RulePred& PredFor(const Rule& rule) {
    const auto it = preds_.find(&rule);
    if (it != preds_.end()) {
      return it->second;
    }
    RulePred pred;
    PredSink sink(u_, pred);
    pred.op = rule.op;
    if (!rule.subject.wildcard) {
      sink.Constrain(kDimSubject, u_.ExpandSubject(rule.subject));
    }
    if (rule.has_program() || rule.entrypoint) {
      sink.Constrain(kDimEpt, u_.EptMembers(rule.has_program(),
                                            rule.program_file, rule.entrypoint));
    }
    if (!rule.object.wildcard || rule.ino) {
      pred.requires_object = true;
      if (rule.ino) {
        sink.Constrain(kDimIno, DimSet::Of({u_.AtomForIno(*rule.ino)}));
      }
      if (!rule.object.wildcard) {
        sink.Constrain(kDimObject, u_.ExpandObject(rule.object));
      }
    }
    for (const auto& match : rule.matches) {
      sink.Visit(*match);
    }
    return preds_.emplace(&rule, std::move(pred)).first->second;
  }

  const ChainPlan& PlanFor(const Chain& chain) {
    const auto it = plans_.find(&chain);
    if (it != plans_.end()) {
      return it->second;
    }
    ChainPlan plan;
    for (const auto& r : chain.rules()) {
      const Rule& rule = *r;
      plan.ops |= rule.op ? 1ull << static_cast<size_t>(*rule.op) : ~0ull;
      if (!rule.IndexableByEntrypoint()) {
        plan.plain.push_back(&rule);
        continue;
      }
      IndexKey& key = plan.index[u_.AtomForEpt(true, rule.program_file, *rule.entrypoint)];
      key.rules.push_back(&rule);
      const RulePred& pred = PredFor(rule);
      if (!pred.never) {
        key.op_mask |= pred.op ? (1ull << static_cast<size_t>(*pred.op)) : ~0ull;
        plan.index_ops |= key.op_mask;
      }
    }
    return plans_.emplace(&chain, std::move(plan)).first->second;
  }

  void NoteReach(const Chain& chain, sim::Op op, const Item& item) {
    ChainReach& reach = m_.reach[chain.name()];
    reach.entered = true;
    reach.ops |= 1ull << static_cast<size_t>(op);
    reach.ept = DimSet::Union(reach.ept, item.region.dims[kDimEpt]);
    reach.subjects = DimSet::Union(reach.subjects, item.region.dims[kDimSubject]);
  }

  // --- symbolic twins of ExecRule / ExecEntryList / ExecChain ---

  // Evaluates one rule over one item: terminal paths append to `out`,
  // keep-going paths (no match, or side-effect-only target) to `next`.
  void RuleSym(const Rule& rule, Item item, sim::Op op, int depth,
               std::vector<Outcome>* out, std::vector<Item>* next) {
    const RulePred& pred = PredFor(rule);
    if (pred.never || (pred.op && *pred.op != op) ||
        (pred.requires_object && !OpHasObject(op))) {
      next->push_back(std::move(item));
      return;
    }
    // Resolve STATE checks against this path's slot environment.
    Conjunction conj = pred.conj;
    for (const RulePred::StateCheck& sc : pred.state_checks) {
      const SlotVal& slot = item.env[sc.slot];
      if (slot.kind == SlotVal::kAbsent) {
        next->push_back(std::move(item));  // absent key never matches
        return;
      }
      if (slot.kind == SlotVal::kLiteral) {
        if (!sc.cmp) {
          continue;  // present: matches
        }
        const bool equal = slot.literal == *sc.cmp;
        if ((sc.negate ? !equal : equal)) {
          continue;
        }
        next->push_back(std::move(item));
        return;
      }
      if (slot.kind == SlotVal::kUnknown) {
        const auto dim = u_.UnknownSlotDim(sc.module);
        if (!dim) {  // no predicate dimension: cannot model this check
          m_.indeterminate = true;
          out->push_back({CV::kIndeterminate, std::move(item),
                          locus_of_[&rule]});
          return;
        }
        conj.emplace_back(*dim, DimSet::Of({1}));
        continue;
      }
      // kInitial: constrain the slot's universe dimension. Atom 0 is
      // "absent"; a mentioned literal has its own atom.
      const uint32_t dim = kDimFixedCount + sc.slot;
      if (!sc.cmp) {
        conj.emplace_back(dim, DimSet::AllBut({0}));
      } else {
        const uint32_t va =
            u_.AtomForState(sc.slot, std::optional<int64_t>(*sc.cmp));
        conj.emplace_back(dim, sc.negate ? DimSet::AllBut({0, va})
                                         : DimSet::Of({va}));
      }
    }

    Region matched(0);
    if (!IntersectRegion(item.region, conj, u_.alphabets(), &matched)) {
      next->push_back(std::move(item));
      return;
    }
    // The no-match residue keeps going; the matched slice fires the target.
    std::vector<Region> residue;
    SubtractRegion(item.region, conj, u_.alphabets(), &residue);
    for (Region& r : residue) {
      next->push_back({std::move(r), item.env, item.effects});
    }
    m_.fired.insert(&rule);
    Item hit{std::move(matched), std::move(item.env), std::move(item.effects)};

    const auto kind = rule.target->StaticKind();
    if (!kind) {
      m_.indeterminate = true;
      out->push_back({CV::kIndeterminate, std::move(hit), locus_of_[&rule]});
      return;
    }
    switch (*kind) {
      case TargetKind::kAccept:
        out->push_back({CV::kAccept, std::move(hit), locus_of_[&rule]});
        return;
      case TargetKind::kDrop:
        out->push_back({CV::kDrop, std::move(hit), locus_of_[&rule]});
        return;
      case TargetKind::kReturn:
        out->push_back({CV::kReturn, std::move(hit), locus_of_[&rule]});
        return;
      case TargetKind::kContinue: {
        hit.effects.push_back(rule.target->Render());
        if (const auto* st =
                dynamic_cast<const core::StateTarget*>(rule.target.get())) {
          if (const auto slot = u_.FindStateDim(st->key)) {
            SlotVal& env = hit.env[*slot - kDimFixedCount];
            if (st->unset) {
              env = {SlotVal::kAbsent, 0};
            } else if (st->value.is_var) {
              env = {SlotVal::kUnknown, 0};
            } else {
              env = {SlotVal::kLiteral, st->value.literal};
            }
          }
        }
        next->push_back(std::move(hit));
        return;
      }
      case TargetKind::kJump: {
        const Chain* target = rs_.rules.filter().Find(rule.target->jump_chain());
        if (target == nullptr || depth >= kMaxChainDepth) {
          next->push_back(std::move(hit));
          return;
        }
        std::vector<Outcome> sub =
            RunChain(*target, std::move(hit), op, depth + 1);
        for (Outcome& o : sub) {
          if (o.verdict == CV::kAccept || o.verdict == CV::kDrop ||
              o.verdict == CV::kIndeterminate) {
            out->push_back(std::move(o));
          } else {  // RETURN and fallthrough resume after the jump site
            next->push_back(std::move(o.item));
          }
        }
        return;
      }
    }
  }

  // `rules` holds Rule pointers or shared_ptrs (Chain::rules()).
  template <typename Rules>
  void EvalList(const Rules& rules, std::vector<Item> items, sim::Op op, int depth,
                std::vector<Outcome>* out) {
    for (const auto& rule : rules) {
      if (items.empty()) {
        return;
      }
      std::vector<Item> next;
      for (Item& item : items) {
        RuleSym(*rule, std::move(item), op, depth, out, &next);
      }
      items = std::move(next);
    }
    for (Item& item : items) {
      out->push_back({CV::kFallthrough, std::move(item), ""});
    }
  }

  // The engine's traversal of one chain: every rule in chain order, or,
  // with the entrypoint index on, the non-indexable rules and then the
  // rules of the request's entrypoint key. RuleSym passes over a rule whose
  // op cannot match, as the engine's per-op buckets leave it out, and a key
  // none of whose rules can match the op is passed over whole.
  std::vector<Outcome> RunChain(const Chain& chain, Item item, sim::Op op, int depth) {
    std::vector<Outcome> out;
    if (depth >= kMaxChainDepth) {
      out.push_back({CV::kFallthrough, std::move(item), ""});
      return out;
    }
    NoteReach(chain, op, item);
    const ChainPlan& plan = PlanFor(chain);
    std::vector<Item> seed;
    seed.push_back(std::move(item));
    if (!opts_.ept_chains) {
      EvalList(chain.rules(), std::move(seed), op, depth, &out);
      MergeOutcomes(&out);
      return out;
    }
    // Indexed traversal: plain rules first, then the hash-selected
    // entrypoint list — requests with no indexed entrypoint (including an
    // unusable stack) fall through past the index.
    std::vector<Outcome> plain;
    EvalList(plan.plain, std::move(seed), op, depth, &plain);
    const bool indexed = ((plan.index_ops >> static_cast<size_t>(op)) & 1) != 0;
    for (Outcome& o : plain) {
      if (o.verdict != CV::kFallthrough || !indexed) {
        out.push_back(std::move(o));
        continue;
      }
      Item rest = std::move(o.item);
      const DimSet& ept = rest.region.dims[kDimEpt];
      std::vector<uint32_t> taken;
      for (const auto& [atom, key] : plan.index) {
        if (((key.op_mask >> static_cast<size_t>(op)) & 1) == 0 || !ept.Contains(atom)) {
          continue;
        }
        taken.push_back(atom);
        Item sub{rest.region, rest.env, rest.effects};
        sub.region.dims[kDimEpt] = DimSet::Of({atom});
        std::vector<Item> one;
        one.push_back(std::move(sub));
        EvalList(key.rules, std::move(one), op, depth, &out);
      }
      // Entrypoints outside every (op-relevant) index key fall through.
      rest.region.dims[kDimEpt] = DimSet::Subtract(ept, DimSet::Of(taken));
      if (!rest.region.dims[kDimEpt].Empty(u_.alphabets()[kDimEpt])) {
        out.push_back({CV::kFallthrough, std::move(rest), ""});
      }
    }
    MergeOutcomes(&out);
    return out;
  }

  // Re-merges outcomes that differ only in one dimension's atom set (the
  // entrypoint split above shatters items per index key; identical outcomes
  // union back into one region, keeping the partition size proportional to
  // the distinct behaviors instead of the distinct entrypoints).
  void MergeOn(std::vector<Outcome>* outs, uint32_t dim) {
    std::unordered_map<uint64_t, std::vector<size_t>> buckets;
    buckets.reserve(outs->size());
    std::vector<Outcome> merged;
    merged.reserve(outs->size());
    for (Outcome& o : *outs) {
      uint64_t h = Hash64(0x243f6a88, static_cast<uint8_t>(o.verdict));
      h = HashString(h, o.decided_by);
      for (const std::string& e : o.item.effects) {
        h = HashString(h, e);
      }
      for (const SlotVal& s : o.item.env) {
        h = Hash64(h, (static_cast<uint64_t>(s.kind) << 56) ^
                          static_cast<uint64_t>(s.literal));
      }
      for (uint32_t d = 0; d < o.item.region.dims.size(); ++d) {
        if (d == dim) {
          continue;
        }
        const DimSet& set = o.item.region.dims[d];
        h = Hash64(h, set.complement ? 0x77 : 0x11);
        for (const uint32_t a : set.atoms) {
          h = Hash64(h, a);
        }
      }
      bool joined = false;
      for (const size_t idx : buckets[h]) {
        Outcome& prev = merged[idx];
        if (prev.verdict != o.verdict || prev.decided_by != o.decided_by ||
            prev.item.effects != o.item.effects || prev.item.env != o.item.env) {
          continue;
        }
        bool same = true;
        for (uint32_t d = 0; d < o.item.region.dims.size() && same; ++d) {
          if (d != dim && !(prev.item.region.dims[d] == o.item.region.dims[d])) {
            same = false;
          }
        }
        if (!same) {
          continue;
        }
        prev.item.region.dims[dim] =
            DimSet::Union(prev.item.region.dims[dim], o.item.region.dims[dim]);
        joined = true;
        break;
      }
      if (!joined) {
        buckets[h].push_back(merged.size());
        merged.push_back(std::move(o));
      }
    }
    *outs = std::move(merged);
  }

  void MergeOutcomes(std::vector<Outcome>* outs) {
    if (outs->size() < 2) {
      return;
    }
    MergeOn(outs, kDimEpt);
    MergeOn(outs, kDimSubject);
    MergeOn(outs, kDimObject);
  }

  // --- symbolic twin of Authorize's root loop ---

  void RunOp(sim::Op op) {
    const Chain* roots[3];
    size_t num_roots = 0;
    auto consider = [&](const char* name) {
      const Chain* chain = rs_.rules.filter().Find(name);
      if (chain != nullptr &&
          (((PlanFor(*chain).ops >> static_cast<size_t>(op)) & 1) != 0 ||
           chain->policy() == Chain::Policy::kDrop)) {
        roots[num_roots++] = chain;
      }
    };
    if (op == sim::Op::kSyscallBegin) {
      consider("syscallbegin");
    } else {
      if (core::IsCreateOp(op)) {
        consider("create");
      }
      if (core::IsOutputOp(op)) {
        consider("output");
      }
      consider("input");
    }

    std::vector<DecisionRegion>& final = m_.by_op[static_cast<size_t>(op)];
    Item whole{Region(u_.dim_count()),
               std::vector<SlotVal>(u_.state_dims.size()), {}};
    if (num_roots == 0) {
      final.push_back({std::move(whole.region), OutcomeKind::kAllow, {},
                       "no-applicable-chain"});
      return;
    }

    std::vector<Item> pending;
    pending.push_back(std::move(whole));
    for (size_t i = 0; i < num_roots; ++i) {
      const Chain& root = *roots[i];
      std::vector<Item> next;
      for (Item& item : pending) {
        for (Outcome& o : RunChain(root, std::move(item), op, 0)) {
          // RunRootChain: RETURN in a root chain falls through, and a
          // fallthrough under a DROP-policy builtin denies.
          if (o.verdict == CV::kFallthrough || o.verdict == CV::kReturn) {
            if (root.policy() == Chain::Policy::kDrop) {
              final.push_back({std::move(o.item.region), OutcomeKind::kDrop,
                               std::move(o.item.effects),
                               "policy:" + root.name()});
            } else {
              next.push_back(std::move(o.item));
            }
            continue;
          }
          const OutcomeKind outcome =
              o.verdict == CV::kAccept
                  ? OutcomeKind::kAllow
                  : (o.verdict == CV::kDrop ? OutcomeKind::kDrop
                                            : OutcomeKind::kIndeterminate);
          final.push_back({std::move(o.item.region), outcome,
                           std::move(o.item.effects), std::move(o.decided_by)});
        }
      }
      pending = std::move(next);
    }
    for (Item& item : pending) {
      final.push_back({std::move(item.region), OutcomeKind::kAllow,
                       std::move(item.effects), "default"});
    }
  }

  const CompiledRuleset& rs_;
  const Universe& u_;
  ModelOptions opts_;
  SymbolicModel& m_;
  std::unordered_map<const Rule*, RulePred> preds_;
  std::unordered_map<const Chain*, ChainPlan> plans_;
  std::unordered_map<const Rule*, std::string> locus_of_;
};

}  // namespace

std::string_view OutcomeName(OutcomeKind k) {
  switch (k) {
    case OutcomeKind::kAllow:
      return "ALLOW";
    case OutcomeKind::kDrop:
      return "DROP";
    case OutcomeKind::kIndeterminate:
      return "INDETERMINATE";
  }
  return "?";
}

const DecisionRegion* SymbolicModel::Find(
    sim::Op op, const std::vector<uint32_t>& assignment) const {
  for (const DecisionRegion& region : by_op[static_cast<size_t>(op)]) {
    if (region.region.Contains(assignment)) {
      return &region;
    }
  }
  return nullptr;
}

SymbolicModel BuildModel(const CompiledRuleset& rs, const sim::MacPolicy& policy,
                         std::shared_ptr<const Universe> universe,
                         const ModelOptions& opts) {
  const auto start = std::chrono::steady_clock::now();
  if (universe == nullptr) {
    universe = BuildUniverse({&rs}, policy);
  }
  SymbolicModel model;
  Builder builder(rs, std::move(universe), opts, model);
  builder.Run();
  model.build_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  return model;
}

}  // namespace pf::analysis::symbolic
