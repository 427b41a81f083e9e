// Tables and chains of rules, with the entrypoint-specific chain index
// (paper §4.3): because (nearly) all invariants are deny rules associated
// with a specific entrypoint, rules indexable by (program, entrypoint) are
// grouped into per-entrypoint chains and looked up by hash, while the
// remaining rules are scanned first.
//
// Rules are held by shared_ptr so a Chain (and therefore a Table / RuleSet)
// is cheaply copyable: a copy shares the immutable Rule objects and their
// counters. The engine exploits this for its RCU-style ruleset swap — each
// pftables commit publishes a copied snapshot while hook-side readers keep
// traversing the generation they pinned (see engine.h, "Concurrency model"
// in DESIGN.md).
#ifndef SRC_CORE_RULESET_H_
#define SRC_CORE_RULESET_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/rule.h"

namespace pf::core {

struct EptKey {
  sim::FileId file;
  uint64_t offset = 0;
  bool operator==(const EptKey&) const = default;
};

// Boost-style hash combine. A plain XOR of the two component hashes made
// every `offset == 0` key hash to FileIdHash(file) ^ hash(0) — all
// call-site-less keys of one binary collapsed into a single bucket chain.
inline size_t HashCombine(size_t h1, size_t h2) {
  return h1 ^ (h2 + 0x9e3779b97f4a7c15ULL + (h1 << 6) + (h1 >> 2));
}

struct EptKeyHash {
  size_t operator()(const EptKey& k) const {
    return HashCombine(sim::FileIdHash()(k.file), std::hash<uint64_t>()(k.offset));
  }
};

// The derived entrypoint index of one chain, immutable once built. Held by
// shared_ptr so Chain copies — every commit's snapshot copies the staging
// base — share it with the staging base instead of duplicating a
// potentially 100k-node hash map per generation. Entries point at the
// shared heap-allocated Rule objects, so a shared index stays valid for
// every copy that references it.
struct ChainIndex {
  std::vector<const Rule*> plain;
  std::unordered_map<EptKey, std::vector<const Rule*>, EptKeyHash> by_ept;
};

class Chain {
 public:
  Chain() = default;
  Chain(std::string name, bool builtin) : name_(std::move(name)), builtin_(builtin) {}

  const std::string& name() const { return name_; }
  bool builtin() const { return builtin_; }

  // Default verdict when no rule decides (builtin chains only; user chains
  // fall through to their caller). The paper's deployment uses ACCEPT
  // everywhere (deny rules + default allow); DROP turns a chain into a
  // whitelist, at the cost of rule-order sensitivity.
  enum class Policy { kAccept, kDrop };
  Policy policy() const { return policy_; }
  void set_policy(Policy p) { policy_ = p; }

  void Insert(std::shared_ptr<Rule> rule, size_t pos);  // pos clamped to [0, size]
  void Append(std::shared_ptr<Rule> rule);
  bool Delete(size_t pos);
  void Flush();

  const std::vector<std::shared_ptr<Rule>>& rules() const { return rules_; }
  const Rule& rule_at(size_t i) const { return *rules_[i]; }
  size_t size() const { return rules_.size(); }

  // --- entrypoint index ---
  void BuildIndex();
  bool index_built() const { return index_built_; }
  const std::vector<const Rule*>& plain_rules() const { return index().plain; }
  const std::vector<const Rule*>* EptRules(const EptKey& key) const;
  size_t indexed_entrypoints() const { return index().by_ept.size(); }
  // Whole-index view for the commit-time lowering pass (program.h), which
  // re-points every per-entrypoint rule list at entry-table slices.
  const std::unordered_map<EptKey, std::vector<const Rule*>, EptKeyHash>& ept_index() const {
    return index().by_ept;
  }

 private:
  void InvalidateIndex();
  const ChainIndex& index() const;  // index_ when set, a shared empty otherwise

  std::string name_;
  bool builtin_ = false;
  Policy policy_ = Policy::kAccept;
  std::vector<std::shared_ptr<Rule>> rules_;

  // Derived entrypoint index, shared by Chain copies (see ChainIndex). Null
  // until BuildIndex runs or after a mutation invalidates it.
  bool index_built_ = false;
  std::shared_ptr<const ChainIndex> index_;
};

class Table {
 public:
  explicit Table(std::string name) : name_(std::move(name)) {
    // Builtin chains (paper Table 3 plus the syscall-entry and create
    // chains used by rules R12 and template T2).
    chains_.emplace("input", Chain("input", true));
    chains_.emplace("output", Chain("output", true));
    chains_.emplace("create", Chain("create", true));
    chains_.emplace("syscallbegin", Chain("syscallbegin", true));
  }

  const std::string& name() const { return name_; }
  Chain* Find(const std::string& chain);
  const Chain* Find(const std::string& chain) const;
  Chain& GetOrCreate(const std::string& chain);
  bool NewChain(const std::string& chain);  // false if it already exists
  void FlushAll();

  const std::map<std::string, Chain>& chains() const { return chains_; }
  std::map<std::string, Chain>& chains() { return chains_; }
  size_t total_rules() const;

 private:
  std::string name_;
  std::map<std::string, Chain> chains_;
};

class RuleSet {
 public:
  RuleSet() : filter_("filter"), mangle_("mangle") {}

  Table* FindTable(const std::string& name) {
    if (name == "filter") {
      return &filter_;
    }
    if (name == "mangle") {
      return &mangle_;
    }
    return nullptr;
  }
  Table& filter() { return filter_; }
  const Table& filter() const { return filter_; }
  Table& mangle() { return mangle_; }
  const Table& mangle() const { return mangle_; }
  size_t total_rules() const { return filter_.total_rules() + mangle_.total_rules(); }

 private:
  Table filter_;
  Table mangle_;
};

}  // namespace pf::core

#endif  // SRC_CORE_RULESET_H_
