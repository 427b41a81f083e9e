// Tables and chains of rules. A chain holds its rules in order and nothing
// derived from them: the per-op buckets and the entrypoint-specific chain
// index (paper §4.3) are built once per commit, by lowering, straight into
// the program form (program.h).
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
#include <vector>

#include "src/core/rule.h"

namespace pf::core {

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

 private:
  std::string name_;
  bool builtin_ = false;
  Policy policy_ = Policy::kAccept;
  std::vector<std::shared_ptr<Rule>> rules_;
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
