#include "src/core/ruleset.h"

namespace pf::core {

void Chain::Insert(std::shared_ptr<Rule> rule, size_t pos) {
  if (pos > rules_.size()) {
    pos = rules_.size();
  }
  rules_.insert(rules_.begin() + static_cast<long>(pos), std::move(rule));
  InvalidateIndex();
}

void Chain::Append(std::shared_ptr<Rule> rule) {
  rules_.push_back(std::move(rule));
  InvalidateIndex();
}

bool Chain::Delete(size_t pos) {
  if (pos >= rules_.size()) {
    return false;
  }
  rules_.erase(rules_.begin() + static_cast<long>(pos));
  InvalidateIndex();
  return true;
}

void Chain::Flush() {
  rules_.clear();
  InvalidateIndex();
}

void Chain::InvalidateIndex() {
  index_built_ = false;
  index_.reset();
}

const ChainIndex& Chain::index() const {
  static const ChainIndex kEmpty;
  return index_ ? *index_ : kEmpty;
}

void Chain::BuildIndex() {
  // Build a fresh index rather than mutating in place: copies of this Chain
  // (published snapshots) may still share the previous one.
  auto idx = std::make_shared<ChainIndex>();
  for (const auto& r : rules_) {
    if (r->IndexableByEntrypoint()) {
      idx->by_ept[EptKey{r->program_file, *r->entrypoint}].push_back(r.get());
    } else {
      idx->plain.push_back(r.get());
    }
  }
  index_ = std::move(idx);
  index_built_ = true;
}

const std::vector<const Rule*>* Chain::EptRules(const EptKey& key) const {
  const auto& by_ept = index().by_ept;
  auto it = by_ept.find(key);
  return it == by_ept.end() ? nullptr : &it->second;
}

Chain* Table::Find(const std::string& chain) {
  auto it = chains_.find(chain);
  return it == chains_.end() ? nullptr : &it->second;
}

const Chain* Table::Find(const std::string& chain) const {
  auto it = chains_.find(chain);
  return it == chains_.end() ? nullptr : &it->second;
}

Chain& Table::GetOrCreate(const std::string& chain) {
  auto it = chains_.find(chain);
  if (it == chains_.end()) {
    it = chains_.emplace(chain, Chain(chain, false)).first;
  }
  return it->second;
}

bool Table::NewChain(const std::string& chain) {
  if (chains_.count(chain) != 0) {
    return false;
  }
  chains_.emplace(chain, Chain(chain, false));
  return true;
}

void Table::FlushAll() {
  for (auto& [name, chain] : chains_) {
    chain.Flush();
  }
}

size_t Table::total_rules() const {
  size_t n = 0;
  for (const auto& [name, chain] : chains_) {
    n += chain.size();
  }
  return n;
}

}  // namespace pf::core
