#include "src/core/ruleset.h"

namespace pf::core {

void Chain::Insert(std::shared_ptr<Rule> rule, size_t pos) {
  if (pos > rules_.size()) {
    pos = rules_.size();
  }
  rules_.insert(rules_.begin() + static_cast<long>(pos), std::move(rule));
}

void Chain::Append(std::shared_ptr<Rule> rule) {
  rules_.push_back(std::move(rule));
}

bool Chain::Delete(size_t pos) {
  if (pos >= rules_.size()) {
    return false;
  }
  rules_.erase(rules_.begin() + static_cast<long>(pos));
  return true;
}

void Chain::Flush() {
  rules_.clear();
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
