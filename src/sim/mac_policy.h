// SELinux-style mandatory access control policy.
//
// The policy stores type-enforcement allow rules (subject label -> object
// label -> permission set). Two derived queries drive the Process Firewall:
//
//  * Adversary accessibility (paper footnote 2): a resource is
//    adversary-accessible for a victim if the policy grants some adversary
//    subject write (integrity attacks) or read (secrecy attacks) access.
//    Adversaries of a subject are the labels in the configured untrusted set,
//    i.e. labels outside the system TCB.
//
//  * SYSHIGH (paper Section 5.2): the set of trusted-computing-base labels.
//    Subject labels are SYSHIGH if they are not untrusted; object labels are
//    SYSHIGH if no untrusted subject may write them.
//
// The MAC module can run permissive (labels tracked, nothing denied) or
// enforcing; the Process Firewall works in either mode, as in the paper where
// PF complements the existing authorization system.
#ifndef SRC_SIM_MAC_POLICY_H_
#define SRC_SIM_MAC_POLICY_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/sim/label.h"
#include "src/sim/types.h"

namespace pf::sim {

// Permission bits for MAC allow rules.
enum MacPerm : uint32_t {
  kMacRead = 1u << 0,
  kMacWrite = 1u << 1,
  kMacExec = 1u << 2,
  kMacCreate = 1u << 3,
  kMacConnect = 1u << 4,
  kMacBind = 1u << 5,
  kMacSignal = 1u << 6,
  kMacAll = 0xffffffffu,
};

class MacPolicy {
 public:
  explicit MacPolicy(LabelRegistry* labels) : labels_(labels) {}

  // Adds an allow rule: subject may perform `perms` on objects of `object`.
  void Allow(Sid subject, Sid object, uint32_t perms);
  void Allow(std::string_view subject, std::string_view object, uint32_t perms);

  // Marks a subject label as untrusted (outside the TCB); such subjects are
  // the adversaries considered for adversary-accessibility.
  void MarkUntrusted(Sid subject);
  void MarkUntrusted(std::string_view subject);

  bool IsUntrusted(Sid subject) const { return untrusted_.count(subject) != 0; }

  // Whether MAC denials are enforced; when false the policy is permissive
  // and only label bookkeeping and derived queries are active.
  void set_enforcing(bool on) {
    enforcing_ = on;
    BumpEpoch();
  }
  bool enforcing() const { return enforcing_; }

  // Monotonic mutation counter, bumped on every policy change (allow rules,
  // untrusted set, enforcing mode). Derived queries such as adversary
  // accessibility and SYSHIGH membership can only change when the epoch
  // moves, so a cache keyed on the epoch is invalidated by construction.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  // Enforcement query (subject to `enforcing()`, root is not exempt in MAC).
  bool Check(Sid subject, Sid object, uint32_t perms) const;

  // Raw policy query, independent of enforcing mode.
  bool Grants(Sid subject, Sid object, uint32_t perms) const;

  // True if some untrusted subject may write objects of this label
  // (integrity-relevant adversary accessibility).
  bool AdversaryWritable(Sid object) const;

  // True if some untrusted subject may read objects of this label
  // (secrecy-relevant adversary accessibility).
  bool AdversaryReadable(Sid object) const;

  // SYSHIGH membership (see file comment). Used to expand the SYSHIGH
  // keyword in pftables rules.
  bool IsSyshighSubject(Sid subject) const;
  bool IsSyshighObject(Sid object) const;

  // Materializes the current SYSHIGH object set over all interned labels.
  std::vector<Sid> SyshighObjects() const;

  LabelRegistry& labels() { return *labels_; }
  const LabelRegistry& labels() const { return *labels_; }

 private:
  struct Key {
    Sid subject;
    Sid object;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return std::hash<uint64_t>()((static_cast<uint64_t>(k.subject) << 32) | k.object);
    }
  };

  uint32_t PermsFor(Sid subject, Sid object) const;

  uint8_t AdversaryBits(Sid object) const;

  void BumpEpoch() { epoch_.fetch_add(1, std::memory_order_release); }

  LabelRegistry* labels_;
  std::unordered_map<Key, uint32_t, KeyHash> rules_;
  std::unordered_set<Sid> untrusted_;
  bool enforcing_ = false;
  // Caches for the derived queries; invalidated on policy mutation. The
  // mutex makes the lazily-filled cache safe to query from concurrent hook
  // evaluations (policy mutation stays a control-plane-only operation).
  mutable std::mutex adversary_mu_;
  mutable std::unordered_map<Sid, uint8_t> adversary_cache_;
  std::atomic<uint64_t> epoch_{0};
};

}  // namespace pf::sim

#endif  // SRC_SIM_MAC_POLICY_H_
