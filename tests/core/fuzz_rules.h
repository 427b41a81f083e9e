// Shared random rule-base generators for the differential fuzz battery
// (compiled_diff_fuzz_test.cc) and the verifier property test
// (verifier_test.cc). Every generator emits an always-installable pftables
// command list; the flavor steers the shape of the program the lowering
// pipeline produces so the battery covers the compiled artifact's corners:
//
//   kMixed       every builtin module/target, entrypoint rules, extensions
//   kStateHeavy  long STATE match/set/unset protocols across user chains
//   kNativeHeavy dominated by native-escape modules (ODD_INO / COUNT)
//   kDeepJumps   a JUMP nest of exactly kMaxChainDepth chains, so the last
//                chain sits on the runtime depth cutoff (entered at depth
//                kMaxChainDepth, where ExecChain bails)
//   kSparse      empty and one-rule chains, single-op buckets
//
// The flavor is derived from the seed (seed % kFlavorCount), so a failing
// seed alone reproduces the exact program.
#ifndef TESTS_CORE_FUZZ_RULES_H_
#define TESTS_CORE_FUZZ_RULES_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/engine.h"
#include "src/core/pftables.h"

namespace pf::core::fuzzgen {

// --- extension modules (exercise the kMatchNative / kTargetNative escapes) --

// Matches objects with an odd inode number.
class OddInoMatch : public NativeMatchModule {
 public:
  std::string_view Name() const override { return "ODD_INO"; }
  CtxMask Needs() const override { return CtxBit(Ctx::kObject); }
  bool Matches(Packet& pkt, Engine&) const override {
    return pkt.has_object && pkt.object_id.ino % 2 == 1;
  }
  std::string Render() const override { return "ODD_INO"; }
};

// Counts fires and continues.
class CountTarget : public NativeTargetModule {
 public:
  explicit CountTarget(uint64_t* counter) : counter_(counter) {}
  std::string_view Name() const override { return "COUNT"; }
  TargetKind Fire(Packet&, Engine&) const override {
    ++*counter_;
    return TargetKind::kContinue;
  }
  std::string Render() const override { return "COUNT"; }

 private:
  uint64_t* counter_;
};

// Registers both extension modules on `pft`. `count_fires` must outlive the
// engine (every COUNT target instantiated from the rule base writes to it).
inline void RegisterFuzzModules(Pftables& pft, uint64_t* count_fires) {
  pft.RegisterMatch("ODD_INO", [](const std::vector<std::string>& opts,
                                  std::unique_ptr<MatchModule>* m) {
    if (!opts.empty()) {
      return Status::Error("ODD_INO takes no options");
    }
    *m = std::make_unique<OddInoMatch>();
    return Status::Ok();
  });
  pft.RegisterTarget("COUNT", [count_fires](const std::vector<std::string>& opts,
                                            std::unique_ptr<TargetModule>* t) {
    if (!opts.empty()) {
      return Status::Error("COUNT takes no options");
    }
    *t = std::make_unique<CountTarget>(count_fires);
    return Status::Ok();
  });
}

enum class Flavor : int {
  kMixed = 0,
  kStateHeavy,
  kNativeHeavy,
  kDeepJumps,
  kSparse,
};
inline constexpr int kFlavorCount = 5;

inline const char* FlavorName(Flavor f) {
  switch (f) {
    case Flavor::kMixed:
      return "mixed";
    case Flavor::kStateHeavy:
      return "state-heavy";
    case Flavor::kNativeHeavy:
      return "native-heavy";
    case Flavor::kDeepJumps:
      return "deep-jumps";
    case Flavor::kSparse:
      return "sparse";
  }
  return "?";
}

inline Flavor FlavorForSeed(uint64_t seed) {
  return static_cast<Flavor>(seed % kFlavorCount);
}

namespace detail {

inline const char* kLabels[] = {"etc_t", "tmp_t", "shadow_t", "bin_t", "user_t"};
inline const char* kOpsPool[] = {"FILE_OPEN", "SOCKET_BIND",
                                 "PROCESS_SIGNAL_DELIVERY", "FILE_GETATTR"};
inline const char* kKeys[] = {"k0", "k1", "k2", "k3"};
inline const char* kBins[] = {"/bin/true", "/usr/bin/apache2", "/bin/sh"};

template <typename T, size_t N>
const T& Pick(std::mt19937_64& rng, const T (&pool)[N]) {
  return pool[rng() % N];
}

// A rule base exercising every builtin chain, module, and target, plus
// entrypoint-indexed rules and the two extension modules registered by the
// fuzz harness (ODD_INO / COUNT).
inline std::vector<std::string> MixedRules(std::mt19937_64& rng) {
  const char* kChains[] = {"input", "input", "input", "output", "create",
                           "syscallbegin", "fz"};
  std::vector<std::string> rules = {"pftables -N fz",
                                    "pftables -A input -s staff_t -j fz"};
  for (int i = 0; i < 30; ++i) {
    std::string r = "pftables -A ";
    r += Pick(rng, kChains);
    if (rng() % 2 == 0) {
      r += std::string(" -o ") + Pick(rng, kOpsPool);
    }
    switch (rng() % 4) {
      case 0:
        r += std::string(" -s ") + Pick(rng, kLabels);
        break;
      case 1:
        r += std::string(" -s ~") + Pick(rng, kLabels);
        break;
      case 2:
        r += std::string(" -s {") + Pick(rng, kLabels) + "|" + Pick(rng, kLabels) +
             "}";
        break;
      default:
        break;  // wildcard subject
    }
    if (rng() % 3 == 0) {
      r += std::string(" -d ") + Pick(rng, kLabels);
    }
    if (rng() % 4 == 0) {
      char ept[64];
      std::snprintf(ept, sizeof(ept), " -p %s -i 0x%x", Pick(rng, kBins),
                    rng() % 3 == 0 ? 0x100 * (1 + static_cast<int>(rng() % 3))
                                   : 0x8000 + static_cast<int>(rng() % 8) * 0x40);
      r += ept;
    }
    switch (rng() % 6) {
      case 0:
        r += std::string(" -m STATE --key ") + Pick(rng, kKeys);
        break;
      case 1:
        r += std::string(" -m STATE --key ") + Pick(rng, kKeys) + " --cmp " +
             std::to_string(rng() % 3) + (rng() % 2 ? " --nequal" : "");
        break;
      case 2:
        r += " -m SYSCALL_ARGS --arg 0 --equal " + std::to_string(rng() % 8);
        break;
      case 3:
        r += " -m COMPARE --v1 C_UID --v2 " + std::to_string(rng() % 2) +
             (rng() % 2 ? " --nequal" : "");
        break;
      case 4:
        r += " -m ODD_INO";
        break;
      default:
        break;  // no module
    }
    switch (rng() % 8) {
      case 0:
      case 1:
        r += " -j DROP";
        break;
      case 2:
        r += " -j ACCEPT";
        break;
      case 3:
        r += " -j RETURN";
        break;
      case 4:
        r += std::string(" -j STATE --set --key ") + Pick(rng, kKeys) +
             " --value " + std::to_string(rng() % 3);
        break;
      case 5:
        r += std::string(" -j STATE --unset --key ") + Pick(rng, kKeys);
        break;
      case 6:
        r += " -j LOG --prefix fz" + std::to_string(rng() % 3);
        break;
      default:
        r += " -j COUNT";
        break;
    }
    rules.push_back(std::move(r));
  }
  return rules;
}

// Long STATE protocols: most rules either test a key (with and without a
// comparison value) or set/unset one, spread over two user chains, so the
// specialized kMatchStateEq/Ne forms dominate the program.
inline std::vector<std::string> StateHeavyRules(std::mt19937_64& rng) {
  std::vector<std::string> rules = {
      "pftables -N sa",
      "pftables -N sb",
      "pftables -A input -s staff_t -j sa",
      "pftables -A input -j sb",
      "pftables -A syscallbegin -j sb",
  };
  const char* kChains[] = {"sa", "sa", "sb", "sb", "input", "syscallbegin"};
  for (int i = 0; i < 40; ++i) {
    std::string r = "pftables -A ";
    r += Pick(rng, kChains);
    if (rng() % 5 == 0) {
      r += std::string(" -o ") + Pick(rng, kOpsPool);
    }
    if (rng() % 4 == 0) {
      r += std::string(" -s ") + Pick(rng, kLabels);
    }
    switch (rng() % 3) {
      case 0:
        r += std::string(" -m STATE --key ") + Pick(rng, kKeys);
        break;
      case 1:
        r += std::string(" -m STATE --key ") + Pick(rng, kKeys) + " --cmp " +
             std::to_string(rng() % 4) + (rng() % 2 ? " --nequal" : "");
        break;
      default:
        break;  // no module: unconditional mutation below
    }
    switch (rng() % 8) {
      case 0:
      case 1:
      case 2:
        r += std::string(" -j STATE --set --key ") + Pick(rng, kKeys) +
             " --value " + std::to_string(rng() % 4);
        break;
      case 3:
      case 4:
        r += std::string(" -j STATE --unset --key ") + Pick(rng, kKeys);
        break;
      case 5:
        r += " -j RETURN";
        break;
      case 6:
        r += " -j LOG --prefix st" + std::to_string(rng() % 2);
        break;
      default:
        r += rng() % 3 == 0 ? " -j DROP" : " -j ACCEPT";
        break;
    }
    rules.push_back(std::move(r));
  }
  return rules;
}

// Dominated by the native escapes: ODD_INO matches and COUNT targets, so
// kMatchNative/kTargetNative dispatch (and its module-index operands) carry
// most of the evaluation.
inline std::vector<std::string> NativeHeavyRules(std::mt19937_64& rng) {
  std::vector<std::string> rules = {"pftables -N nz",
                                    "pftables -A input -j nz"};
  const char* kChains[] = {"input", "output", "nz", "nz"};
  for (int i = 0; i < 30; ++i) {
    std::string r = "pftables -A ";
    r += Pick(rng, kChains);
    if (rng() % 3 == 0) {
      r += std::string(" -o ") + Pick(rng, kOpsPool);
    }
    if (rng() % 3 == 0) {
      r += std::string(" -s ") + Pick(rng, kLabels);
    }
    switch (rng() % 4) {
      case 0:
      case 1:
        r += " -m ODD_INO";
        break;
      case 2:
        r += std::string(" -m STATE --key ") + Pick(rng, kKeys) + " --cmp " +
             std::to_string(rng() % 2);
        break;
      default:
        break;
    }
    switch (rng() % 5) {
      case 0:
      case 1:
        r += " -j COUNT";
        break;
      case 2:
        r += " -j DROP";
        break;
      case 3:
        r += " -j LOG --prefix nh";
        break;
      default:
        r += " -j RETURN";
        break;
    }
    rules.push_back(std::move(r));
  }
  return rules;
}

// A JUMP nest of exactly kMaxChainDepth user chains: d1 is entered at depth
// 1, d<kMaxChainDepth-1> at the last depth that still executes, and
// d<kMaxChainDepth> at the runtime cutoff itself (ExecChain falls through
// without evaluating it). Both dispatch strategies must agree on that
// boundary; the verifier flags the cut chain with a depth warning.
inline std::vector<std::string> DeepJumpRules(std::mt19937_64& rng) {
  std::vector<std::string> rules;
  const int depth = kMaxChainDepth;
  for (int i = 1; i <= depth; ++i) {
    rules.push_back("pftables -N d" + std::to_string(i));
  }
  rules.push_back("pftables -A input -j d1");
  rules.push_back("pftables -A syscallbegin -s staff_t -j d1");
  for (int i = 1; i <= depth; ++i) {
    const std::string chain = "d" + std::to_string(i);
    // One or two filler rules per level so hit/eval counters at every depth
    // are part of the diffed observable state.
    rules.push_back("pftables -A " + chain + " -s " + Pick(rng, kLabels) +
                    " -j LOG --prefix " + chain);
    if (rng() % 2 == 0) {
      rules.push_back("pftables -A " + chain + " -j STATE --set --key depth" +
                      " --value " + std::to_string(i));
    }
    if (rng() % 4 == 0) {
      rules.push_back("pftables -A " + chain + " -m STATE --key depth --cmp " +
                      std::to_string(rng() % depth) + " -j RETURN");
    }
    if (i < depth) {
      rules.push_back("pftables -A " + chain + " -j d" + std::to_string(i + 1));
    } else {
      // Never reached at runtime: entering this chain needs depth ==
      // kMaxChainDepth, where the evaluators bail.
      rules.push_back("pftables -A " + chain + " -j DROP");
    }
  }
  return rules;
}

// Degenerate shapes: an empty user chain that is still jumped to, a one-rule
// chain, and buckets populated for a single operation only.
inline std::vector<std::string> SparseRules(std::mt19937_64& rng) {
  std::vector<std::string> rules = {
      "pftables -N empty",
      "pftables -N one",
      "pftables -A input -s staff_t -j empty",
      "pftables -A input -j one",
      "pftables -A one -d etc_t -j DROP",
      std::string("pftables -A output -o ") + Pick(rng, kOpsPool) +
          " -j LOG --prefix sp",
  };
  const int extra = static_cast<int>(rng() % 3);
  for (int i = 0; i < extra; ++i) {
    rules.push_back(std::string("pftables -A create -o FILE_OPEN -s ") +
                    Pick(rng, kLabels) + " -j ACCEPT");
  }
  return rules;
}

}  // namespace detail

// Builds the flavor's rule base. The same (seed-derived) rng must be handed
// in freshly seeded so the command list is a pure function of the seed.
inline std::vector<std::string> RandomRules(std::mt19937_64& rng, Flavor flavor) {
  switch (flavor) {
    case Flavor::kMixed:
      return detail::MixedRules(rng);
    case Flavor::kStateHeavy:
      return detail::StateHeavyRules(rng);
    case Flavor::kNativeHeavy:
      return detail::NativeHeavyRules(rng);
    case Flavor::kDeepJumps:
      return detail::DeepJumpRules(rng);
    case Flavor::kSparse:
      return detail::SparseRules(rng);
  }
  return {};
}

}  // namespace pf::core::fuzzgen

#endif  // TESTS_CORE_FUZZ_RULES_H_
