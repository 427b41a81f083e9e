// The Process Firewall "packet": one resource access plus the process and
// resource context needed to evaluate rules against it.
//
// Unlike a network firewall, the packet is not handed to us — context must
// be *fetched* from the process and from kernel data structures. Fields are
// therefore populated by context modules, guarded by a bitmask so each field
// is collected at most once per invocation (lazy retrieval, paper §4.2), and
// the expensive fields (stack unwinds) can additionally be cached across
// invocations within one system call (context caching). The packet holds
// plain values only: nothing in it owns or pins memory.
#ifndef SRC_CORE_PACKET_H_
#define SRC_CORE_PACKET_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/core/unwind.h"
#include "src/sim/lsm.h"

namespace pf::core {

struct EngineStatsBlock;  // engine.h

// Context fields a rule may require. Each has a context module that knows
// how to retrieve it (engine.cc) and a bit in Packet::have.
enum class Ctx : uint32_t {
  kObject,           // object sid / identity / owner (from the inode)
  kLinkTarget,       // symlink target attributes (owner comparisons, R8)
  kAdversaryAccess,  // adversary read/write accessibility of the object
  kEntrypoint,       // innermost user frame (program + relative PC)
  kUserStack,        // the user-stack unwind (fetched with kEntrypoint)
  kInterpStack,      // innermost interpreter frame
  kCount,
};

constexpr uint32_t CtxBit(Ctx c) { return 1u << static_cast<uint32_t>(c); }

// Context variables usable in match/target module arguments (C_INO etc.),
// resolved against the packet at evaluation time.
enum class CtxVar : uint32_t {
  kIno,          // C_INO: object inode number
  kGen,          // C_GEN: object generation (kernel-only identity, survives
                 //        inode-number recycling — see cryogenic sleep tests)
  kDev,          // C_DEV: object device
  kSid,          // C_SID: object security id
  kDacOwner,     // C_DAC_OWNER: object owner uid
  kTgtDacOwner,  // C_TGT_DAC_OWNER: symlink target owner uid
  kTgtSid,       // C_TGT_SID: symlink target security id
  kPid,          // C_PID: calling process id
  kUid,          // C_UID: caller's real uid
  kEuid,         // C_EUID: caller's effective uid
  kSig,          // C_SIG: signal number being delivered
  kSyscall,      // C_SYSCALL: current syscall number
};

std::optional<CtxVar> CtxVarFromName(std::string_view name);
std::string_view CtxVarName(CtxVar v);

struct Packet {
  sim::AccessRequest* req = nullptr;
  uint32_t have = 0;  // bitmask of collected Ctx fields
  // The deciding worker's counter block, resolved once per decision by
  // Engine::Authorize. Every context fetch and rule evaluation bumps it.
  EngineStatsBlock* stats = nullptr;

  // --- kObject ---
  sim::Sid object_sid = sim::kInvalidSid;
  sim::FileId object_id;
  uint64_t object_generation = 0;
  sim::Uid object_owner = 0;
  bool has_object = false;

  // --- kLinkTarget ---
  bool has_link_target = false;
  sim::Uid link_target_owner = 0;
  sim::Sid link_target_sid = sim::kInvalidSid;
  sim::FileId link_target_id;
  sim::Uid link_owner = 0;  // owner of the link itself

  // --- kAdversaryAccess ---
  bool adversary_writable = false;
  bool adversary_readable = false;

  // --- kEntrypoint / kUserStack --- (one unwind fills both)
  bool entrypoint_valid = false;
  BinFrame entrypoint;  // innermost frame

  // --- kInterpStack --- the innermost interpreter record. The script path
  // is resolved when the context is fetched and views the task's script
  // table, which no hook modifies.
  bool interp_valid = false;
  sim::InterpLang interp_lang = sim::InterpLang::kNone;
  std::string_view interp_script;

  bool Has(Ctx c) const { return (have & CtxBit(c)) != 0; }
  void Mark(Ctx c) { have |= CtxBit(c); }

  // Resolves a context variable; nullopt when the needed context is absent
  // (e.g. C_TGT_DAC_OWNER on a non-link access).
  std::optional<int64_t> Resolve(CtxVar v) const;
};

}  // namespace pf::core

#endif  // SRC_CORE_PACKET_H_
