// The simulated kernel: VFS + namei, DAC, MAC, signals, system calls, and
// the authorization hook layer that the Process Firewall plugs into.
//
// All system calls take the calling Task (or its Proc wrapper for calls that
// interact with scheduling) and return int64_t in the Linux convention:
// >= 0 on success, -errno on failure (see src/sim/error.h).
#ifndef SRC_SIM_KERNEL_H_
#define SRC_SIM_KERNEL_H_

#include <array>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/error.h"
#include "src/sim/label.h"
#include "src/sim/lsm.h"
#include "src/sim/mac_policy.h"
#include "src/sim/rng.h"
#include "src/sim/task.h"
#include "src/sim/vfs.h"

namespace pf::sim {

class Proc;
class Scheduler;

// Entry function of a registered program (what execve() "jumps to").
using ProgMain = std::function<int(Proc&)>;

// stat(2) result.
struct StatBuf {
  Dev dev = 0;
  Ino ino = kInvalidIno;
  InodeType type = InodeType::kRegular;
  FileMode mode = 0;
  Uid uid = 0;
  Gid gid = 0;
  uint64_t size = 0;
  uint32_t nlink = 0;
  Sid sid = kInvalidSid;  // exposed like getxattr(security.selinux)

  FileId id() const { return FileId{dev, ino}; }
  bool IsSymlink() const { return type == InodeType::kSymlink; }
};

// Result of pathname resolution.
struct Nameidata {
  std::shared_ptr<Inode> parent;  // directory containing the final component
  std::shared_ptr<Inode> inode;   // final inode; null when absent (with kWantParent)
  std::string last;               // final component name
};

// PathWalk flags.
enum WalkFlag : uint32_t {
  kFollowFinal = 1u << 0,  // follow a symlink in the final component
  kWantParent = 1u << 1,   // missing final component is not an error
  kNoHooks = 1u << 2,      // setup/diagnostic walks: skip DAC and LSM hooks
};

class Kernel {
 public:
  explicit Kernel(uint64_t seed);
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // --- wiring ---
  Vfs& vfs() { return vfs_; }
  LabelRegistry& labels() { return labels_; }
  MacPolicy& policy() { return policy_; }
  SplitMix64& rng() { return rng_; }
  Scheduler* sched() { return sched_; }
  void set_sched(Scheduler* s) { sched_ = s; }
  uint64_t tick() const { return tick_; }

  // Baseline cost burned at each system-call entry (default 0). Benchmarks
  // set this to a calibrated value so that Process Firewall overhead is
  // measured against a realistic kernel-entry cost rather than the (much
  // cheaper) simulated dispatch; see EXPERIMENTS.md.
  void set_syscall_cost_ns(uint64_t ns) { syscall_cost_ns_ = ns; }
  uint64_t syscall_cost_ns() const { return syscall_cost_ns_; }

  // Registers a security module; returns its per-task state slot index.
  size_t AddModule(std::unique_ptr<SecurityModule> module);
  // Hands out an unused per-task state slot (Task::security index) without
  // registering a module: for a consumer that keeps per-task state but is
  // not behind the hooks. AddModule draws from the same pool, so no two
  // consumers share a slot. Thread-safe; aborts once the pool is exhausted.
  size_t ReserveSecuritySlot();
  SecurityModule* FindModule(std::string_view name);

  // Registers a program entry function under a key named by BinaryImage.
  void RegisterProgram(const std::string& key, ProgMain main);
  const ProgMain* FindProgram(const std::string& key) const;

  // --- image construction (mkfs-style; bypasses hooks, used for setup) ---
  std::shared_ptr<Inode> MkDirAt(const std::string& path, FileMode mode, Uid uid, Gid gid,
                                 std::string_view label);
  std::shared_ptr<Inode> MkFileAt(const std::string& path, std::string contents, FileMode mode,
                                  Uid uid, Gid gid, std::string_view label);
  std::shared_ptr<Inode> MkSymlinkAt(const std::string& path, const std::string& target, Uid uid,
                                     Gid gid, std::string_view label);
  // Looks up an inode without hooks (diagnostics, pftables rule compilation).
  std::shared_ptr<Inode> LookupNoHooks(const std::string& path);

  // --- pathname resolution (fires DIR_SEARCH / LNK_FILE_READ hooks) ---
  int64_t PathWalk(Task& task, const std::string& path, uint32_t flags, Nameidata* nd);

  // --- system calls ---
  int64_t SysNull(Task& task);
  int64_t SysGetpid(Task& task);
  int64_t SysUmask(Task& task, FileMode mask);

  int64_t SysOpen(Task& task, const std::string& path, uint32_t flags, FileMode mode = 0644);
  int64_t SysClose(Task& task, int fd);
  int64_t SysRead(Task& task, int fd, std::string* out, uint64_t count);
  int64_t SysWrite(Task& task, int fd, std::string_view data);

  int64_t SysStat(Task& task, const std::string& path, StatBuf* st);
  int64_t SysLstat(Task& task, const std::string& path, StatBuf* st);
  int64_t SysFstat(Task& task, int fd, StatBuf* st);
  int64_t SysAccess(Task& task, const std::string& path, uint32_t bits);

  int64_t SysUnlink(Task& task, const std::string& path);
  int64_t SysMkdir(Task& task, const std::string& path, FileMode mode);
  int64_t SysRmdir(Task& task, const std::string& path);
  int64_t SysSymlink(Task& task, const std::string& target, const std::string& linkpath);
  int64_t SysLink(Task& task, const std::string& oldpath, const std::string& newpath);
  int64_t SysRename(Task& task, const std::string& oldpath, const std::string& newpath);
  int64_t SysChmod(Task& task, const std::string& path, FileMode mode);
  int64_t SysFchmod(Task& task, int fd, FileMode mode);
  int64_t SysChown(Task& task, const std::string& path, Uid uid, Gid gid);
  int64_t SysChdir(Task& task, const std::string& path);
  int64_t SysReaddir(Task& task, const std::string& path, std::vector<std::string>* names);

  // Maps an opened binary/library into the task's address space; returns the
  // (ASLR-randomized) base address.
  int64_t SysMmap(Task& task, int fd);

  int64_t SysSocket(Task& task);
  int64_t SysBind(Task& task, int fd, const std::string& path, FileMode mode = 0755);
  int64_t SysListen(Task& task, int fd);
  int64_t SysConnect(Task& task, int fd, const std::string& path);

  int64_t SysSigaction(Task& task, SigNum sig, std::function<void(SigNum)> handler);
  int64_t SysSigprocmask(Task& task, bool block, SigNum sig);
  int64_t SysKill(Task& task, Pid pid, SigNum sig);
  int64_t SysSigreturn(Task& task);

  int64_t SysFork(Proc& proc, std::function<void(Proc&)> body);
  int64_t SysWaitpid(Proc& proc, Pid pid, int* status);
  int64_t SysExecve(Proc& proc, const std::string& path, std::vector<std::string> argv,
                    std::map<std::string, std::string> env);
  [[noreturn]] void SysExit(Proc& proc, int code);
  int64_t SysPause(Proc& proc);

  // Delivers deliverable pending signals to the task (invoked by the
  // scheduling layer at yield points). Returns number delivered.
  int DeliverPendingSignals(Proc& proc);

  // Queues a signal on the target and wakes it if blocked. Used by kill(2)
  // and by the scheduler for SIGCHLD.
  void PostSignal(Task& target, SigNum sig, Pid sender);

  // Called by the scheduler when a task is being torn down.
  void ReleaseTaskResources(Task& task);

  // Maps an image into the task (used by execve and by Scheduler::Spawn).
  // Returns 0 or -errno.
  int64_t MapImage(Task& task, const std::shared_ptr<Inode>& inode, const std::string& path);

  // Exposed for the scheduler: allocate the next pid / a fresh stack base.
  Pid AllocPid() { return next_pid_++; }
  Addr AslrStackBase();
  Addr AslrMapBase();

  // Statistics.
  uint64_t authorize_calls() const { return authorize_calls_; }
  uint64_t denial_count() const { return denial_count_; }

 private:
  friend class SyscallScope;

  // Runs DAC (inline) + registered modules for one operation.
  int64_t Authorize(AccessRequest& req);

  // Internal walk; `task` may be null only with kNoHooks. `start` overrides
  // the walk origin for relative paths (used for symlink-target peeks).
  int64_t PathWalkInternal(Task* task, std::shared_ptr<Inode> start, const std::string& path,
                           uint32_t flags, Nameidata* nd);

  // Hook helpers: build an AccessRequest from the current syscall context.
  int64_t HookInode(Task& task, Op op, Inode& inode, std::string_view name,
                    Inode* link_target = nullptr);
  int64_t HookSyscallBegin(Task& task);

  // DAC permission check (root bypasses; write also checks read-only fs).
  bool DacPermitted(const Cred& cred, const Inode& inode, uint32_t access_bits) const;
  // Sticky-directory deletion restriction.
  bool DacMayDelete(const Cred& cred, const Inode& dir, const Inode& victim) const;

  int64_t DoUnlinkCommon(Task& task, const std::string& path, bool rmdir);
  void FillStat(const Inode& inode, StatBuf* st) const;
  std::shared_ptr<Inode> CreateAt(Task& task, Nameidata& nd, InodeType type, FileMode mode);
  void DropLink(const std::shared_ptr<Inode>& dir, const std::string& name,
                const std::shared_ptr<Inode>& victim);

  Vfs vfs_;
  LabelRegistry labels_;
  MacPolicy policy_{&labels_};
  SplitMix64 rng_;
  Scheduler* sched_ = nullptr;

  std::vector<std::unique_ptr<SecurityModule>> modules_;
  std::atomic<size_t> next_security_slot_{0};
  std::map<std::string, ProgMain> programs_;

  std::unique_ptr<Task> init_task_;  // used for setup-mode walks
  Pid next_pid_ = 2;
  uint64_t tick_ = 0;
  uint64_t syscall_cost_ns_ = 0;
  uint64_t authorize_calls_ = 0;
  uint64_t denial_count_ = 0;
};

// RAII scope that maintains the per-task syscall context, fires the
// SYSCALL_BEGIN hook, and notifies modules on entry/exit.
class SyscallScope {
 public:
  SyscallScope(Kernel& kernel, Task& task, SyscallNr nr,
               std::array<int64_t, 4> args = {0, 0, 0, 0});
  ~SyscallScope();

  SyscallScope(const SyscallScope&) = delete;
  SyscallScope& operator=(const SyscallScope&) = delete;

  bool denied() const { return denial_ != 0; }
  int64_t error() const { return denial_; }

 private:
  Kernel& kernel_;
  Task& task_;
  SyscallNr prev_nr_;
  std::array<int64_t, 4> prev_args_;
  int64_t denial_ = 0;
};

}  // namespace pf::sim

#endif  // SRC_SIM_KERNEL_H_
