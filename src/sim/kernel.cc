#include "src/sim/kernel.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>

namespace pf::sim {

Kernel::Kernel(uint64_t seed) : rng_(seed) {
  vfs_.root()->sid = labels_.Intern("root_t");

  init_task_ = std::make_unique<Task>();
  init_task_->pid = 1;
  init_task_->comm = "init";
  init_task_->cwd = vfs_.root()->id();
  init_task_->cred.sid = labels_.Intern("init_t");
}

Kernel::~Kernel() = default;

size_t Kernel::AddModule(std::unique_ptr<SecurityModule> module) {
  modules_.push_back(std::move(module));
  return ReserveSecuritySlot();
}

size_t Kernel::ReserveSecuritySlot() {
  const size_t slot = next_security_slot_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= kMaxSecuritySlots) {
    std::fprintf(stderr, "kernel: all %zu per-task security slots are taken\n",
                 kMaxSecuritySlots);
    std::abort();
  }
  return slot;
}

SecurityModule* Kernel::FindModule(std::string_view name) {
  for (auto& m : modules_) {
    if (m->ModuleName() == name) {
      return m.get();
    }
  }
  return nullptr;
}

void Kernel::RegisterProgram(const std::string& key, ProgMain main) {
  programs_[key] = std::move(main);
}

const ProgMain* Kernel::FindProgram(const std::string& key) const {
  auto it = programs_.find(key);
  return it == programs_.end() ? nullptr : &it->second;
}

// --- image construction -----------------------------------------------------

namespace {
// Splits "/a/b/c" into the directory part and the final component.
std::pair<std::string, std::string> SplitPath(const std::string& path) {
  auto slash = path.rfind('/');
  if (slash == std::string::npos) {
    return {".", path};
  }
  if (slash == 0) {
    return {"/", path.substr(1)};
  }
  return {path.substr(0, slash), path.substr(slash + 1)};
}
}  // namespace

std::shared_ptr<Inode> Kernel::MkDirAt(const std::string& path, FileMode mode, Uid uid, Gid gid,
                                       std::string_view label) {
  auto [dirpath, name] = SplitPath(path);
  Nameidata nd;
  if (PathWalk(*init_task_, dirpath, kNoHooks | kFollowFinal, &nd) != 0 || !nd.inode ||
      !nd.inode->IsDir()) {
    return nullptr;
  }
  auto dir = nd.inode;
  if (auto it = dir->entries.find(name); it != dir->entries.end()) {
    auto existing = vfs_.Sb(dir->dev).Get(it->second);
    return existing && existing->IsDir() ? existing : nullptr;
  }
  auto inode = vfs_.Sb(dir->dev).Alloc(InodeType::kDirectory, mode, uid, gid,
                                       labels_.Intern(label));
  inode->nlink = 1;
  inode->parent_dir = dir->id();
  dir->entries[name] = inode->ino;
  return inode;
}

std::shared_ptr<Inode> Kernel::MkFileAt(const std::string& path, std::string contents,
                                        FileMode mode, Uid uid, Gid gid, std::string_view label) {
  auto [dirpath, name] = SplitPath(path);
  Nameidata nd;
  if (PathWalk(*init_task_, dirpath, kNoHooks | kFollowFinal, &nd) != 0 || !nd.inode ||
      !nd.inode->IsDir()) {
    return nullptr;
  }
  auto dir = nd.inode;
  if (dir->entries.count(name) != 0) {
    return nullptr;
  }
  auto inode = vfs_.Sb(dir->dev).Alloc(InodeType::kRegular, mode, uid, gid,
                                       labels_.Intern(label));
  inode->nlink = 1;
  inode->data = std::move(contents);
  dir->entries[name] = inode->ino;
  return inode;
}

std::shared_ptr<Inode> Kernel::MkSymlinkAt(const std::string& path, const std::string& target,
                                           Uid uid, Gid gid, std::string_view label) {
  auto [dirpath, name] = SplitPath(path);
  Nameidata nd;
  if (PathWalk(*init_task_, dirpath, kNoHooks | kFollowFinal, &nd) != 0 || !nd.inode ||
      !nd.inode->IsDir()) {
    return nullptr;
  }
  auto dir = nd.inode;
  if (dir->entries.count(name) != 0) {
    return nullptr;
  }
  auto inode = vfs_.Sb(dir->dev).Alloc(InodeType::kSymlink, 0777, uid, gid,
                                       labels_.Intern(label));
  inode->nlink = 1;
  inode->symlink_target = target;
  dir->entries[name] = inode->ino;
  return inode;
}

std::shared_ptr<Inode> Kernel::LookupNoHooks(const std::string& path) {
  Nameidata nd;
  if (PathWalk(*init_task_, path, kNoHooks | kFollowFinal, &nd) != 0) {
    return nullptr;
  }
  return nd.inode;
}

// --- authorization -----------------------------------------------------------

int64_t Kernel::Authorize(AccessRequest& req) {
  ++authorize_calls_;
  for (auto& module : modules_) {
    int64_t rv = module->Authorize(req);
    if (rv != 0) {
      ++denial_count_;
      return rv;
    }
  }
  return 0;
}

int64_t Kernel::HookInode(Task& task, Op op, Inode& inode, std::string_view name,
                          Inode* link_target) {
  AccessRequest req;
  req.task = &task;
  req.op = op;
  req.inode = &inode;
  req.id = inode.id();
  req.name = name;
  req.link_target = link_target;
  req.syscall_nr = task.syscall_nr;
  req.args = task.syscall_args;
  return Authorize(req);
}

int64_t Kernel::HookSyscallBegin(Task& task) {
  AccessRequest req;
  req.task = &task;
  req.op = Op::kSyscallBegin;
  req.syscall_nr = task.syscall_nr;
  req.args = task.syscall_args;
  return Authorize(req);
}

bool Kernel::DacPermitted(const Cred& cred, const Inode& inode, uint32_t access_bits) const {
  if (cred.IsRoot()) {
    return true;
  }
  uint32_t granted;
  if (cred.euid == inode.uid) {
    granted = (inode.mode >> 6) & 7;
  } else if (cred.egid == inode.gid) {
    granted = (inode.mode >> 3) & 7;
  } else {
    granted = inode.mode & 7;
  }
  return (granted & access_bits) == access_bits;
}

bool Kernel::DacMayDelete(const Cred& cred, const Inode& dir, const Inode& victim) const {
  if (cred.IsRoot()) {
    return true;
  }
  if (!DacPermitted(cred, dir, AccessBit(Access::kWrite) | AccessBit(Access::kExec))) {
    return false;
  }
  if (dir.IsSticky() && cred.euid != victim.uid && cred.euid != dir.uid) {
    return false;
  }
  return true;
}

void Kernel::FillStat(const Inode& inode, StatBuf* st) const {
  st->dev = inode.dev;
  st->ino = inode.ino;
  st->type = inode.type;
  st->mode = inode.mode;
  st->uid = inode.uid;
  st->gid = inode.gid;
  st->size = inode.IsSymlink() ? inode.symlink_target.size() : inode.data.size();
  st->nlink = inode.nlink;
  st->sid = inode.sid;
}

Addr Kernel::AslrStackBase() {
  return 0x7ffc00000000ULL + (rng_.Below(1u << 20) << 12);
}

Addr Kernel::AslrMapBase() {
  return 0x7f0000000000ULL + (rng_.Below(1u << 24) << 12);
}

// --- SyscallScope ------------------------------------------------------------

SyscallScope::SyscallScope(Kernel& kernel, Task& task, SyscallNr nr, std::array<int64_t, 4> args)
    : kernel_(kernel), task_(task), prev_nr_(task.syscall_nr), prev_args_(task.syscall_args) {
  if (kernel_.syscall_cost_ns_ > 0) {
    // Calibrated kernel-entry cost (benchmarks only; see kernel.h).
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::nanoseconds(kernel_.syscall_cost_ns_);
    while (std::chrono::steady_clock::now() < deadline) {
    }
  }
  task_.syscall_nr = nr;
  task_.syscall_args = args;
  ++task_.syscall_depth;
  ++task_.syscall_count;
  ++kernel_.tick_;
  for (auto& m : kernel_.modules_) {
    m->OnSyscallEnter(task_);
  }
  denial_ = kernel_.HookSyscallBegin(task_);
}

SyscallScope::~SyscallScope() {
  for (auto& m : kernel_.modules_) {
    m->OnSyscallExit(task_);
  }
  --task_.syscall_depth;
  task_.syscall_nr = prev_nr_;
  task_.syscall_args = prev_args_;
}

// --- trivial syscalls ---------------------------------------------------------

int64_t Kernel::SysNull(Task& task) {
  SyscallScope scope(*this, task, SyscallNr::kNull);
  if (scope.denied()) {
    return scope.error();
  }
  return 0;
}

int64_t Kernel::SysGetpid(Task& task) {
  SyscallScope scope(*this, task, SyscallNr::kGetpid);
  if (scope.denied()) {
    return scope.error();
  }
  return task.pid;
}

int64_t Kernel::SysUmask(Task& task, FileMode mask) {
  SyscallScope scope(*this, task, SyscallNr::kUmask);
  if (scope.denied()) {
    return scope.error();
  }
  FileMode old = task.umask;
  task.umask = mask & 0777;
  return old;
}

// --- stat family ---------------------------------------------------------------

int64_t Kernel::SysStat(Task& task, const std::string& path, StatBuf* st) {
  SyscallScope scope(*this, task, SyscallNr::kStat);
  if (scope.denied()) {
    return scope.error();
  }
  Nameidata nd;
  if (int64_t rv = PathWalk(task, path, kFollowFinal, &nd); rv != 0) {
    return rv;
  }
  if (int64_t rv = HookInode(task, Op::kFileGetattr, *nd.inode, path); rv != 0) {
    return rv;
  }
  FillStat(*nd.inode, st);
  return 0;
}

int64_t Kernel::SysLstat(Task& task, const std::string& path, StatBuf* st) {
  SyscallScope scope(*this, task, SyscallNr::kLstat);
  if (scope.denied()) {
    return scope.error();
  }
  Nameidata nd;
  if (int64_t rv = PathWalk(task, path, 0, &nd); rv != 0) {
    return rv;
  }
  if (int64_t rv = HookInode(task, Op::kFileGetattr, *nd.inode, path); rv != 0) {
    return rv;
  }
  FillStat(*nd.inode, st);
  return 0;
}

int64_t Kernel::SysFstat(Task& task, int fd, StatBuf* st) {
  SyscallScope scope(*this, task, SyscallNr::kFstat, {fd});
  if (scope.denied()) {
    return scope.error();
  }
  auto file = task.fds.Get(fd);
  if (!file) {
    return SysError(Err::kBadF);
  }
  if (int64_t rv = HookInode(task, Op::kFileGetattr, *file->inode, ""); rv != 0) {
    return rv;
  }
  FillStat(*file->inode, st);
  return 0;
}

int64_t Kernel::SysAccess(Task& task, const std::string& path, uint32_t bits) {
  SyscallScope scope(*this, task, SyscallNr::kAccess);
  if (scope.denied()) {
    return scope.error();
  }
  Nameidata nd;
  if (int64_t rv = PathWalk(task, path, kFollowFinal, &nd); rv != 0) {
    return rv;
  }
  // access(2) checks with the *real* uid/gid: the historically racy API.
  Cred real = task.cred;
  real.euid = real.uid;
  real.egid = real.gid;
  if (!DacPermitted(real, *nd.inode, bits)) {
    return SysError(Err::kAcces);
  }
  return 0;
}

}  // namespace pf::sim
