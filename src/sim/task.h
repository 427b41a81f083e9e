// The task (process) structure.
#ifndef SRC_SIM_TASK_H_
#define SRC_SIM_TASK_H_

#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/sim/cred.h"
#include "src/sim/fdtable.h"
#include "src/sim/mm.h"
#include "src/sim/signal.h"
#include "src/sim/syscall_nr.h"
#include "src/sim/types.h"

namespace pf::sim {

// Interpreter runtimes the entrypoint context module understands (paper
// Section 4.4 supports Bash, PHP, and Python).
enum class InterpLang : uint32_t {
  kNone = 0,
  kPhp = 1,
  kPython = 2,
  kBash = 3,
};

// Slots for security modules to hang per-task state off the task structure
// (the paper extends struct task_struct with the PF rule-traversal state and
// the STATE dictionary).
inline constexpr size_t kMaxSecuritySlots = 4;

struct Task {
  Pid pid = kInvalidPid;
  Pid ppid = kInvalidPid;
  std::string comm;  // short process name
  std::string exe;   // path of the executed binary

  Cred cred;
  FdTable fds;
  FileId cwd;
  FileMode umask = 022;
  Mm mm;

  std::vector<std::string> argv;
  std::map<std::string, std::string> env;

  SignalState signals;

  // Interpreter script table: script_id -> path. Node records in user memory
  // refer to scripts by id; the kernel reads this table the way it reads
  // comm. Repopulated by the interpreter runtime after execve.
  std::vector<std::string> scripts;
  InterpLang interp_lang = InterpLang::kNone;

  // Current system call (valid while syscall_depth > 0).
  SyscallNr syscall_nr = SyscallNr::kNull;
  std::array<int64_t, 4> syscall_args = {0, 0, 0, 0};
  int syscall_depth = 0;     // >1 inside a signal handler's nested syscalls
  uint64_t syscall_count = 0;

  int exit_code = 0;

  // Opaque per-task state owned by security modules. A module creates its
  // slot's state under the slot's once_flag, so concurrent first touches of
  // one task's slot from several threads create it exactly once. Inside the
  // once_flag it then publishes the state's address in security_ready with
  // release, so every later touch is one acquire load.
  std::array<std::shared_ptr<void>, kMaxSecuritySlots> security;
  std::array<std::once_flag, kMaxSecuritySlots> security_once;
  std::array<std::atomic<void*>, kMaxSecuritySlots> security_ready{};

  // Registers a script path, returning its id.
  uint32_t RegisterScript(const std::string& path) {
    for (uint32_t i = 0; i < scripts.size(); ++i) {
      if (scripts[i] == path) {
        return i;
      }
    }
    scripts.push_back(path);
    return static_cast<uint32_t>(scripts.size() - 1);
  }

  const std::string* ScriptPath(uint32_t id) const {
    return id < scripts.size() ? &scripts[id] : nullptr;
  }

  std::string EnvOr(const std::string& key, const std::string& fallback = "") const {
    auto it = env.find(key);
    return it == env.end() ? fallback : it->second;
  }
};

}  // namespace pf::sim

#endif  // SRC_SIM_TASK_H_
