// The benchmark's workloads: web, churn and scale.
//
// A workload builds its files and labels into a freshly booted kernel,
// supplies the rule base, and generates its op sequence from the seed in
// fixed-size blocks: block b is the same on every system of a run, so the
// PF-on and PF-disabled systems replay identical ops. Each op's expected
// outcome comes from the workload's own ground truth (the labels it
// assigned and the rules it generated), never from the engine.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/trace.h"
#include "src/sim/sched.h"

namespace pf::perfbench {

struct Op {
  uint32_t kind = 0;
  uint32_t site = 0;    // call-site index (scale, churn)
  uint32_t target = 0;  // file or page index
};

// A workload's client inside one worker process.
class Client {
 public:
  virtual ~Client() = default;
  // Runs one op; returns whether its outcome matches the ground truth.
  virtual bool Run(const Op& op) = 0;
  uint64_t denied() const { return denied_; }

 protected:
  uint64_t denied_ = 0;  // ops the engine refused (and should have)
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual void BuildImage(sim::Kernel& kernel) const = 0;
  const std::vector<std::string>& rules() const { return rules_; }
  virtual bool audit() const { return false; }
  // Director-side upkeep between blocks.
  virtual void AfterBlock(sim::Kernel& kernel) const { (void)kernel; }
  // Fills `out` with the ops of block `block`.
  virtual void Generate(uint64_t block, std::vector<Op>* out) const = 0;
  // Called inside the worker process. `pf_enforcing` is false on the
  // PF-disabled system, where every op must succeed.
  virtual std::unique_ptr<Client> MakeClient(sim::Proc& proc, bool pf_enforcing,
                                             Tracer* tracer) const = 0;

  size_t warmup_blocks() const { return warmup_blocks_; }
  // churn edits the rule base before every block of the timed window, on
  // every PF-on system (a PF-disabled system has no rules to edit, so the
  // edits count in pf_added_us_per_op). The other workloads make no edits;
  // their traced runs time `probe_edits` edits after the window.
  bool edits_in_window() const { return edits_in_window_; }
  int probe_edits() const { return probe_edits_; }

 protected:
  std::vector<std::string> rules_;
  size_t block_ops_ = 1024;
  size_t warmup_blocks_ = 4;
  bool edits_in_window_ = false;
  int probe_edits_ = 0;
};

// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

// The one-rule edit `n` of a churn sequence: even n appends a rule at a
// call site no workload uses, odd n deletes it again, so the base size
// stays constant. `input_size` is the input chain's current rule count.
std::string EditCommand(uint64_t n, size_t input_size);

}  // namespace pf::perfbench

#endif  // PERFBENCH_WORKLOAD_H_
