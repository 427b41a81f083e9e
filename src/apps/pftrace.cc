// pftrace: attach to a live Process Firewall engine and stream its
// per-decision trace records (ftrace for the PF).
//
// Boots the simulated system, loads a rule base (the shipped paper library
// by default, or pftables-save dumps), enables the engine's tracepoints,
// drives a workload through the authorization hooks, and exports what the
// per-worker flight-recorder rings captured:
//
//   pftrace                                text records for a mixed workload
//   pftrace --format=jsonl --count=1000    one JSON object per record
//   pftrace --format=chrome --out=t.json   chrome://tracing / Perfetto file
//   pftrace --events=decision,rule         select tracepoint streams
//   pftrace --ops=FILE_OPEN,DIR_SEARCH     per-op filter (pftables -o names)
//   pftrace --follow                       drain concurrently from a second
//                                          thread while the workload runs
//   pftrace --prom                         append Prometheus exposition text
//
// Exit status: 0 success, 2 bad usage / rule base failed to load.

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/apps/programs.h"
#include "src/apps/rule_library.h"
#include "src/core/engine.h"
#include "src/core/pftables.h"
#include "src/sim/sched.h"
#include "src/sim/sysimage.h"
#include "src/trace/export.h"
#include "src/trace/hub.h"

namespace {

void PrintUsage(std::FILE* to) {
  std::fputs(
      "usage: pftrace [options] [rule-file...]\n"
      "\n"
      "Trace Process Firewall decisions on a booted simulated system and\n"
      "export the records as text, JSON-lines, or Chrome trace_event JSON.\n"
      "\n"
      "  --format=text|jsonl|chrome  export format (default text)\n"
      "  --events=LIST               comma list of decision,rule,ctx\n"
      "                              (default all)\n"
      "  --ops=LIST                  comma list of op names (FILE_OPEN, ...);\n"
      "                              default all ops\n"
      "  --workload=stat|open|mixed  syscalls to drive (default mixed)\n"
      "  --count=N                   workload iterations (default 200)\n"
      "  --follow                    drain from a consumer thread while the\n"
      "                              workload runs (exercises the SPSC rings)\n"
      "  --prom                      also print Engine::MetricsText()\n"
      "  --out=FILE                  write the export to FILE, not stdout\n"
      "  --library                   load the shipped paper rule base (the\n"
      "                              default when no rule-file is given)\n"
      "  rule-file                   a pftables-save format dump\n",
      to);
}

// Splits "a,b,c" on commas, dropping empties.
std::vector<std::string> SplitList(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  std::istringstream in(s);
  while (std::getline(in, cur, ',')) {
    if (!cur.empty()) {
      out.push_back(cur);
    }
  }
  return out;
}

bool ParseEvents(const std::string& list, uint32_t* mask) {
  *mask = 0;
  for (const std::string& name : SplitList(list)) {
    if (name == "decision") {
      *mask |= pf::trace::EventBit(pf::trace::Event::kDecision);
    } else if (name == "rule") {
      *mask |= pf::trace::EventBit(pf::trace::Event::kRule);
    } else if (name == "ctx" || name == "ctx_fetch") {
      *mask |= pf::trace::EventBit(pf::trace::Event::kCtxFetch);
    } else {
      std::fprintf(stderr, "pftrace: unknown event '%s'\n", name.c_str());
      return false;
    }
  }
  return true;
}

bool ParseOps(const std::string& list, uint64_t* mask) {
  *mask = 0;
  for (const std::string& name : SplitList(list)) {
    auto op = pf::sim::OpFromName(name);
    if (!op) {
      std::fprintf(stderr, "pftrace: unknown op '%s'\n", name.c_str());
      return false;
    }
    *mask |= 1ull << static_cast<uint32_t>(*op);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string format = "text";
  std::string workload = "mixed";
  std::string out_path;
  uint32_t event_mask = pf::trace::kAllEvents;
  uint64_t op_mask = ~0ull;
  int count = 200;
  bool follow = false;
  bool prom = false;
  bool library = false;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* flag) {
      return arg.substr(std::strlen(flag));
    };
    if (arg.rfind("--format=", 0) == 0) {
      format = value("--format=");
    } else if (arg.rfind("--events=", 0) == 0) {
      if (!ParseEvents(value("--events="), &event_mask)) {
        return 2;
      }
    } else if (arg.rfind("--ops=", 0) == 0) {
      if (!ParseOps(value("--ops="), &op_mask)) {
        return 2;
      }
    } else if (arg.rfind("--workload=", 0) == 0) {
      workload = value("--workload=");
    } else if (arg.rfind("--count=", 0) == 0) {
      count = std::atoi(value("--count=").c_str());
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = value("--out=");
    } else if (arg == "--follow") {
      follow = true;
    } else if (arg == "--prom") {
      prom = true;
    } else if (arg == "--library") {
      library = true;
    } else if (arg == "-h" || arg == "--help") {
      PrintUsage(stdout);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "pftrace: unknown flag %s\n", arg.c_str());
      PrintUsage(stderr);
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  if (format != "text" && format != "jsonl" && format != "chrome") {
    std::fprintf(stderr, "pftrace: unknown format '%s'\n", format.c_str());
    return 2;
  }
  if (workload != "stat" && workload != "open" && workload != "mixed") {
    std::fprintf(stderr, "pftrace: unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  if (count < 1) {
    count = 1;
  }
  if (!library && files.empty()) {
    library = true;
  }
  if (!pf::trace::kTraceCompiledIn) {
    std::fprintf(stderr,
                 "pftrace: tracing is compiled out of this build (PF_NO_TRACE); "
                 "no records will be captured\n");
  }

  using pf::core::Status;

  // Boot exactly like pfcheck so labels and program paths resolve the same
  // way the security evaluation resolves them.
  pf::sim::Kernel kernel(0x5eed);
  pf::sim::BuildSysImage(kernel);
  pf::apps::InstallPrograms(kernel);
  pf::core::Engine* engine = pf::core::InstallProcessFirewall(kernel);
  pf::core::Pftables pftables(engine);

  if (library) {
    Status s = pftables.ExecAll(pf::apps::RuleLibrary::DefaultRuleBase());
    if (!s.ok()) {
      std::fprintf(stderr, "pftrace: loading shipped library failed: %s\n",
                   s.message().c_str());
      return 2;
    }
  }
  for (const std::string& path : files) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "pftrace: cannot open %s\n", path.c_str());
      return 2;
    }
    std::ostringstream dump;
    dump << in.rdbuf();
    Status s = pftables.Restore(dump.str());
    if (!s.ok()) {
      std::fprintf(stderr, "pftrace: %s: %s\n", path.c_str(), s.message().c_str());
      return 2;
    }
  }

  engine->trace().SetOpFilter(op_mask);
  engine->trace().Enable(event_mask);

  // With --follow a second thread drains the rings while the workload emits
  // into them — the live `pftrace -f` mode, and incidentally a end-to-end
  // exercise of the producer/consumer protocol. Followed records are
  // rendered immediately; the final export covers only what the follower
  // had not yet claimed.
  std::vector<pf::trace::TraceRecord> followed;
  std::atomic<bool> stop{false};
  std::thread follower;
  if (follow) {
    follower = std::thread([&] {
      while (!stop.load(std::memory_order_acquire)) {
        std::vector<pf::trace::TraceRecord> batch = engine->trace().Drain();
        followed.insert(followed.end(), batch.begin(), batch.end());
        std::this_thread::yield();
      }
    });
  }

  // Drive the workload as a spawned process with a user-space frame so
  // entrypoint rules participate, mirroring the lmbench harness.
  pf::sim::Scheduler sched(kernel);
  pf::sim::SpawnOpts sopts;
  sopts.name = "pftrace-workload";
  sopts.exe = pf::sim::kBinTrue;
  pf::sim::Pid pid = sched.Spawn(sopts, [&](pf::sim::Proc& p) {
    pf::sim::UserFrame frame(p, pf::sim::kBinTrue, 0x4000);
    pf::sim::StatBuf st;
    for (int i = 0; i < count; ++i) {
      if (workload == "stat" || workload == "mixed") {
        p.Stat("/etc/passwd", &st);
      }
      if (workload == "open" || workload == "mixed") {
        int64_t fd = p.Open("/etc/passwd", pf::sim::kORdOnly);
        if (fd >= 0) {
          p.Close(static_cast<int>(fd));
        }
      }
    }
  });
  sched.RunUntilExit(pid);

  if (follow) {
    stop.store(true, std::memory_order_release);
    follower.join();
  }

  std::vector<pf::trace::TraceRecord> records = std::move(followed);
  std::vector<pf::trace::TraceRecord> tail = engine->trace().Drain();
  records.insert(records.end(), tail.begin(), tail.end());

  pf::trace::NameTable names{&kernel.labels()};
  std::string rendered;
  if (format == "text") {
    rendered = pf::trace::RenderText(records, names);
  } else if (format == "jsonl") {
    rendered = pf::trace::RenderJsonLines(records, names);
  } else {
    rendered = pf::trace::RenderChromeTrace(records, names);
  }

  if (!out_path.empty()) {
    std::ofstream out(out_path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "pftrace: cannot write %s\n", out_path.c_str());
      return 2;
    }
    out << rendered;
  } else {
    std::fputs(rendered.c_str(), stdout);
  }

  if (prom) {
    std::fputs(engine->MetricsText().c_str(), stdout);
  }

  std::fprintf(stderr, "pftrace: %zu record(s), %llu dropped\n", records.size(),
               static_cast<unsigned long long>(engine->trace().drops()));
  return 0;
}
