// Table 7: macrobenchmarks — Without PF / PF Base (default allow only) /
// PF Full (1218-rule base) — reporting means with 95% confidence intervals
// and percentage overhead, as in the paper:
//
//   Apache Build : a simulated software build (open/read source files, stat
//                  header searches, fork+exec compiler jobs, write objects)
//   Boot         : a simulated boot (daemons bind sockets and chmod them,
//                  init scripts run, configuration reads, library loading)
//   Web1 / Web1000 : LAMP-ish request loop (Apache serve + PHP include +
//                  "database" file read) with 1 / 1000 simulated clients,
//                  reporting latency (ms) and throughput (Kb/s).
//
// Paper shape: every macrobenchmark stays within ~4% overhead for PF Full
// and within ~1% for PF Base.
//
// PF Full is the default shipping config. With --json PATH, results also go
// to PATH for bench/run_bench.sh to fold into BENCH_engine.json.

#include "bench/bench_util.h"
#include "src/apps/dbus.h"
#include "src/apps/interp.h"
#include "src/apps/ldso.h"
#include "src/apps/misc.h"
#include "src/apps/webserver.h"

namespace pf::bench {
namespace {

using sim::Pid;
using sim::Proc;

constexpr int kRepeats = 9;
constexpr uint64_t kSyscallCostNs = 6000;  // calibrated kernel-entry cost

enum class Mode { kWithoutPf, kPfBase, kPfFull };
constexpr int kModes = 3;

std::unique_ptr<System> MakeSystem(Mode mode) {
  auto sys = std::make_unique<System>();
  sys->kernel->set_syscall_cost_ns(kSyscallCostNs);
  switch (mode) {
    case Mode::kWithoutPf:
      sys->engine->config().enabled = false;
      break;
    case Mode::kPfBase:
      break;  // enabled, empty rule base
    case Mode::kPfFull:
      sys->InstallRules(apps::RuleLibrary::DefaultRuleBase());
      sys->InstallRules(SyntheticRuleBase(1200));
      break;
  }
  return sys;
}

// --- Apache Build -------------------------------------------------------------

void SetupBuildTree(sim::Kernel& k, int files) {
  k.MkDirAt("/home/alice/httpd", 0755, sim::kAliceUid, sim::kAliceUid, "user_home_t");
  k.MkDirAt("/home/alice/httpd/src", 0755, sim::kAliceUid, sim::kAliceUid, "user_home_t");
  k.MkDirAt("/home/alice/httpd/include", 0755, sim::kAliceUid, sim::kAliceUid,
            "user_home_t");
  for (int i = 0; i < files; ++i) {
    k.MkFileAt("/home/alice/httpd/src/mod" + std::to_string(i) + ".c",
               std::string(512, 'c'), 0644, sim::kAliceUid, sim::kAliceUid,
               "user_home_t");
    k.MkFileAt("/home/alice/httpd/include/hdr" + std::to_string(i) + ".h",
               std::string(128, 'h'), 0644, sim::kAliceUid, sim::kAliceUid,
               "user_home_t");
  }
}

double RunBuild(System& sys) {
  constexpr int kSources = 150;
  SetupBuildTree(*sys.kernel, kSources);
  double us = 0;
  sim::SpawnOpts opts;
  opts.name = "make";
  opts.cred.uid = opts.cred.euid = sim::kAliceUid;
  opts.cred.gid = opts.cred.egid = sim::kAliceUid;
  opts.cred.sid = sys.kernel->labels().Intern("staff_t");
  opts.exe = sim::kBinSh;
  opts.cwd = "/home/alice/httpd";
  Pid pid = sys.sched->Spawn(opts, [&](Proc& p) {
    Stopwatch sw;
    sw.Start();
    auto env = p.task().env;
    for (int i = 0; i < kSources; ++i) {
      std::string src = "src/mod" + std::to_string(i) + ".c";
      // Preprocessor-style header probing (the stat-heavy part of builds).
      sim::StatBuf st;
      for (int h = 0; h < 6; ++h) {
        p.Stat("include/hdr" + std::to_string((i + h) % kSources) + ".h", &st);
      }
      std::string text;
      int fd = static_cast<int>(p.Open(src, sim::kORdOnly));
      p.Read(fd, &text, 1 << 16);
      p.Close(fd);
      // "Compile": spawn a compiler job.
      int64_t cc = p.Fork([env](Proc& c) {
        c.Execve(sim::kBinTrue, {"cc"}, env);
        c.Exit(127);
      });
      p.Waitpid(static_cast<sim::Pid>(cc));
      // Emit the object file.
      volatile uint64_t digest = 0;
      for (char ch : text) {
        digest = digest * 31 + static_cast<uint8_t>(ch);
      }
      fd = static_cast<int>(p.Open("src/mod" + std::to_string(i) + ".o",
                                   sim::kOWrOnly | sim::kOCreat | sim::kOTrunc));
      p.Write(fd, text.substr(0, 256));
      p.Close(fd);
    }
    us = sw.ElapsedUs();
  });
  sys.sched->RunUntilExit(pid);
  return us / 1e6;  // seconds
}

// --- Boot ----------------------------------------------------------------------

double RunBoot(System& sys) {
  double us = 0;
  sim::SpawnOpts opts;
  opts.name = "init";
  opts.cred.sid = sys.kernel->labels().Intern("init_t");
  opts.exe = sim::kBinSh;
  Pid pid = sys.sched->Spawn(opts, [&](Proc& p) {
    Stopwatch sw;
    sw.Start();
    auto env = p.task().env;
    // Read rc configuration.
    std::string text;
    for (const char* conf : {"/etc/ld.so.conf", "/etc/apache2.conf", "/etc/java.conf"}) {
      int fd = static_cast<int>(p.Open(conf, sim::kORdOnly));
      if (fd >= 0) {
        p.Read(fd, &text, 4096);
        p.Close(fd);
      }
    }
    apps::InitScriptWritePidfile(p, "/var/run/init.pid");
    // Start daemons: each is a fork+execve plus its own work.
    for (const char* daemon : {sim::kDbusDaemon, sim::kSshd, sim::kApache, sim::kPython,
                               sim::kJava, sim::kDstat}) {
      int64_t child = p.Fork([daemon, env](Proc& c) {
        c.Execve(daemon, {daemon}, env);
        c.Exit(127);
      });
      p.Waitpid(static_cast<sim::Pid>(child));
    }
    // The bus socket published by a real dbus startup (the child maps the
    // daemon image so its call sites resolve).
    int64_t dbus = p.Fork([](Proc& c) {
      int fd = static_cast<int>(c.Open(sim::kDbusDaemon, sim::kORdOnly));
      c.MmapFd(fd);
      c.Close(fd);
      apps::DbusDaemon::PublishSocket(c, "/var/run/dbus/boot_bus_socket");
      c.Exit(0);
    });
    p.Waitpid(static_cast<sim::Pid>(dbus));
    // Run init scripts (shell interpreter frames + config reads + pidfiles).
    sim::StatBuf st;
    for (int i = 0; i < 150; ++i) {
      sim::InterpFrame script(p, sim::InterpLang::kBash,
                              "/etc/init.d/rc" + std::to_string(i), 1);
      int fd = static_cast<int>(p.Open("/etc/ld.so.conf", sim::kORdOnly));
      if (fd >= 0) {
        p.Read(fd, &text, 4096);
        p.Close(fd);
      }
      p.Stat("/etc/passwd", &st);
      p.Stat("/var/run", &st);
      p.Access("/usr/bin", sim::AccessBit(sim::Access::kExec));
      apps::InitScriptWritePidfile(p, "/var/run/rc" + std::to_string(i) + ".pid");
    }
    us = sw.ElapsedUs();
  });
  sys.sched->RunUntilExit(pid);
  return us / 1e6;
}

// --- Web -----------------------------------------------------------------------

struct WebResult {
  double latency_ms = 0;
  double throughput_kbs = 0;
};

WebResult RunWeb(System& sys, int clients) {
  // "Database": random entries served through a PHP page.
  sys.kernel->MkFileAt("/var/www/app/db.dat", std::string(4096, 'd'), 0644, sim::kWebUid,
                       sim::kWebUid, "httpd_sys_content_t");
  sys.kernel->MkFileAt("/var/www/app/lib.php", "<?php /* helpers */ ?>", 0644,
                       sim::kWebUid, sim::kWebUid, "httpd_user_script_exec_t");
  constexpr int kTotalRequests = 1200;
  int per_client = std::max(40, kTotalRequests / clients);
  int workers = std::min(clients, 8);  // worker pool, as Apache would
  uint64_t bytes = 0;
  Stopwatch sw;
  sw.Start();
  std::vector<Pid> pids;
  for (int w = 0; w < workers; ++w) {
    sim::SpawnOpts opts;
    opts.name = "apache-worker";
    opts.exe = sim::kApache;
    opts.cred.sid = sys.kernel->labels().Intern("httpd_t");
    pids.push_back(sys.sched->Spawn(opts, [&, per_client](Proc& p) {
      // mod_php: the PHP runtime is mapped into the Apache worker.
      int php_fd = static_cast<int>(p.Open(sim::kPhp, sim::kORdOnly));
      p.MmapFd(php_fd);
      p.Close(php_fd);
      apps::WebConfig cfg;
      cfg.request_work = 60;
      cfg.access_log = true;
      apps::Webserver server(cfg);
      apps::PhpInterp php(p, "/var/www/app/index.php");
      std::string body;
      for (int i = 0; i < per_client; ++i) {
        if (server.HandleRequest(p, "/index.html", &body) == 200) {
          bytes += body.size();
        }
        // The PHP page pulls in its helper script...
        if (auto lib = php.Include("lib.php", 11)) {
          bytes += lib->size();
        }
        // ...and reads the "database" through a file descriptor (as a real
        // DB client would read its socket), not through include().
        int db_fd = static_cast<int>(p.Open("/var/www/app/db.dat", sim::kORdOnly));
        if (db_fd >= 0) {
          std::string row;
          p.Read(db_fd, &row, 4096);
          bytes += row.size();
          p.Close(db_fd);
        }
      }
    }));
  }
  for (Pid pid : pids) {
    sys.sched->RunUntilExit(pid);
  }
  double total_us = sw.ElapsedUs();
  int requests = per_client * workers;
  WebResult out;
  out.latency_ms = total_us / 1e3 / requests;
  out.throughput_kbs = static_cast<double>(bytes) / 1024.0 / (total_us / 1e6);
  return out;
}

struct Cell {
  Sample sample;
};

void PrintRow(const char* name, const char* unit, const Sample (&cells)[kModes]) {
  std::printf("%-18s", name);
  for (int m = 0; m < kModes; ++m) {
    double pct = OverheadPct(cells[0].mean, cells[m].mean);
    // For throughput, positive overhead means fewer Kb/s.
    if (m == 0) {
      std::printf("  %10.3f±%-7.3f", cells[m].mean, cells[m].ci95);
    } else {
      std::printf("  %10.3f±%-5.3f(%+.1f%%)", cells[m].mean, cells[m].ci95, pct);
    }
  }
  std::printf(" %s\n", unit);
}

void EmitRow(JsonWriter& json, const std::string& name, const Sample (&cells)[kModes]) {
  json.BeginObject(name);
  json.Number("without_pf", cells[0].mean);
  json.Number("pf_base", cells[1].mean);
  json.Number("pf_full", cells[2].mean);
  json.EndObject();
}

}  // namespace

void Run(const char* json_path) {
  Caption("Table 7: macrobenchmarks (mean ± 95% CI; % overhead vs Without PF)");
  std::printf("%-18s  %16s        %16s        %16s\n", "benchmark", "Without PF",
              "PF Base", "PF Full");

  const Mode modes[kModes] = {Mode::kWithoutPf, Mode::kPfBase, Mode::kPfFull};
  JsonWriter json;
  json.BeginObject("table7");

  // Apache Build.
  {
    Sample cells[kModes];
    for (int m = 0; m < kModes; ++m) {
      std::vector<double> runs;
      for (int r = 0; r < kRepeats; ++r) {
        auto sys = MakeSystem(modes[m]);
        runs.push_back(RunBuild(*sys));
      }
      cells[m] = SummarizeTrimmed(runs);
    }
    PrintRow("Apache Build", "(s)", cells);
    EmitRow(json, "apache_build_s", cells);
  }
  // Boot.
  {
    Sample cells[kModes];
    for (int m = 0; m < kModes; ++m) {
      std::vector<double> runs;
      for (int r = 0; r < kRepeats; ++r) {
        auto sys = MakeSystem(modes[m]);
        runs.push_back(RunBoot(*sys));
      }
      cells[m] = SummarizeTrimmed(runs);
    }
    PrintRow("Boot", "(s)", cells);
    EmitRow(json, "boot_s", cells);
  }
  // Web.
  for (int clients : {1, 1000}) {
    Sample lat[kModes], thr[kModes];
    for (int m = 0; m < kModes; ++m) {
      std::vector<double> lat_runs, thr_runs;
      for (int r = 0; r < kRepeats; ++r) {
        auto sys = MakeSystem(modes[m]);
        WebResult res = RunWeb(*sys, clients);
        lat_runs.push_back(res.latency_ms);
        thr_runs.push_back(res.throughput_kbs);
      }
      lat[m] = SummarizeTrimmed(lat_runs);
      thr[m] = SummarizeTrimmed(thr_runs);
    }
    std::string lname = "Web" + std::to_string(clients) + "-L";
    std::string tname = "Web" + std::to_string(clients) + "-T";
    PrintRow(lname.c_str(), "(ms)", lat);
    PrintRow(tname.c_str(), "(Kb/s)", thr);
    EmitRow(json, "web" + std::to_string(clients) + "_latency_ms", lat);
    EmitRow(json, "web" + std::to_string(clients) + "_throughput_kbs", thr);
  }

  json.EndObject();
  json.WriteTo(json_path);
  std::printf("\nExpected shape (paper): PF Base within ~1%%, PF Full within ~4%% on\n"
              "every macrobenchmark.\n");
}

}  // namespace pf::bench

int main(int argc, char** argv) {
  pf::bench::Run(pf::bench::JsonPathFromArgs(argc, argv));
  return 0;
}
