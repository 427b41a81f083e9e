#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <optional>

#include "perfbench/workload.h"
#include "src/apps/interp.h"
#include "src/apps/rule_library.h"
#include "src/apps/webserver.h"
#include "src/sim/rng.h"
#include "src/sim/sysimage.h"

namespace pf::perfbench {
namespace {

using sim::Proc;

// --- synthetic rule base ------------------------------------------------------
//
// Rule i restricts call site kSynthBase + i * kSynthStride of program
// kSynthBins[i % 8] to SYSHIGH objects for op kSynthOps[i % 5] — the shape
// of the distributor rules that make up the paper's PF Full base.

constexpr uint64_t kSynthBase = 0x100000;
constexpr uint64_t kSynthStride = 0x10;
constexpr const char* kSynthBins[] = {sim::kApache, sim::kPhp,        sim::kPython,
                                      sim::kJava,   sim::kDbusDaemon, sim::kSshd,
                                      sim::kBinSh,  sim::kDstat};
constexpr const char* kSynthOps[] = {"FILE_OPEN", "FILE_READ", "FILE_WRITE", "DIR_SEARCH",
                                     "LNK_FILE_READ"};
constexpr size_t kBins = std::size(kSynthBins);
constexpr size_t kOps = std::size(kSynthOps);

std::vector<std::string> RuleBase(size_t synthetic) {
  std::vector<std::string> rules = apps::RuleLibrary::DefaultRuleBase();
  rules.reserve(rules.size() + synthetic);
  for (size_t i = 0; i < synthetic; ++i) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "pftables -p %s -i 0x%llx -o %s -d ~{SYSHIGH} -j DROP",
                  kSynthBins[i % kBins],
                  static_cast<unsigned long long>(kSynthBase + i * kSynthStride),
                  kSynthOps[i % kOps]);
    rules.emplace_back(buf);
  }
  return rules;
}

// Apache call site k is the site of synthetic rule kBins * k (apache is
// kSynthBins[0]), so the rule there restricts op kSynthOps[(kBins * k) % kOps].
uint64_t SiteOffset(uint32_t site) { return kSynthBase + kBins * site * kSynthStride; }

bool SiteDropsAdversaryOpens(uint32_t site, size_t synthetic) {
  const size_t rule = kBins * site;
  return rule < synthetic && rule % kOps == 0;  // a FILE_OPEN rule
}

uint64_t BlockSeed(uint64_t seed, uint64_t block) {
  return sim::SplitMix64(seed ^ (block * 0x9e3779b97f4a7c15ULL)).Next();
}

// Files under `root` in `dirs` directories of `per_dir` files. Directories
// are SYSHIGH; a seeded `adversary_share` of the files carries a label the
// untrusted user_t domain may write.
struct FileSet {
  std::string root;
  int dirs = 0;
  std::vector<std::string> paths;
  std::vector<uint64_t> sizes;
  std::vector<bool> adversary;
  size_t synthetic = 0;  // synthetic rules in the base (for the ground truth)

  FileSet(std::string root_dir, int dir_count, int per_dir, double adversary_share,
          size_t synthetic_rules, uint64_t seed)
      : root(std::move(root_dir)), dirs(dir_count), synthetic(synthetic_rules) {
    sim::SplitMix64 rng(seed ^ 0xad7e45a1ULL);
    for (int d = 0; d < dirs; ++d) {
      for (int f = 0; f < per_dir; ++f) {
        paths.push_back(root + "/d" + std::to_string(d) + "/f" + std::to_string(f));
        sizes.push_back(16 + paths.size() % 61);
        adversary.push_back(rng.Chance(adversary_share));
      }
    }
  }

  void Build(sim::Kernel& k) const {
    k.MkDirAt("/srv", 0755, 0, 0, "httpd_sys_content_t");
    k.MkDirAt(root, 0755, 0, 0, "httpd_sys_content_t");
    for (int d = 0; d < dirs; ++d) {
      k.MkDirAt(root + "/d" + std::to_string(d), 0755, 0, 0, "httpd_sys_content_t");
    }
    for (size_t i = 0; i < paths.size(); ++i) {
      k.MkFileAt(paths[i], std::string(sizes[i], 'f'), 0644, sim::kWebUid, sim::kWebUid,
                 adversary[i] ? "httpd_user_content_t" : "httpd_sys_content_t");
    }
  }
};

// open+close (kind 0) or stat (kind 1) of one file from an apache call site.
class FileClient : public Client {
 public:
  static constexpr uint32_t kOpenClose = 0;
  static constexpr uint32_t kStat = 1;

  FileClient(Proc& proc, const FileSet& files, bool enforcing, Tracer* tracer)
      : proc_(proc), files_(files), enforcing_(enforcing), tracer_(tracer) {}

  bool Run(const Op& op) override {
    const std::string& path = files_.paths[op.target];
    sim::UserFrame frame(proc_, sim::kApache, SiteOffset(op.site));
    if (op.kind == kStat) {
      sim::StatBuf st;
      int64_t rv;
      {
        ScopedSpan span(tracer_, SpanKind::kSyscall);
        rv = proc_.Stat(path, &st);
      }
      return rv == 0 && st.size == files_.sizes[op.target];
    }
    int64_t fd;
    {
      ScopedSpan span(tracer_, SpanKind::kSyscall);
      fd = proc_.Open(path, sim::kORdOnly);
    }
    const bool expect_deny = enforcing_ && files_.adversary[op.target] &&
                             SiteDropsAdversaryOpens(op.site, files_.synthetic);
    if (fd >= 0) {
      ScopedSpan span(tracer_, SpanKind::kSyscall);
      return proc_.Close(static_cast<int>(fd)) == 0 && !expect_deny;
    }
    if (fd == sim::SysError(sim::Err::kAcces)) {
      ++denied_;
      return expect_deny;
    }
    return false;
  }

 private:
  Proc& proc_;
  const FileSet& files_;
  bool enforcing_;
  Tracer* tracer_;
};

// Zipf(s) over n ranks: rank r has weight 1 / (r + 1)^s.
class Zipf {
 public:
  Zipf(size_t n, double s) {
    double sum = 0;
    for (size_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_.push_back(sum);
    }
    for (double& c : cdf_) {
      c /= sum;
    }
  }
  uint32_t Sample(sim::SplitMix64& rng) const {
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.NextDouble());
    return static_cast<uint32_t>(std::min<size_t>(it - cdf_.begin(), cdf_.size() - 1));
  }

 private:
  std::vector<double> cdf_;
};

// --- scale ----------------------------------------------------------------------

class ScaleWorkload : public Workload {
 public:
  static constexpr size_t kSynthetic = 100000;
  static constexpr size_t kSites = 512;

  explicit ScaleWorkload(uint64_t seed)
      : seed_(seed),
        files_("/srv/scale", 64, 320, 0.10, kSynthetic, seed),
        sites_(kSites, 1.0) {
    rules_ = RuleBase(kSynthetic);
    block_ops_ = 2048;
    warmup_blocks_ = 8;
    probe_edits_ = 16;  // a commit costs about 0.1 s at 100k rules
  }

  void BuildImage(sim::Kernel& k) const override { files_.Build(k); }
  bool audit() const override { return true; }

  void Generate(uint64_t block, std::vector<Op>* out) const override {
    sim::SplitMix64 rng(BlockSeed(seed_, block));
    out->clear();
    for (size_t i = 0; i < block_ops_; ++i) {
      Op op;
      op.kind = FileClient::kOpenClose;
      op.site = sites_.Sample(rng);
      op.target = static_cast<uint32_t>(rng.Below(files_.paths.size()));
      out->push_back(op);
    }
  }

  std::unique_ptr<Client> MakeClient(Proc& proc, bool enforcing,
                                     Tracer* tracer) const override {
    return std::make_unique<FileClient>(proc, files_, enforcing, tracer);
  }

 private:
  uint64_t seed_;
  FileSet files_;
  Zipf sites_;
};

// --- churn ----------------------------------------------------------------------

class ChurnWorkload : public Workload {
 public:
  static constexpr size_t kSynthetic = 1200;
  static constexpr uint32_t kSites = 16;

  explicit ChurnWorkload(uint64_t seed)
      : seed_(seed), files_("/srv/churn", 16, 16, 0.04, kSynthetic, seed) {
    rules_ = RuleBase(kSynthetic);
    block_ops_ = 2048;
    warmup_blocks_ = 4;
    edits_in_window_ = true;
  }

  bool audit() const override { return true; }

  void BuildImage(sim::Kernel& k) const override { files_.Build(k); }

  void Generate(uint64_t block, std::vector<Op>* out) const override {
    sim::SplitMix64 rng(BlockSeed(seed_, block));
    out->clear();
    for (size_t i = 0; i < block_ops_; ++i) {
      Op op;
      op.kind = rng.Chance(0.5) ? FileClient::kOpenClose : FileClient::kStat;
      op.site = static_cast<uint32_t>(rng.Below(kSites));
      op.target = static_cast<uint32_t>(rng.Below(files_.paths.size()));
      out->push_back(op);
    }
  }

  std::unique_ptr<Client> MakeClient(Proc& proc, bool enforcing,
                                     Tracer* tracer) const override {
    return std::make_unique<FileClient>(proc, files_, enforcing, tracer);
  }

 private:
  uint64_t seed_;
  FileSet files_;
};

// --- web ------------------------------------------------------------------------

constexpr const char* kLibPhp = "<?php /* helpers */ ?>";
constexpr const char* kDbPath = "/var/www/app/db.dat";
constexpr const char* kCgiScript = "/var/www/cgi-bin/app.py";
constexpr size_t kDbBytes = 4096;

class WebWorkload : public Workload {
 public:
  static constexpr size_t kSynthetic = 1200;
  static constexpr uint32_t kPages = 64;
  static constexpr uint32_t kRequest = 0;
  static constexpr uint32_t kCgi = 1;  // request plus a fork+exec'd Python CGI
  static constexpr double kCgiShare = 0.001;

  explicit WebWorkload(uint64_t seed) : seed_(seed) {
    rules_ = RuleBase(kSynthetic);
    block_ops_ = 4096;
    warmup_blocks_ = 1;
    probe_edits_ = 1000;
    for (uint32_t i = 0; i < kPages; ++i) {
      urls_.push_back("/bench/p" + std::to_string(i) + ".html");
      pages_.push_back("<html>bench page " + std::to_string(i) + "</html>");
    }
  }

  void BuildImage(sim::Kernel& k) const override {
    k.MkDirAt("/var/www/bench", 0755, sim::kWebUid, sim::kWebUid, "httpd_sys_content_t");
    for (uint32_t i = 0; i < kPages; ++i) {
      k.MkFileAt("/var/www" + urls_[i], pages_[i], 0644, sim::kWebUid, sim::kWebUid,
                 "httpd_sys_content_t");
    }
    k.MkFileAt(kDbPath, std::string(kDbBytes, 'd'), 0644, sim::kWebUid, sim::kWebUid,
               "httpd_sys_content_t");
    k.MkFileAt("/var/www/app/lib.php", kLibPhp, 0644, sim::kWebUid, sim::kWebUid,
               "httpd_user_script_exec_t");
    k.MkDirAt("/var/www/cgi-bin", 0755, sim::kWebUid, sim::kWebUid, "httpd_sys_content_t");
    k.MkFileAt(kCgiScript, "print 'ok'\n", 0644, sim::kWebUid, sim::kWebUid,
               "httpd_sys_content_t");
  }

  void Generate(uint64_t block, std::vector<Op>* out) const override {
    sim::SplitMix64 rng(BlockSeed(seed_, block));
    out->clear();
    for (size_t i = 0; i < block_ops_; ++i) {
      Op op;
      op.kind = rng.Chance(kCgiShare) ? kCgi : kRequest;
      op.target = static_cast<uint32_t>(rng.Below(kPages));
      out->push_back(op);
    }
  }

  std::unique_ptr<Client> MakeClient(Proc& proc, bool enforcing,
                                     Tracer* tracer) const override;

  // Log rotation: the access log grows by one line per request.
  void AfterBlock(sim::Kernel& k) const override {
    if (auto log = k.LookupNoHooks("/var/log/apache-access.log")) {
      log->data.clear();
    }
  }

  const std::string& url(uint32_t i) const { return urls_[i]; }
  const std::string& page(uint32_t i) const { return pages_[i]; }

 private:
  uint64_t seed_;
  std::vector<std::string> urls_;
  std::vector<std::string> pages_;
};

// The Table 7 LAMP request: Apache serves a page (access log on), the PHP
// page includes its helper script, and the "database" is read through a
// file descriptor. Nothing in this traffic is ever denied.
class WebClient : public Client {
 public:
  WebClient(Proc& proc, const WebWorkload& wl, Tracer* tracer)
      : proc_(proc),
        wl_(wl),
        tracer_(tracer),
        server_(Config()),
        php_(Init(proc), "/var/www/app/index.php") {}

  bool Run(const Op& op) override {
    std::string body;
    int status;
    {
      ScopedSpan span(tracer_, SpanKind::kHandleRequest);
      status = server_.HandleRequest(proc_, wl_.url(op.target), &body);
    }
    bool ok = status == 200 && body == wl_.page(op.target);
    std::optional<std::string> lib;
    {
      ScopedSpan span(tracer_, SpanKind::kPhpInclude);
      lib = php_.Include("lib.php", 11);
    }
    ok = ok && lib && *lib == kLibPhp;
    ok = ok && ReadDb();
    if (op.kind == WebWorkload::kCgi) {
      ok = ok && RunCgi();
    }
    return ok;
  }

 private:
  static apps::WebConfig Config() {
    apps::WebConfig cfg;
    cfg.request_work = 60;
    cfg.access_log = true;
    return cfg;
  }

  // mod_php: the PHP runtime is mapped into the Apache worker before the
  // interpreter starts.
  static Proc& Init(Proc& proc) {
    int64_t fd = proc.Open(sim::kPhp, sim::kORdOnly);
    proc.MmapFd(static_cast<int>(fd));
    proc.Close(static_cast<int>(fd));
    return proc;
  }

  bool ReadDb() {
    int64_t fd;
    {
      ScopedSpan span(tracer_, SpanKind::kSyscall);
      fd = proc_.Open(kDbPath, sim::kORdOnly);
    }
    if (fd < 0) {
      return false;
    }
    std::string row;
    {
      ScopedSpan span(tracer_, SpanKind::kSyscall);
      proc_.Read(static_cast<int>(fd), &row, kDbBytes);
    }
    {
      ScopedSpan span(tracer_, SpanKind::kSyscall);
      proc_.Close(static_cast<int>(fd));
    }
    return row.size() == kDbBytes && row.find_first_not_of('d') == std::string::npos;
  }

  bool RunCgi() {
    ScopedSpan span(tracer_, SpanKind::kForkExec);
    auto env = proc_.task().env;
    int64_t child;
    {
      ScopedSpan fork_span(tracer_, SpanKind::kSyscall);
      child = proc_.Fork([env](Proc& c) {
        c.Execve(sim::kPython, {"python", kCgiScript}, env);
        c.Exit(127);
      });
    }
    if (child < 0) {
      return false;
    }
    int status = -1;
    {
      ScopedSpan wait_span(tracer_, SpanKind::kSyscall);
      proc_.Waitpid(static_cast<sim::Pid>(child), &status);
    }
    return status == 0;
  }

  Proc& proc_;
  const WebWorkload& wl_;
  Tracer* tracer_;
  apps::Webserver server_;
  apps::PhpInterp php_;
};

std::unique_ptr<Client> WebWorkload::MakeClient(Proc& proc, bool /*enforcing*/,
                                                Tracer* tracer) const {
  return std::make_unique<WebClient>(proc, *this, tracer);
}

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "web") {
    return std::make_unique<WebWorkload>(seed);
  }
  if (name == "scale") {
    return std::make_unique<ScaleWorkload>(seed);
  }
  if (name == "churn") {
    return std::make_unique<ChurnWorkload>(seed);
  }
  return nullptr;
}

std::string EditCommand(uint64_t n, size_t input_size) {
  if (n % 2 == 1) {
    return "pftables -D input " + std::to_string(input_size);
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "pftables -A input -p %s -i 0x%llx -o FILE_OPEN -d ~{SYSHIGH} -j DROP",
                sim::kApache,
                static_cast<unsigned long long>(0x3f0000 + (n / 2 % 256) * kSynthStride));
  return buf;
}

}  // namespace pf::perfbench
