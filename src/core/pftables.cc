#include "src/core/pftables.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>

#include "src/analysis/analyzer.h"
#include "src/analysis/symbolic/diff.h"
#include "src/audit/export.h"
#include "src/core/modules.h"
#include "src/trace/export.h"

namespace pf::core {

namespace {

bool IsTopLevelFlag(const std::string& t) {
  return t == "-t" || t == "-I" || t == "-A" || t == "-D" || t == "-N" || t == "-F" ||
         t == "-L" || t == "-P" || t == "-s" || t == "-d" || t == "-i" || t == "-o" || t == "-p" ||
         t == "-b" || t == "--ino" || t == "-m" || t == "-j";
}

std::optional<uint64_t> ParseU64(const std::string& token) {
  if (token.empty()) {
    return std::nullopt;
  }
  int base = 10;
  size_t start = 0;
  if (token.size() > 2 && token[0] == '0' && (token[1] == 'x' || token[1] == 'X')) {
    base = 16;
    start = 2;
  }
  uint64_t value = 0;
  auto [ptr, ec] =
      std::from_chars(token.data() + start, token.data() + token.size(), value, base);
  if (ec != std::errc() || ptr != token.data() + token.size()) {
    return std::nullopt;
  }
  return value;
}

std::string Lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

// "create/input" means "the create chain (falling back to input)"; we route
// such rules to the first named chain.
std::string NormalizeChain(const std::string& raw) {
  std::string s = Lower(raw);
  auto slash = s.find('/');
  if (slash != std::string::npos) {
    s = s.substr(0, slash);
  }
  return s;
}

using MatchFactory = Status (*)(const std::vector<std::string>&,
                                std::unique_ptr<MatchModule>*);
using TargetFactory = Status (*)(const std::vector<std::string>&,
                                 std::unique_ptr<TargetModule>*);

MatchFactory FindMatchFactory(const std::string& name) {
  if (name == "STATE") return &StateMatch::Create;
  if (name == "SIGNAL_MATCH") return &SignalMatch::Create;
  if (name == "SYSCALL_ARGS") return &SyscallArgsMatch::Create;
  if (name == "COMPARE") return &CompareMatch::Create;
  if (name == "INTERP") return &InterpMatch::Create;
  if (name == "PHASE") return &PhaseMatch::Create;
  return nullptr;
}

TargetFactory FindTargetFactory(const std::string& name) {
  if (name == "STATE") return &StateTarget::Create;
  if (name == "LOG") return &LogTarget::Create;
  if (name == "PHASE") return &PhaseTarget::Create;
  return nullptr;
}

}  // namespace

Status Pftables::Tokenize(const std::string& line, std::vector<std::string>* out) {
  out->clear();
  std::string cur;
  char quote = 0;
  for (char c : line) {
    if (quote != 0) {
      if (c == quote) {
        quote = 0;
      } else {
        cur.push_back(c);
      }
      continue;
    }
    if (c == '\'' || c == '"') {
      quote = c;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\n') {
      if (!cur.empty()) {
        out->push_back(std::move(cur));
        cur.clear();
      }
      continue;
    }
    cur.push_back(c);
  }
  if (quote != 0) {
    return Status::Error(std::string("unterminated ") +
                         (quote == '\'' ? "single" : "double") + " quote in: " + line);
  }
  if (!cur.empty()) {
    out->push_back(std::move(cur));
  }
  return Status::Ok();
}

Status Pftables::ParseLabelSet(const std::string& token, LabelSet* out) {
  std::string body = token;
  out->wildcard = false;
  out->negate = false;
  out->syshigh = false;
  out->sids.clear();
  if (!body.empty() && body[0] == '~') {
    out->negate = true;
    body = body.substr(1);
  }
  if (!body.empty() && body.front() == '{') {
    if (body.back() != '}') {
      return Status::Error("unterminated label set: " + token);
    }
    body = body.substr(1, body.size() - 2);
  }
  if (body.empty()) {
    return Status::Error("empty label set: " + token);
  }
  size_t i = 0;
  while (i <= body.size()) {
    size_t j = body.find('|', i);
    if (j == std::string::npos) {
      j = body.size();
    }
    std::string name = body.substr(i, j - i);
    if (name == "SYSHIGH") {
      out->syshigh = true;
    } else if (!name.empty()) {
      out->sids.push_back(engine_->kernel().labels().Intern(name));
    }
    if (j == body.size()) {
      break;
    }
    i = j + 1;
  }
  return Status::Ok();
}

Status Pftables::ParseRule(const std::vector<std::string>& tokens, size_t from, Rule* rule) {
  size_t i = from;
  auto need_value = [&](const std::string& flag) -> Status {
    if (i >= tokens.size()) {
      return Status::Error(flag + " requires a value");
    }
    return Status::Ok();
  };

  while (i < tokens.size()) {
    const std::string& flag = tokens[i++];
    if (flag == "-s" || flag == "-d") {
      if (Status s = need_value(flag); !s.ok()) {
        return s;
      }
      LabelSet* set = flag == "-s" ? &rule->subject : &rule->object;
      if (Status s = ParseLabelSet(tokens[i++], set); !s.ok()) {
        return s;
      }
    } else if (flag == "-i") {
      if (Status s = need_value(flag); !s.ok()) {
        return s;
      }
      auto ept = ParseU64(tokens[i++]);
      if (!ept) {
        return Status::Error("-i: cannot parse entrypoint");
      }
      rule->entrypoint = *ept;
    } else if (flag == "-o") {
      if (Status s = need_value(flag); !s.ok()) {
        return s;
      }
      auto op = sim::OpFromName(tokens[i++]);
      if (!op) {
        return Status::Error("-o: unknown operation '" + tokens[i - 1] + "'");
      }
      rule->op = *op;
    } else if (flag == "-p" || flag == "-b") {
      if (Status s = need_value(flag); !s.ok()) {
        return s;
      }
      rule->program = tokens[i++];
      auto inode = engine_->kernel().LookupNoHooks(rule->program);
      if (!inode) {
        return Status::Error("-p: program not found: " + rule->program);
      }
      rule->program_file = inode->id();
    } else if (flag == "--ino") {
      if (Status s = need_value(flag); !s.ok()) {
        return s;
      }
      auto ino = ParseU64(tokens[i++]);
      if (!ino) {
        return Status::Error("--ino: cannot parse inode number");
      }
      rule->ino = *ino;
    } else if (flag == "-m") {
      if (Status s = need_value(flag); !s.ok()) {
        return s;
      }
      std::string name = tokens[i++];
      std::vector<std::string> opts;
      while (i < tokens.size() && !IsTopLevelFlag(tokens[i])) {
        opts.push_back(tokens[i++]);
      }
      std::unique_ptr<MatchModule> match;
      if (auto it = custom_matches_.find(name); it != custom_matches_.end()) {
        if (Status s = it->second(opts, &match); !s.ok()) {
          return s;
        }
      } else if (MatchFactory factory = FindMatchFactory(name); factory != nullptr) {
        if (Status s = factory(opts, &match); !s.ok()) {
          return s;
        }
      } else {
        return Status::Error("-m: unknown match module '" + name + "'");
      }
      rule->matches.push_back(std::move(match));
    } else if (flag == "-j") {
      if (Status s = need_value(flag); !s.ok()) {
        return s;
      }
      std::string name = tokens[i++];
      std::vector<std::string> opts;
      while (i < tokens.size() && !IsTopLevelFlag(tokens[i])) {
        opts.push_back(tokens[i++]);
      }
      if (auto it = custom_targets_.find(name); it != custom_targets_.end()) {
        std::unique_ptr<TargetModule> target;
        if (Status s = it->second(opts, &target); !s.ok()) {
          return s;
        }
        rule->target = std::move(target);
      } else if (name == "ACCEPT" || name == "DROP" || name == "RETURN" ||
                 name == "CONTINUE") {
        if (!opts.empty()) {
          return Status::Error("-j " + name + " takes no options");
        }
        TargetKind kind = name == "ACCEPT"   ? TargetKind::kAccept
                          : name == "DROP"   ? TargetKind::kDrop
                          : name == "RETURN" ? TargetKind::kReturn
                                             : TargetKind::kContinue;
        rule->target = std::make_unique<VerdictTarget>(kind);
      } else if (TargetFactory factory = FindTargetFactory(name); factory != nullptr) {
        std::unique_ptr<TargetModule> target;
        if (Status s = factory(opts, &target); !s.ok()) {
          return s;
        }
        rule->target = std::move(target);
      } else {
        // Jump to a user-defined chain (created on demand; chain names are
        // case-insensitive, matching the paper's listings).
        if (!opts.empty()) {
          return Status::Error("-j <chain> takes no options");
        }
        std::string chain = NormalizeChain(name);
        engine_->ruleset().filter().GetOrCreate(chain);
        rule->target = std::make_unique<JumpTarget>(chain);
      }
    } else {
      return Status::Error("unknown flag '" + flag + "'");
    }
  }

  if (!rule->target) {
    rule->target = std::make_unique<VerdictTarget>(TargetKind::kContinue);
  }

  // Compute the union of context requirements (introspection + eager mode).
  rule->needs = 0;
  if (rule->has_program() || rule->entrypoint) {
    rule->needs |= CtxBit(Ctx::kEntrypoint);
  }
  if (!rule->object.wildcard || rule->ino) {
    rule->needs |= CtxBit(Ctx::kObject);
    if (rule->object.syshigh) {
      rule->needs |= CtxBit(Ctx::kAdversaryAccess);
    }
  }
  for (const auto& m : rule->matches) {
    rule->needs |= m->Needs();
  }
  rule->needs |= rule->target->Needs();
  return Status::Ok();
}

Status Pftables::CommitStaged(std::shared_ptr<CompiledRuleset> staged) {
  if (batching_) {
    batch_dirty_ = true;
    return Status::Ok();
  }
  if (Status cs = staged != nullptr ? engine_->PublishRuleset(std::move(staged))
                                    : engine_->CommitRuleset();
      !cs.ok()) {
    return Status::Error("commit rejected: " + cs.message());
  }
  return Status::Ok();
}

Status Pftables::FlushBatch() {
  if (!batch_dirty_) {
    return Status::Ok();
  }
  batch_dirty_ = false;
  return CommitStaged();
}

Status Pftables::DiffAgainstFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::Error("--diff: cannot read " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string content = buf.str();
  // The "old" side loads into a scratch engine sharing this engine's kernel
  // (same label registry, MAC policy, and program images — required for a
  // joint symbolic universe) but never registered with it: nothing the file
  // stages can ever serve a request.
  Engine old_engine(engine_->kernel(), engine_->config());
  Pftables old_front(&old_engine);
  old_front.custom_matches_ = custom_matches_;
  old_front.custom_targets_ = custom_targets_;
  const size_t first = content.find_first_not_of(" \t\r\n");
  Status load;
  if (first != std::string::npos && content[first] == '*') {
    load = old_front.Restore(content);
  } else {
    std::vector<std::string> lines;
    std::istringstream stream(content);
    for (std::string line; std::getline(stream, line);) {
      lines.push_back(line);
    }
    load = old_front.ExecAll(lines);
  }
  if (!load.ok()) {
    return Status::Error("--diff: loading " + path + ": " + load.message());
  }
  const std::shared_ptr<CompiledRuleset> oldrs = old_engine.CompileRuleset();
  const std::shared_ptr<CompiledRuleset> newrs = engine_->CompileRuleset();
  const analysis::symbolic::DiffResult diff =
      analysis::symbolic::DiffRulesets(*oldrs, *newrs, engine_->policy());
  std::fputs(analysis::symbolic::RenderDiffText(diff).c_str(), stdout);
  return Status::Ok();
}

std::string Pftables::AuditText() const {
  trace::NameTable names{&engine_->kernel().labels()};
  return audit::RenderWindows(engine_->audit(), names);
}

Status Pftables::Exec(const std::string& command) {
  std::vector<std::string> tokens;
  if (Status s = Tokenize(command, &tokens); !s.ok()) {
    return s;
  }
  size_t i = 0;
  if (tokens.empty() || tokens[0][0] == '#' || tokens[0][0] == '*') {
    return Status::Ok();  // comment / annotation line
  }
  if (tokens[0] == "pftables") {
    ++i;
  }

  // Global flags (--check, --diff, the widening gate, and -t in any order)
  // before the chain command.
  std::string table_name = "filter";
  CheckMode check = CheckMode::kOff;
  std::string diff_path;
  bool widening_gate = false;
  bool allow_widening = false;
  bool audit_view = false;
  while (i < tokens.size()) {
    const std::string& t = tokens[i];
    if (t == "-t" && i + 1 < tokens.size()) {
      table_name = tokens[i + 1];
      i += 2;
    } else if (t == "--check" || t.rfind("--check=", 0) == 0) {
      if (t == "--check" || t == "--check=error") {
        check = CheckMode::kError;
      } else if (t == "--check=warn") {
        check = CheckMode::kWarn;
      } else {
        return Status::Error("--check mode must be 'error' or 'warn'");
      }
      ++i;
    } else if (t == "--diff" && i + 1 < tokens.size()) {
      diff_path = tokens[i + 1];
      i += 2;
    } else if (t == "--widening-gate") {
      widening_gate = true;
      ++i;
    } else if (t == "--allow-widening") {
      allow_widening = true;
      ++i;
    } else if (t == "--audit") {
      audit_view = true;
      ++i;
    } else {
      break;
    }
  }
  if (audit_view) {
    // `--audit` is a standalone report like `--diff`: render the audit hub's
    // live aggregator view; no chain command follows.
    std::fputs(AuditText().c_str(), stdout);
    return Status::Ok();
  }
  if (!diff_path.empty()) {
    // `--diff old.rules` is a standalone report: the live base is the "new"
    // side, the file the "old" side; no chain command follows.
    return DiffAgainstFile(diff_path);
  }
  Table* table = engine_->ruleset().FindTable(table_name);
  if (table == nullptr) {
    return Status::Error("unknown table '" + table_name + "'");
  }
  // Rollback copy for the --check=error and --widening-gate gates, taken
  // before any mutation (cheap: chains copy structurally, the Rule objects
  // are shared).
  std::optional<RuleSet> backup;
  if (check != CheckMode::kOff || widening_gate) {
    backup = engine_->ruleset();
  }

  // Chain command (default: append to input).
  enum class Cmd { kInsert, kAppend, kDelete, kNew, kFlush, kList, kPolicy, kZero } cmd =
      Cmd::kAppend;
  std::string chain_name = "input";
  bool chain_given = false;
  size_t position = 0;
  bool has_position = false;

  if (i < tokens.size() &&
      (tokens[i] == "-I" || tokens[i] == "-A" || tokens[i] == "-D" || tokens[i] == "-N" ||
       tokens[i] == "-F" || tokens[i] == "-L" || tokens[i] == "-P" || tokens[i] == "-Z")) {
    std::string c = tokens[i++];
    cmd = c == "-I"   ? Cmd::kInsert
          : c == "-A" ? Cmd::kAppend
          : c == "-D" ? Cmd::kDelete
          : c == "-N" ? Cmd::kNew
          : c == "-F" ? Cmd::kFlush
          : c == "-P" ? Cmd::kPolicy
          : c == "-Z" ? Cmd::kZero
                      : Cmd::kList;
    while (cmd == Cmd::kList && i < tokens.size() &&
           (tokens[i] == "--compiled" || tokens[i] == "-v")) {
      ++i;  // display modifiers: listing itself comes from List()/ListCompiled()
    }
    if (i < tokens.size() && !IsTopLevelFlag(tokens[i])) {
      chain_name = NormalizeChain(tokens[i++]);
      chain_given = true;
    } else if (cmd != Cmd::kFlush && cmd != Cmd::kList && cmd != Cmd::kZero) {
      return Status::Error("chain name required");
    }
    if (i < tokens.size() && (cmd == Cmd::kInsert || cmd == Cmd::kDelete)) {
      if (auto pos = ParseU64(tokens[i]); pos && !IsTopLevelFlag(tokens[i])) {
        position = static_cast<size_t>(*pos);
        has_position = true;
        ++i;
      }
    }
    if (cmd == Cmd::kDelete && !has_position) {
      return Status::Error("-D requires a rule number");
    }
  }

  // Mutating commands defer CommitRuleset until after the --check gate has
  // seen (and possibly vetoed) the staged edit, so a rejected command never
  // publishes a generation.
  bool need_commit = false;
  switch (cmd) {
    case Cmd::kNew: {
      if (!table->NewChain(chain_name)) {
        return Status::Error("chain exists: " + chain_name);
      }
      break;  // -N never committed eagerly: an empty chain changes nothing
    }
    case Cmd::kFlush: {
      if (!chain_given) {
        table->FlushAll();
      } else if (Chain* chain = table->Find(chain_name)) {
        chain->Flush();
      } else {
        return Status::Error("no such chain: " + chain_name);
      }
      need_commit = true;
      break;
    }
    case Cmd::kList:
      return Status::Ok();  // use List() for output
    case Cmd::kZero:
      // Counters are shared with every published snapshot; zeroing needs no
      // commit and must not disturb the staged rule base.
      return ZeroCounters(chain_given ? chain_name : std::string());
    case Cmd::kPolicy: {
      Chain* chain = table->Find(chain_name);
      if (chain == nullptr) {
        return Status::Error("no such chain: " + chain_name);
      }
      if (!chain->builtin()) {
        return Status::Error("-P applies to builtin chains only");
      }
      if (i >= tokens.size()) {
        return Status::Error("-P requires ACCEPT or DROP");
      }
      std::string policy = tokens[i++];
      if (policy == "ACCEPT") {
        chain->set_policy(Chain::Policy::kAccept);
      } else if (policy == "DROP") {
        chain->set_policy(Chain::Policy::kDrop);
      } else {
        return Status::Error("-P requires ACCEPT or DROP");
      }
      need_commit = true;
      break;
    }
    case Cmd::kDelete: {
      Chain* chain = table->Find(chain_name);
      if (chain == nullptr) {
        return Status::Error("no such chain: " + chain_name);
      }
      if (position == 0 || !chain->Delete(position - 1)) {
        return Status::Error("no rule at position");
      }
      need_commit = true;
      break;
    }
    case Cmd::kInsert:
    case Cmd::kAppend: {
      auto rule = std::make_shared<Rule>();
      rule->source = command;
      if (Status s = ParseRule(tokens, i, rule.get()); !s.ok()) {
        return s;
      }
      Chain& chain = table->GetOrCreate(chain_name);
      if (cmd == Cmd::kInsert) {
        chain.Insert(std::move(rule), has_position ? position - 1 : 0);
      } else {
        chain.Append(std::move(rule));
      }
      need_commit = true;
      break;
    }
  }

  // The gates below all read one compile of the staged base, and a command
  // they pass publishes that same compile.
  std::shared_ptr<CompiledRuleset> staged;
  if (check != CheckMode::kOff || (widening_gate && need_commit)) {
    staged = engine_->CompileForCommit();
  }
  if (check != CheckMode::kOff) {
    last_check_ = analysis::AnalyzeRuleset(*staged, engine_->policy());
    if (check == CheckMode::kError && last_check_.HasErrors()) {
      engine_->ruleset() = std::move(*backup);
      return Status::Error("--check rejected the command: " +
                           std::to_string(last_check_.errors()) +
                           " error(s)\n" + last_check_.RenderText());
    }
    if (!last_check_.empty()) {
      std::fputs(("pftables --check:\n" + last_check_.RenderText()).c_str(), stderr);
    }
  }
  if (widening_gate && need_commit) {
    // Semantic no-unintended-widening gate: diff the staged base against the
    // generation actually serving requests. A DROP→ALLOW flip anywhere in
    // the decision space vetoes the command transactionally — the staged
    // edit rolls back and the published generation is never touched.
    const std::shared_ptr<const CompiledRuleset> published = engine_->PublishedRuleset();
    if (published != nullptr) {
      const analysis::symbolic::DiffResult diff =
          analysis::symbolic::DiffRulesets(*published, *staged, engine_->policy());
      if (diff.any_widening && !allow_widening) {
        engine_->ruleset() = std::move(*backup);
        std::string witness;
        for (const auto& region : diff.regions) {
          if (region.widening) {
            witness = "  " + std::string(sim::OpName(region.op)) + ": " +
                      std::string(analysis::symbolic::OutcomeName(region.from)) + " -> " +
                      std::string(analysis::symbolic::OutcomeName(region.to)) + " at " +
                      region.witness;
            break;
          }
        }
        return Status::Error(
            "--widening-gate rejected the command: it widens access "
            "(re-run with --allow-widening to override)\n" + witness);
      }
    }
  }
  if (need_commit) {
    if (Status cs = CommitStaged(std::move(staged)); !cs.ok()) {
      // The load-time verifier vetoed the compiled program: the published
      // generation is untouched (CommitRuleset never swaps on error). Roll
      // the staged edit back too when --check armed a backup; without one
      // the staging base keeps the edit, but nothing unverified ever serves.
      if (backup) {
        engine_->ruleset() = std::move(*backup);
      }
      return cs;
    }
  }
  return Status::Ok();
}

Status Pftables::ExecAll(const std::vector<std::string>& commands) {
  batching_ = true;
  Status result = Status::Ok();
  for (const std::string& cmd : commands) {
    Status s;
    if (cmd.find("--check") != std::string::npos ||
        cmd.find("--widening-gate") != std::string::npos ||
        cmd.find("--diff") != std::string::npos) {
      // A --check or --widening-gate line gates (and may roll back) the
      // staged base, and a --diff line compiles it, so every deferred edit
      // must be committed before it runs — and the line itself
      // runs unbatched, keeping its gate-then-commit order.
      batching_ = false;
      s = FlushBatch();
      if (s.ok()) {
        s = Exec(cmd);
      }
      batching_ = true;
    } else {
      s = Exec(cmd);
    }
    if (!s.ok()) {
      result = Status::Error(s.message() + " in: " + cmd);
      break;
    }
  }
  batching_ = false;
  // First error wins, but the lines that succeeded before it stay staged —
  // flush so they are published exactly as with per-line Exec.
  if (Status flush = FlushBatch(); !flush.ok() && result.ok()) {
    result = flush;
  }
  return result;
}

namespace {
// Renders a rule spec in command syntax (shared by List and Save).
std::string RenderRuleSpec(const Rule& r, const sim::LabelRegistry& labels) {
  std::ostringstream oss;
  if (r.op) {
    oss << "-o " << sim::OpName(*r.op) << " ";
  }
  if (!r.subject.wildcard) {
    oss << "-s " << r.subject.Render(labels) << " ";
  }
  if (!r.object.wildcard) {
    oss << "-d " << r.object.Render(labels) << " ";
  }
  if (r.has_program()) {
    oss << "-p " << r.program << " ";
  }
  if (r.entrypoint) {
    oss << "-i 0x" << std::hex << *r.entrypoint << std::dec << " ";
  }
  if (r.ino) {
    oss << "--ino " << *r.ino << " ";
  }
  for (const auto& m : r.matches) {
    oss << "-m " << m->Render() << " ";
  }
  oss << "-j " << r.target->Render();
  return oss.str();
}
}  // namespace

std::string Pftables::List(const std::string& table_name, bool verbose) const {
  std::ostringstream oss;
  Table* table = engine_->ruleset().FindTable(table_name);
  if (table == nullptr) {
    return "unknown table\n";
  }
  const sim::LabelRegistry& labels = engine_->kernel().labels();
  for (const auto& [name, chain] : table->chains()) {
    uint64_t chain_evals = 0;
    uint64_t chain_hits = 0;
    uint64_t chain_ns = 0;
    if (verbose) {
      for (const auto& r : chain.rules()) {
        chain_evals += r->evals.load();
        chain_hits += r->hits.load();
        chain_ns += r->eval_ns.load();
      }
    }
    oss << "Chain " << name << " (" << chain.size() << " rules"
        << (chain.builtin() ? ", builtin" : "") << ")";
    if (verbose) {
      oss << " [evals=" << chain_evals << " hits=" << chain_hits << " time=" << chain_ns
          << "ns]";
    }
    oss << "\n";
    size_t idx = 1;
    for (const auto& r : chain.rules()) {
      oss << "  " << idx++ << ". " << RenderRuleSpec(*r, labels);
      oss << "  [evals=" << r->evals.load() << " hits=" << r->hits.load();
      if (verbose) {
        // Wall time attributed by the per-rule tracepoint (Event::kRule);
        // zero unless rule tracing has been enabled on the engine.
        oss << " time=" << r->eval_ns.load() << "ns";
      }
      oss << "]\n";
    }
  }
  // Annotate the listing with the analyzer's findings (the engine only
  // traverses the filter table, so only its listing is analyzed).
  if (table_name == "filter") {
    analysis::AnalysisReport report = analysis::AnalyzeEngine(*engine_);
    if (!report.empty()) {
      oss << "# analyzer: " << report.errors() << " error(s), " << report.warnings()
          << " warning(s)\n";
      std::istringstream lines(report.RenderText());
      std::string line;
      while (std::getline(lines, line)) {
        oss << "# " << line << "\n";
      }
    }
  }
  return oss.str();
}

std::string Pftables::ListCompiled() const {
  return DisassemblePfProgram(engine_->PublishedRuleset()->program,
                              engine_->kernel().labels());
}

std::string Pftables::Save(const std::string& table_name) const {
  std::ostringstream oss;
  Table* table = engine_->ruleset().FindTable(table_name);
  if (table == nullptr) {
    return "";
  }
  const sim::LabelRegistry& labels = engine_->kernel().labels();
  oss << "* pftables-save table=" << table_name << "\n";
  for (const auto& [name, chain] : table->chains()) {
    if (!chain.builtin()) {
      oss << "pftables -t " << table_name << " -N " << name << "\n";
    } else if (chain.policy() == Chain::Policy::kDrop) {
      oss << "pftables -t " << table_name << " -P " << name << " DROP\n";
    }
  }
  for (const auto& [name, chain] : table->chains()) {
    for (const auto& r : chain.rules()) {
      oss << "pftables -t " << table_name << " -A " << name << " "
          << RenderRuleSpec(*r, labels) << "\n";
    }
  }
  return oss.str();
}

Status Pftables::Restore(const std::string& dump, CheckMode check) {
  // With a check mode the dump is one transaction: any failure below rolls
  // the staging rule base back to this copy and republishes it (lines
  // commit individually as they execute, so the rollback must commit too).
  std::optional<RuleSet> backup;
  if (check != CheckMode::kOff) {
    backup = engine_->ruleset();
  }
  auto roll_back = [&]() {
    engine_->ruleset() = std::move(*backup);
    // Rolling back to a base that committed before; re-verification passes.
    (void)engine_->CommitRuleset();
  };

  size_t i = 0;
  while (i < dump.size()) {
    size_t j = dump.find('\n', i);
    if (j == std::string::npos) {
      j = dump.size();
    }
    std::string line = dump.substr(i, j - i);
    // Skip -N failures for chains that already exist (idempotent restore).
    Status s = Exec(line);
    if (!s.ok() && line.find(" -N ") == std::string::npos) {
      if (backup) {
        roll_back();
      }
      return Status::Error(s.message() + " in: " + line);
    }
    i = j + 1;
  }

  if (check != CheckMode::kOff) {
    last_check_ = analysis::AnalyzeEngine(*engine_);
    if (check == CheckMode::kError && last_check_.HasErrors()) {
      roll_back();
      return Status::Error("--check rejected the restore: " +
                           std::to_string(last_check_.errors()) +
                           " error(s)\n" + last_check_.RenderText());
    }
    if (!last_check_.empty()) {
      std::fputs(("pftables --check:\n" + last_check_.RenderText()).c_str(), stderr);
    }
  }
  return Status::Ok();
}

Status Pftables::ZeroCounters(const std::string& chain_name) {
  if (!chain_name.empty() && engine_->ruleset().filter().Find(chain_name) == nullptr &&
      engine_->ruleset().mangle().Find(chain_name) == nullptr) {
    return Status::Error("no such chain: " + chain_name);
  }
  // Mark the counter-mutation window (see Engine::stats() for the tearing
  // contract): a stats() aggregation racing this zeroing reports torn=true.
  engine_->BeginCounterMutation();
  for (Table* table : {&engine_->ruleset().filter(), &engine_->ruleset().mangle()}) {
    for (auto& [name, chain] : table->chains()) {
      if (!chain_name.empty() && name != chain_name) {
        continue;
      }
      for (const auto& r : chain.rules()) {
        // Counters are shared with every published snapshot, so zeroing the
        // staging rules zeroes the live ones too — no commit needed.
        r->evals.store(0, std::memory_order_relaxed);
        r->hits.store(0, std::memory_order_relaxed);
        r->eval_ns.store(0, std::memory_order_relaxed);
      }
    }
  }
  engine_->EndCounterMutation();
  return Status::Ok();
}

}  // namespace pf::core
