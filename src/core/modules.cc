#include "src/core/modules.h"

#include <charconv>
#include <mutex>
#include <sstream>

#include "src/core/engine.h"
#include "src/core/program.h"
#include "src/core/symbolize.h"
#include "src/sim/syscall_nr.h"
#include "src/sim/task.h"

namespace pf::core {

namespace {

std::optional<int64_t> ParseInt(const std::string& token) {
  if (token.empty()) {
    return std::nullopt;
  }
  int base = 10;
  size_t start = 0;
  bool negative = false;
  if (token[0] == '-') {
    negative = true;
    start = 1;
  }
  if (token.size() > start + 2 && token[start] == '0' &&
      (token[start + 1] == 'x' || token[start + 1] == 'X')) {
    base = 16;
    start += 2;
  }
  int64_t value = 0;
  auto [ptr, ec] =
      std::from_chars(token.data() + start, token.data() + token.size(), value, base);
  if (ec != std::errc() || ptr != token.data() + token.size()) {
    return std::nullopt;
  }
  return negative ? -value : value;
}

// Finds "--flag" and returns the following token.
std::optional<std::string> OptValue(const std::vector<std::string>& opts,
                                    std::string_view flag) {
  for (size_t i = 0; i + 1 < opts.size(); ++i) {
    if (opts[i] == flag) {
      return opts[i + 1];
    }
  }
  return std::nullopt;
}

bool HasFlag(const std::vector<std::string>& opts, std::string_view flag) {
  for (const auto& o : opts) {
    if (o == flag) {
      return true;
    }
  }
  return false;
}

// Strips optional single quotes (keys are often written as 'sig').
std::string Unquote(std::string s) {
  if (s.size() >= 2 && s.front() == '\'' && s.back() == '\'') {
    return s.substr(1, s.size() - 2);
  }
  return s;
}

}  // namespace

// --- Operand -------------------------------------------------------------------

std::optional<Operand> Operand::Parse(const std::string& token) {
  Operand op;
  if (auto var = CtxVarFromName(token)) {
    op.is_var = true;
    op.var = *var;
    return op;
  }
  if (auto nr = sim::SyscallFromName(token); nr && token.rfind("NR_", 0) == 0) {
    op.literal = static_cast<int64_t>(*nr);
    return op;
  }
  if (auto lit = ParseInt(token)) {
    op.literal = *lit;
    return op;
  }
  return std::nullopt;
}

std::optional<int64_t> Operand::Eval(const Packet& pkt) const {
  if (is_var) {
    return pkt.Resolve(var);
  }
  return literal;
}

CtxMask Operand::Needs() const {
  if (!is_var) {
    return 0;
  }
  switch (var) {
    case CtxVar::kIno:
    case CtxVar::kGen:
    case CtxVar::kDev:
    case CtxVar::kSid:
    case CtxVar::kDacOwner:
      return CtxBit(Ctx::kObject);
    case CtxVar::kTgtDacOwner:
    case CtxVar::kTgtSid:
      return CtxBit(Ctx::kObject) | CtxBit(Ctx::kLinkTarget);
    case CtxVar::kPid:
    case CtxVar::kUid:
    case CtxVar::kEuid:
    case CtxVar::kSig:
    case CtxVar::kSyscall:
      return 0;
  }
  return 0;
}

std::string Operand::Render() const {
  if (is_var) {
    return std::string(CtxVarName(var));
  }
  return std::to_string(literal);
}

// --- StateMatch ------------------------------------------------------------------

Status StateMatch::Create(const std::vector<std::string>& opts,
                          std::unique_ptr<MatchModule>* out) {
  auto m = std::make_unique<StateMatch>();
  auto key = OptValue(opts, "--key");
  if (!key) {
    return Status::Error("STATE match requires --key");
  }
  m->key = Unquote(*key);
  if (auto cmp = OptValue(opts, "--cmp")) {
    auto operand = Operand::Parse(*cmp);
    if (!operand) {
      return Status::Error("STATE --cmp: cannot parse operand '" + *cmp + "'");
    }
    m->cmp = *operand;
  }
  if (HasFlag(opts, "--nequal")) {
    m->negate = true;
  }
  *out = std::move(m);
  return Status::Ok();
}

CtxMask StateMatch::Needs() const { return cmp ? cmp->Needs() : 0; }

bool StateMatch::Matches(Packet& pkt, Engine& engine) const {
  PfTaskState& state = engine.TaskState(*pkt.req->task);
  std::lock_guard<std::mutex> lock(state.mu);
  auto it = state.dict.find(key);
  if (it == state.dict.end()) {
    return false;  // absent key never matches (even with --nequal)
  }
  if (!cmp) {
    return true;
  }
  auto want = cmp->Eval(pkt);
  if (!want) {
    return false;
  }
  bool equal = it->second == *want;
  return negate ? !equal : equal;
}

std::string StateMatch::Render() const {
  std::ostringstream oss;
  oss << "STATE --key " << key;
  if (cmp) {
    oss << " --cmp " << cmp->Render() << (negate ? " --nequal" : " --equal");
  }
  return oss.str();
}

// --- SignalMatch ------------------------------------------------------------------

Status SignalMatch::Create(const std::vector<std::string>& opts,
                           std::unique_ptr<MatchModule>* out) {
  if (!opts.empty()) {
    return Status::Error("SIGNAL_MATCH takes no options");
  }
  *out = std::make_unique<SignalMatch>();
  return Status::Ok();
}

bool SignalMatch::Matches(Packet& pkt, Engine&) const {
  const sim::AccessRequest& req = *pkt.req;
  if (req.op != sim::Op::kSignalDeliver) {
    return false;
  }
  return req.task->signals.HasHandler(req.sig) && !sim::IsUnblockable(req.sig);
}

std::string SignalMatch::Render() const { return "SIGNAL_MATCH"; }

// --- SyscallArgsMatch --------------------------------------------------------------

Status SyscallArgsMatch::Create(const std::vector<std::string>& opts,
                                std::unique_ptr<MatchModule>* out) {
  auto m = std::make_unique<SyscallArgsMatch>();
  auto arg = OptValue(opts, "--arg");
  if (!arg) {
    return Status::Error("SYSCALL_ARGS requires --arg");
  }
  auto idx = ParseInt(*arg);
  if (!idx || *idx < 0 || *idx > 4) {
    return Status::Error("SYSCALL_ARGS --arg must be 0..4");
  }
  m->arg = static_cast<int>(*idx);
  auto eq = OptValue(opts, "--equal");
  auto neq = OptValue(opts, "--nequal");
  const std::string* value = eq ? &*eq : (neq ? &*neq : nullptr);
  if (value == nullptr) {
    return Status::Error("SYSCALL_ARGS requires --equal or --nequal");
  }
  m->negate = neq != std::nullopt;
  if (auto nr = sim::SyscallFromName(*value); nr && value->rfind("NR_", 0) == 0) {
    m->value = static_cast<int64_t>(*nr);
  } else if (auto lit = ParseInt(*value)) {
    m->value = *lit;
  } else {
    return Status::Error("SYSCALL_ARGS: cannot parse value '" + *value + "'");
  }
  *out = std::move(m);
  return Status::Ok();
}

bool SyscallArgsMatch::Matches(Packet& pkt, Engine&) const {
  const sim::AccessRequest& req = *pkt.req;
  int64_t actual = arg == 0 ? static_cast<int64_t>(req.syscall_nr)
                            : req.args[static_cast<size_t>(arg - 1)];
  bool equal = actual == value;
  return negate ? !equal : equal;
}

std::string SyscallArgsMatch::Render() const {
  std::ostringstream oss;
  oss << "SYSCALL_ARGS --arg " << arg << (negate ? " --nequal " : " --equal ") << value;
  return oss.str();
}

// --- CompareMatch ------------------------------------------------------------------

Status CompareMatch::Create(const std::vector<std::string>& opts,
                            std::unique_ptr<MatchModule>* out) {
  auto m = std::make_unique<CompareMatch>();
  auto v1 = OptValue(opts, "--v1");
  auto v2 = OptValue(opts, "--v2");
  if (!v1 || !v2) {
    return Status::Error("COMPARE requires --v1 and --v2");
  }
  auto o1 = Operand::Parse(*v1);
  auto o2 = Operand::Parse(*v2);
  if (!o1 || !o2) {
    return Status::Error("COMPARE: cannot parse operands");
  }
  m->v1 = *o1;
  m->v2 = *o2;
  m->negate = HasFlag(opts, "--nequal");
  *out = std::move(m);
  return Status::Ok();
}

bool CompareMatch::Matches(Packet& pkt, Engine&) const {
  auto a = v1.Eval(pkt);
  auto b = v2.Eval(pkt);
  if (!a || !b) {
    return false;  // missing context: cannot claim a match
  }
  bool equal = *a == *b;
  return negate ? !equal : equal;
}

std::string CompareMatch::Render() const {
  std::ostringstream oss;
  oss << "COMPARE --v1 " << v1.Render() << " --v2 " << v2.Render()
      << (negate ? " --nequal" : " --equal");
  return oss.str();
}

// --- InterpMatch -------------------------------------------------------------------

Status InterpMatch::Create(const std::vector<std::string>& opts,
                           std::unique_ptr<MatchModule>* out) {
  auto m = std::make_unique<InterpMatch>();
  if (auto script = OptValue(opts, "--script")) {
    m->script_suffix = *script;
  }
  if (auto lang = OptValue(opts, "--lang")) {
    if (*lang == "php") {
      m->lang = sim::InterpLang::kPhp;
    } else if (*lang == "python") {
      m->lang = sim::InterpLang::kPython;
    } else if (*lang == "bash") {
      m->lang = sim::InterpLang::kBash;
    } else {
      return Status::Error("INTERP --lang must be php|python|bash");
    }
  }
  if (m->script_suffix.empty() && !m->lang) {
    return Status::Error("INTERP requires --script and/or --lang");
  }
  *out = std::move(m);
  return Status::Ok();
}

bool InterpMatch::Matches(Packet& pkt, Engine&) const {
  if (pkt.interp == nullptr || pkt.interp_status == UnwindStatus::kAborted ||
      pkt.interp->empty()) {
    return false;
  }
  const InterpRec& top = pkt.interp->front();
  if (lang && top.lang != *lang) {
    return false;
  }
  if (!script_suffix.empty()) {
    const std::string& path = top.script_path;
    if (path.size() < script_suffix.size() ||
        path.compare(path.size() - script_suffix.size(), std::string::npos,
                     script_suffix) != 0) {
      return false;
    }
  }
  return true;
}

bool InterpMatch::Subsumes(const MatchModule& other) const {
  const auto* o = dynamic_cast<const InterpMatch*>(&other);
  if (o == nullptr) {
    return false;
  }
  if (lang && (!o->lang || *o->lang != *lang)) {
    return false;
  }
  // Every script path ending in o's (longer) suffix also ends in ours.
  if (script_suffix.size() > o->script_suffix.size()) {
    return false;
  }
  return o->script_suffix.compare(o->script_suffix.size() - script_suffix.size(),
                                  std::string::npos, script_suffix) == 0;
}

std::string InterpMatch::Render() const {
  std::ostringstream oss;
  oss << "INTERP";
  if (!script_suffix.empty()) {
    oss << " --script " << script_suffix;
  }
  if (lang) {
    oss << " --lang "
        << (*lang == sim::InterpLang::kPhp
                ? "php"
                : *lang == sim::InterpLang::kPython ? "python" : "bash");
  }
  return oss.str();
}

// --- PhaseMatch --------------------------------------------------------------------

Status PhaseMatch::Create(const std::vector<std::string>& opts,
                          std::unique_ptr<MatchModule>* out) {
  auto m = std::make_unique<PhaseMatch>();
  auto name = OptValue(opts, "--is");
  if (!name) {
    return Status::Error("PHASE match requires --is");
  }
  m->phase = Unquote(*name);
  if (m->phase.empty()) {
    return Status::Error("PHASE --is: phase name must be non-empty");
  }
  m->negate = HasFlag(opts, "--nequal");
  *out = std::move(m);
  return Status::Ok();
}

bool PhaseMatch::Matches(Packet& pkt, Engine& engine) const {
  PfTaskState& state = engine.TaskState(*pkt.req->task);
  std::lock_guard<std::mutex> lock(state.mu);
  auto it = state.dict.find(std::string(kPhaseKeyName));
  // Unlike STATE, an absent key is a defined phase: init.
  int64_t current = it == state.dict.end() ? PhaseId(kPhaseInitName) : it->second;
  bool equal = current == PhaseId(phase);
  return negate ? !equal : equal;
}

std::string PhaseMatch::Render() const {
  std::ostringstream oss;
  oss << "PHASE --is " << phase;
  if (negate) {
    oss << " --nequal";
  }
  return oss.str();
}

// --- targets -----------------------------------------------------------------------

std::string_view VerdictTarget::Name() const {
  switch (kind_) {
    case TargetKind::kAccept: return "ACCEPT";
    case TargetKind::kDrop: return "DROP";
    case TargetKind::kReturn: return "RETURN";
    default: return "CONTINUE";
  }
}

TargetKind VerdictTarget::Fire(Packet&, Engine&) const { return kind_; }

Status StateTarget::Create(const std::vector<std::string>& opts,
                           std::unique_ptr<TargetModule>* out) {
  auto t = std::make_unique<StateTarget>();
  auto key = OptValue(opts, "--key");
  if (!key) {
    return Status::Error("STATE target requires --key");
  }
  t->key = Unquote(*key);
  t->unset = HasFlag(opts, "--unset");
  if (!t->unset) {
    if (!HasFlag(opts, "--set")) {
      return Status::Error("STATE target requires --set or --unset");
    }
    auto value = OptValue(opts, "--value");
    if (!value) {
      return Status::Error("STATE --set requires --value");
    }
    auto operand = Operand::Parse(*value);
    if (!operand) {
      return Status::Error("STATE --value: cannot parse '" + *value + "'");
    }
    t->value = *operand;
  }
  *out = std::move(t);
  return Status::Ok();
}

TargetKind StateTarget::Fire(Packet& pkt, Engine& engine) const {
  PfTaskState& state = engine.TaskState(*pkt.req->task);
  std::lock_guard<std::mutex> lock(state.mu);
  if (unset) {
    state.dict.erase(key);
    return TargetKind::kContinue;
  }
  if (auto v = value.Eval(pkt)) {
    if (key == kPhaseKeyName) {
      // Audit emit point (legacy walker): a STATE write to the @phase key is
      // a protocol-phase transition, same as the compiled kStateSet handler.
      auto it = state.dict.find(key);
      NotePhaseTransition(it != state.dict.end() ? it->second : PhaseId(kPhaseInitName),
                          *v);
    }
    state.dict[key] = *v;
  }
  return TargetKind::kContinue;
}

std::string StateTarget::Render() const {
  std::ostringstream oss;
  oss << "STATE " << (unset ? "--unset" : "--set") << " --key " << key;
  if (!unset) {
    oss << " --value " << value.Render();
  }
  return oss.str();
}

Status PhaseTarget::Create(const std::vector<std::string>& opts,
                           std::unique_ptr<TargetModule>* out) {
  auto t = std::make_unique<PhaseTarget>();
  auto name = OptValue(opts, "--enter");
  if (!name) {
    return Status::Error("PHASE target requires --enter");
  }
  t->phase = Unquote(*name);
  if (t->phase.empty()) {
    return Status::Error("PHASE --enter: phase name must be non-empty");
  }
  *out = std::move(t);
  return Status::Ok();
}

TargetKind PhaseTarget::Fire(Packet& pkt, Engine& engine) const {
  PfTaskState& state = engine.TaskState(*pkt.req->task);
  std::lock_guard<std::mutex> lock(state.mu);
  auto it = state.dict.find(std::string(kPhaseKeyName));
  NotePhaseTransition(it != state.dict.end() ? it->second : PhaseId(kPhaseInitName),
                      PhaseId(phase));
  state.dict[std::string(kPhaseKeyName)] = PhaseId(phase);
  return TargetKind::kContinue;
}

std::string PhaseTarget::Render() const { return "PHASE --enter " + phase; }

Status LogTarget::Create(const std::vector<std::string>& opts,
                         std::unique_ptr<TargetModule>* out) {
  auto t = std::make_unique<LogTarget>();
  if (auto prefix = OptValue(opts, "--prefix")) {
    t->prefix = Unquote(*prefix);
  }
  *out = std::move(t);
  return Status::Ok();
}

TargetKind LogTarget::Fire(Packet& pkt, Engine& engine) const {
  engine.EmitLog(pkt, prefix);
  return TargetKind::kContinue;
}

std::string LogTarget::Render() const {
  return prefix.empty() ? "LOG" : "LOG --prefix " + prefix;
}

// --- lowering ----------------------------------------------------------------------
//
// Each builtin module compiles to exactly one inline-operand instruction whose
// evaluator case (engine.cc ExecRule) replicates Matches()/Fire() bit for bit.
// Extension modules keep the base-class default and run through the
// kMatchNative/kTargetNative escapes instead.

bool StateMatch::Lower(ProgramBuilder& b) const {
  // The comparison-sense branch is resolved at compile time: --cmp lowers to
  // a specialized Eq/Ne form so the evaluator never tests kPfHasCmp or
  // kPfNegate on the hot path. The flags are still set — the disassembler
  // renders all three forms identically off the flag bits, and the generic
  // kMatchState handler stays correct for hand-built programs.
  PfInsn insn{};
  insn.op = static_cast<uint8_t>(PfOp::kMatchState);
  insn.a = b.InternString(key);
  if (cmp) {
    insn.flags |= kPfHasCmp;
    insn.b = b.InternOperand(*cmp);
    insn.op = static_cast<uint8_t>(negate ? PfOp::kMatchStateNe : PfOp::kMatchStateEq);
  }
  if (negate) {
    insn.flags |= kPfNegate;
  }
  b.Emit(insn);
  return true;
}

bool SignalMatch::Lower(ProgramBuilder& b) const {
  PfInsn insn{};
  insn.op = static_cast<uint8_t>(PfOp::kMatchSignal);
  b.Emit(insn);
  return true;
}

bool SyscallArgsMatch::Lower(ProgramBuilder& b) const {
  // Resolve the arg-0-means-syscall-number convention and the negation sense
  // at compile time; the specialized handlers read the value directly.
  PfInsn insn{};
  if (arg == 0) {
    insn.op = static_cast<uint8_t>(negate ? PfOp::kMatchSyscallNrNe : PfOp::kMatchSyscallNrEq);
  } else {
    insn.op = static_cast<uint8_t>(negate ? PfOp::kMatchSyscallArgNe : PfOp::kMatchSyscallArgEq);
  }
  insn.aux = static_cast<uint16_t>(arg);
  insn.b = static_cast<uint64_t>(value);
  if (negate) {
    insn.flags |= kPfNegate;
  }
  b.Emit(insn);
  return true;
}

bool CompareMatch::Lower(ProgramBuilder& b) const {
  PfInsn insn{};
  insn.op = static_cast<uint8_t>(negate ? PfOp::kMatchCompareNe : PfOp::kMatchCompareEq);
  insn.b = b.InternOperand(v1);
  insn.c = b.InternOperand(v2);
  if (negate) {
    insn.flags |= kPfNegate;
  }
  b.Emit(insn);
  return true;
}

bool PhaseMatch::Lower(ProgramBuilder& b) const {
  // Phase names compile down to their stable 63-bit ids, so the handler is a
  // single integer compare against the task's "@phase" entry (absent means
  // PhaseId("init")).
  PfInsn insn{};
  insn.op = static_cast<uint8_t>(PfOp::kMatchPhase);
  insn.a = b.InternString(phase);  // keeps the listing symbolic
  insn.b = static_cast<uint64_t>(PhaseId(phase));
  if (negate) {
    insn.flags |= kPfNegate;
  }
  b.Emit(insn);
  return true;
}

bool InterpMatch::Lower(ProgramBuilder& b) const {
  PfInsn insn{};
  insn.op = static_cast<uint8_t>(PfOp::kMatchInterp);
  insn.a = b.InternString(script_suffix);
  insn.aux = lang ? static_cast<uint16_t>(*lang) + 1 : 0;
  b.Emit(insn);
  return true;
}

// --- symbolic lowering (src/analysis/symbolic) -------------------------------

bool StateMatch::Symbolize(SymbolicSink& sink) const {
  if (cmp && cmp->is_var) {
    return false;  // variable comparison value: model as opaque
  }
  sink.StateCheck(key, cmp ? std::optional<int64_t>(cmp->literal) : std::nullopt,
                  negate);
  return true;
}

bool SignalMatch::Symbolize(SymbolicSink& sink) const {
  // Handled-and-blockable is a property of the delivering task's handler
  // table, outside the decision dimensions — but the op pin is exact.
  sink.OpPin(sim::Op::kSignalDeliver);
  sink.Opaque(Name(), Render());
  return true;
}

bool SyscallArgsMatch::Symbolize(SymbolicSink& sink) const {
  sink.SyscallArg(arg, value, negate);
  return true;
}

bool CompareMatch::Symbolize(SymbolicSink& sink) const {
  if (!v1.is_var && !v2.is_var) {
    sink.Const((v1.literal == v2.literal) != negate);
    return true;
  }
  return false;  // variable operands: model as opaque
}

bool InterpMatch::Symbolize(SymbolicSink& sink) const {
  sink.Interp(script_suffix, lang);
  return true;
}

bool PhaseMatch::Symbolize(SymbolicSink& sink) const {
  // StateCheck's contract is absent-never-matches, but an absent "@phase"
  // key IS the init phase — so a phase guard is not expressible as a state
  // check. Render-keyed opacity still lets identical guards shadow exactly.
  sink.Opaque(Name(), Render());
  return true;
}

bool VerdictTarget::Lower(ProgramBuilder& b) const {
  PfInsn insn{};
  switch (kind_) {
    case TargetKind::kAccept:
      insn.op = static_cast<uint8_t>(PfOp::kAccept);
      break;
    case TargetKind::kDrop:
      insn.op = static_cast<uint8_t>(PfOp::kDrop);
      break;
    case TargetKind::kReturn:
      insn.op = static_cast<uint8_t>(PfOp::kReturn);
      break;
    default:
      insn.op = static_cast<uint8_t>(PfOp::kContinue);
      break;
  }
  b.Emit(insn);
  return true;
}

bool JumpTarget::Lower(ProgramBuilder& b) const {
  PfInsn insn{};
  insn.op = static_cast<uint8_t>(PfOp::kJump);
  int32_t id = b.ChainId(chain_);
  insn.a = id < 0 ? kPfNoIndex : static_cast<uint32_t>(id);
  insn.b = b.InternString(chain_);  // keeps undefined targets printable
  b.Emit(insn);
  return true;
}

bool StateTarget::Lower(ProgramBuilder& b) const {
  PfInsn insn{};
  insn.a = b.InternString(key);
  if (unset) {
    insn.op = static_cast<uint8_t>(PfOp::kStateUnset);
  } else {
    insn.op = static_cast<uint8_t>(PfOp::kStateSet);
    insn.b = b.InternOperand(value);
  }
  b.Emit(insn);
  return true;
}

bool PhaseTarget::Lower(ProgramBuilder& b) const {
  // A phase entry is a literal STATE write of the phase id to the reserved
  // key, so the existing kStateSet handler covers it with no new target
  // opcode.
  PfInsn insn{};
  insn.op = static_cast<uint8_t>(PfOp::kStateSet);
  insn.a = b.InternString(std::string(kPhaseKeyName));
  Operand literal;
  literal.literal = PhaseId(phase);
  insn.b = b.InternOperand(literal);
  b.Emit(insn);
  return true;
}

bool LogTarget::Lower(ProgramBuilder& b) const {
  PfInsn insn{};
  insn.op = static_cast<uint8_t>(PfOp::kLog);
  insn.a = b.InternString(prefix);
  b.Emit(insn);
  return true;
}

}  // namespace pf::core
