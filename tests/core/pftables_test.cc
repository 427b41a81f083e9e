// Rule language tests: tokenizing, label sets, default matches, module
// options, chain commands, compilation (labels -> sids, paths -> inodes),
// and listing. Includes every rule from paper Table 5 as a parse corpus.

#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/core/pftables.h"
#include "src/sim/sysimage.h"
#include "tests/testutil.h"

namespace pf::core {
namespace {

class PftablesTest : public pf::testing::SimTest {
 protected:
  PftablesTest() : engine_(InstallProcessFirewall(kernel())), pft_(engine_) {}

  Engine* engine_;
  Pftables pft_;
};

TEST_F(PftablesTest, TokenizerHandlesQuotes) {
  std::vector<std::string> t;
  ASSERT_TRUE(Pftables::Tokenize("a 'b c' \"d e\"  f", &t).ok());
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t[1], "b c");
  EXPECT_EQ(t[2], "d e");
}

TEST_F(PftablesTest, TokenizerRejectsUnterminatedQuote) {
  std::vector<std::string> t;
  Status s = Pftables::Tokenize("-j LOG --msg 'half open", &t);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("unterminated single quote"), std::string::npos);

  s = Pftables::Tokenize("-j LOG --msg \"half open", &t);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("unterminated double quote"), std::string::npos);

  // And an Exec of such a line fails instead of silently dropping the tail.
  EXPECT_FALSE(pft_.Exec("pftables -o FILE_READ -j LOG --msg 'oops").ok());
}

TEST_F(PftablesTest, AppendsToInputByDefault) {
  ASSERT_TRUE(pft_.Exec("pftables -t filter -o LNK_FILE_READ -d tmp_t -j DROP").ok());
  const Chain* input = engine_->ruleset().filter().Find("input");
  ASSERT_EQ(input->size(), 1u);
  const Rule& r = *input->rules()[0];
  EXPECT_EQ(r.op, sim::Op::kLnkFileRead);
  EXPECT_FALSE(r.object.wildcard);
  EXPECT_FALSE(r.object.negate);
  ASSERT_EQ(r.object.sids.size(), 1u);
  EXPECT_EQ(kernel().labels().Name(r.object.sids[0]), "tmp_t");
  EXPECT_EQ(r.target->Name(), "DROP");
}

TEST_F(PftablesTest, ParsesNegatedLabelSets) {
  ASSERT_TRUE(pft_.Exec("pftables -d ~{lib_t|textrel_shlib_t|httpd_modules_t} -j DROP").ok());
  const Rule& r = *engine_->ruleset().filter().Find("input")->rules()[0];
  EXPECT_TRUE(r.object.negate);
  EXPECT_EQ(r.object.sids.size(), 3u);
  EXPECT_FALSE(r.object.syshigh);
}

TEST_F(PftablesTest, ParsesSyshigh) {
  ASSERT_TRUE(pft_.Exec("pftables -s SYSHIGH -d ~{SYSHIGH} -j DROP").ok());
  const Rule& r = *engine_->ruleset().filter().Find("input")->rules()[0];
  EXPECT_TRUE(r.subject.syshigh);
  EXPECT_FALSE(r.subject.negate);
  EXPECT_TRUE(r.object.syshigh);
  EXPECT_TRUE(r.object.negate);
}

TEST_F(PftablesTest, CompilesProgramToInode) {
  ASSERT_TRUE(
      pft_.Exec("pftables -p /lib/ld-2.15.so -i 0x596b -o FILE_OPEN -j DROP").ok());
  const Rule& r = *engine_->ruleset().filter().Find("input")->rules()[0];
  EXPECT_TRUE(r.has_program());
  EXPECT_EQ(r.program_file, kernel().LookupNoHooks(sim::kLdso)->id());
  EXPECT_EQ(r.entrypoint, 0x596bu);
  EXPECT_TRUE(r.IndexableByEntrypoint());
}

TEST_F(PftablesTest, MissingProgramIsInstallError) {
  Status s = pft_.Exec("pftables -p /no/such/binary -j DROP");
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("not found"), std::string::npos);
}

TEST_F(PftablesTest, UnknownOperationRejected) {
  EXPECT_FALSE(pft_.Exec("pftables -o BOGUS_OP -j DROP").ok());
}

TEST_F(PftablesTest, UnknownFlagRejected) {
  EXPECT_FALSE(pft_.Exec("pftables --frobnicate -j DROP").ok());
}

TEST_F(PftablesTest, InsertDeleteFlushChainCommands) {
  ASSERT_TRUE(pft_.Exec("pftables -A input -o FILE_OPEN -j DROP").ok());
  ASSERT_TRUE(pft_.Exec("pftables -I input -o FILE_READ -j DROP").ok());
  const Chain* input = engine_->ruleset().filter().Find("input");
  ASSERT_EQ(input->size(), 2u);
  EXPECT_EQ(input->rules()[0]->op, sim::Op::kFileRead) << "-I inserts at the front";
  ASSERT_TRUE(pft_.Exec("pftables -D input 1").ok());
  ASSERT_EQ(input->size(), 1u);
  EXPECT_EQ(input->rules()[0]->op, sim::Op::kFileOpen);
  ASSERT_TRUE(pft_.Exec("pftables -F input").ok());
  EXPECT_EQ(input->size(), 0u);
  EXPECT_FALSE(pft_.Exec("pftables -D input 1").ok());
}

TEST_F(PftablesTest, NewChainAndJump) {
  ASSERT_TRUE(pft_.Exec("pftables -N signal_chain").ok());
  EXPECT_FALSE(pft_.Exec("pftables -N signal_chain").ok()) << "duplicate chain";
  ASSERT_TRUE(
      pft_.Exec("pftables -I input -o PROCESS_SIGNAL_DELIVERY -j SIGNAL_CHAIN").ok());
  const Rule& r = *engine_->ruleset().filter().Find("input")->rules()[0];
  EXPECT_EQ(r.target->jump_chain(), "signal_chain") << "chain names are case-insensitive";
}

TEST_F(PftablesTest, StateMatchAndTargetOptions) {
  ASSERT_TRUE(pft_.Exec("pftables -i 0x3c750 -p /bin/dbus-daemon -o SOCKET_BIND "
                        "-j STATE --set --key 0xbeef --value C_INO")
                  .ok());
  ASSERT_TRUE(pft_.Exec("pftables -i 0x3c786 -p /bin/dbus-daemon -o SOCKET_SETATTR "
                        "-m STATE --key 0xbeef --cmp C_INO --nequal -j DROP")
                  .ok());
  const Chain* input = engine_->ruleset().filter().Find("input");
  ASSERT_EQ(input->size(), 2u);
  EXPECT_EQ(input->rules()[0]->target->Name(), "STATE");
  ASSERT_EQ(input->rules()[1]->matches.size(), 1u);
  EXPECT_EQ(input->rules()[1]->matches[0]->Name(), "STATE");
}

TEST_F(PftablesTest, BadModuleOptionsRejected) {
  EXPECT_FALSE(pft_.Exec("pftables -m STATE -j DROP").ok()) << "STATE needs --key";
  EXPECT_FALSE(pft_.Exec("pftables -m SYSCALL_ARGS --arg 9 --equal 1 -j DROP").ok());
  EXPECT_FALSE(pft_.Exec("pftables -m COMPARE --v1 C_INO -j DROP").ok());
  EXPECT_FALSE(pft_.Exec("pftables -m NOSUCH -j DROP").ok());
  EXPECT_FALSE(pft_.Exec("pftables -j STATE --key x").ok()) << "target STATE needs --set";
}

TEST_F(PftablesTest, SyscallArgsParsesNrNames) {
  ASSERT_TRUE(pft_.Exec("pftables -I syscallbegin -m SYSCALL_ARGS --arg 0 --equal "
                        "NR_sigreturn -j STATE --set --key 'sig' --value 0")
                  .ok());
  const Chain* begin = engine_->ruleset().filter().Find("syscallbegin");
  ASSERT_EQ(begin->size(), 1u);
}

TEST_F(PftablesTest, CommentsAndAnnotationsIgnored) {
  EXPECT_TRUE(pft_.Exec("# only allow trusted libraries").ok());
  EXPECT_TRUE(pft_.Exec("* Disallow following links in temp filesystems.").ok());
  EXPECT_TRUE(pft_.Exec("").ok());
  EXPECT_EQ(engine_->ruleset().total_rules(), 0u);
}

TEST_F(PftablesTest, ParsesEveryTable5Rule) {
  // The full rule corpus from paper Table 5 (R1-R12), verbatim except that
  // binaries resolve against the simulated image.
  std::vector<std::string> rules = {
      "pftables -p /lib/ld-2.15.so -i 0x596b -s SYSHIGH "
      "-d ~{lib_t|textrel_shlib_t|httpd_modules_t} -o FILE_OPEN -j DROP",
      "pftables -p /usr/bin/python2.7 -i 0x34f05 -s SYSHIGH -d ~{lib_t|usr_t} "
      "-o FILE_OPEN -j DROP",
      "pftables -p /lib/libdbus-1.so.3 -i 0x39231 -s SYSHIGH "
      "-d ~{system_dbusd_var_run_t} -o UNIX_STREAM_SOCKET_CONNECT -j DROP",
      "pftables -p /usr/bin/php5 -i 0x27ad2c -s SYSHIGH "
      "-d ~{httpd_user_script_exec_t} -o FILE_OPEN -j DROP",
      "pftables -i 0x3c750 -p /bin/dbus-daemon -o SOCKET_BIND -j STATE --set "
      "--key 0xbeef --value C_INO",
      "pftables -i 0x3c786 -p /bin/dbus-daemon -o SOCKET_SETATTR -m STATE "
      "--key 0xbeef --cmp C_INO --nequal -j DROP",
      "pftables -i 0x5d7e -p /usr/bin/java -d ~{SYSHIGH} -o FILE_OPEN -j DROP",
      "pftables -i 0x2d637 -p /usr/bin/apache2 -o LINK_READ -m COMPARE "
      "--v1 C_DAC_OWNER --v2 C_TGT_DAC_OWNER --nequal -j DROP",
      "pftables -I input -o PROCESS_SIGNAL_DELIVERY -j SIGNAL_CHAIN",
      "pftables -I signal_chain -m SIGNAL_MATCH -m STATE --key 'sig' --cmp 1 -j DROP",
      "pftables -I signal_chain -m SIGNAL_MATCH -j STATE --set --key 'sig' --value 1",
      "pftables -I syscallbegin -m SYSCALL_ARGS --arg 0 --equal NR_sigreturn "
      "-j STATE --set --key 'sig' --value 0",
  };
  Status s = pft_.ExecAll(rules);
  EXPECT_TRUE(s.ok()) << s.message();
  EXPECT_EQ(engine_->ruleset().total_rules(), 12u);
}

TEST_F(PftablesTest, ListRendersRules) {
  ASSERT_TRUE(pft_.Exec("pftables -o FILE_OPEN -d tmp_t -j DROP").ok());
  std::string listing = pft_.List();
  EXPECT_NE(listing.find("Chain input"), std::string::npos);
  EXPECT_NE(listing.find("FILE_OPEN"), std::string::npos);
  EXPECT_NE(listing.find("tmp_t"), std::string::npos);
  EXPECT_NE(listing.find("DROP"), std::string::npos);
}

TEST_F(PftablesTest, EntrypointIndexBuilt) {
  ASSERT_TRUE(pft_.Exec("pftables -p /usr/bin/php5 -i 0x27ad2c -o FILE_OPEN -j DROP").ok());
  ASSERT_TRUE(pft_.Exec("pftables -o LNK_FILE_READ -d tmp_t -j DROP").ok());
  // The published program's input chain indexes the -p/-i rule under its
  // one entrypoint and scans the other as its plain slice.
  const auto published = engine_->PublishedRuleset();
  const PfProgram& prog = published->program;
  const ProgramChain& input = prog.chains[static_cast<size_t>(prog.root_input)];
  EXPECT_EQ(input.ept.size(), 1u);
  const ProgramBucket& link_read =
      input.ops[static_cast<size_t>(sim::Op::kLnkFileRead)];
  ASSERT_EQ(link_read.plain_len, 1u);
  EXPECT_EQ(prog.rules[prog.entries[link_read.plain_off]].chain_index, 1u);
  const ProgramBucket& open = input.ops[static_cast<size_t>(sim::Op::kFileOpen)];
  EXPECT_TRUE(open.has_indexed);
  EXPECT_EQ(open.plain_len, 0u);
}

TEST_F(PftablesTest, MangleTableIsSeparate) {
  ASSERT_TRUE(pft_.Exec("pftables -t mangle -o FILE_OPEN -j DROP").ok());
  EXPECT_EQ(engine_->ruleset().filter().total_rules(), 0u);
  EXPECT_EQ(engine_->ruleset().mangle().total_rules(), 1u);
  EXPECT_FALSE(pft_.Exec("pftables -t bogus -o FILE_OPEN -j DROP").ok());
}

}  // namespace
}  // namespace pf::core
