// Pathname resolution tests: component walks, symlink following, loops,
// dot-dot, want-parent semantics, DAC search permission.

#include <gtest/gtest.h>

#include "src/sim/kernel.h"
#include "src/sim/sysimage.h"
#include "tests/testutil.h"

namespace pf::sim {
namespace {

class NameiTest : public pf::testing::SimTest {
 protected:
  void InitTask(Task& t, Cred cred) {
    t.pid = 99;
    t.comm = "namei-test";
    t.cred = cred;
    t.cwd = kernel().vfs().root()->id();
  }
};

TEST_F(NameiTest, ResolvesAbsolutePath) {
  Task t;
  InitTask(t, RootCred());
  Nameidata nd;
  ASSERT_EQ(kernel().PathWalk(t, "/etc/passwd", kFollowFinal, &nd), 0);
  ASSERT_NE(nd.inode, nullptr);
  EXPECT_TRUE(nd.inode->IsRegular());
  EXPECT_EQ(nd.last, "passwd");
  EXPECT_EQ(kernel().labels().Name(nd.inode->sid), "etc_t");
}

TEST_F(NameiTest, ResolvesRelativePathFromCwd) {
  Task t;
  InitTask(t, RootCred());
  auto etc = kernel().LookupNoHooks("/etc");
  t.cwd = etc->id();
  Nameidata nd;
  ASSERT_EQ(kernel().PathWalk(t, "passwd", kFollowFinal, &nd), 0);
  EXPECT_EQ(nd.inode->id(), kernel().LookupNoHooks("/etc/passwd")->id());
}

TEST_F(NameiTest, MissingFinalComponentIsENOENT) {
  Task t;
  InitTask(t, RootCred());
  Nameidata nd;
  EXPECT_EQ(kernel().PathWalk(t, "/etc/nope", kFollowFinal, &nd), SysError(Err::kNoEnt));
}

TEST_F(NameiTest, WantParentToleratesMissingFinal) {
  Task t;
  InitTask(t, RootCred());
  Nameidata nd;
  ASSERT_EQ(kernel().PathWalk(t, "/etc/newfile", kWantParent, &nd), 0);
  EXPECT_EQ(nd.inode, nullptr);
  EXPECT_EQ(nd.last, "newfile");
  EXPECT_EQ(nd.parent->id(), kernel().LookupNoHooks("/etc")->id());
}

TEST_F(NameiTest, MissingIntermediateIsENOENTEvenWithWantParent) {
  Task t;
  InitTask(t, RootCred());
  Nameidata nd;
  EXPECT_EQ(kernel().PathWalk(t, "/no/such/dir/file", kWantParent, &nd),
            SysError(Err::kNoEnt));
}

TEST_F(NameiTest, NonDirectoryIntermediateIsENOTDIR) {
  Task t;
  InitTask(t, RootCred());
  Nameidata nd;
  EXPECT_EQ(kernel().PathWalk(t, "/etc/passwd/x", kFollowFinal, &nd),
            SysError(Err::kNotDir));
}

TEST_F(NameiTest, FollowsFinalSymlinkOnlyWhenAsked) {
  kernel().MkSymlinkAt("/tmp/link", "/etc/passwd", kMalloryUid, kMalloryUid, "tmp_t");
  Task t;
  InitTask(t, RootCred());
  Nameidata nd;
  ASSERT_EQ(kernel().PathWalk(t, "/tmp/link", kFollowFinal, &nd), 0);
  EXPECT_TRUE(nd.inode->IsRegular());
  Nameidata nd2;
  ASSERT_EQ(kernel().PathWalk(t, "/tmp/link", 0, &nd2), 0);
  EXPECT_TRUE(nd2.inode->IsSymlink());
}

TEST_F(NameiTest, FollowsIntermediateSymlinksAlways) {
  kernel().MkSymlinkAt("/tmp/etclink", "/etc", 0, 0, "tmp_t");
  Task t;
  InitTask(t, RootCred());
  Nameidata nd;
  ASSERT_EQ(kernel().PathWalk(t, "/tmp/etclink/passwd", 0, &nd), 0);
  EXPECT_EQ(nd.inode->id(), kernel().LookupNoHooks("/etc/passwd")->id());
}

TEST_F(NameiTest, RelativeSymlinkResolvesAgainstLinkDirectory) {
  kernel().MkFileAt("/tmp/real", "data", 0644, 0, 0, "tmp_t");
  kernel().MkSymlinkAt("/tmp/rel", "real", 0, 0, "tmp_t");
  Task t;
  InitTask(t, RootCred());
  Nameidata nd;
  ASSERT_EQ(kernel().PathWalk(t, "/tmp/rel", kFollowFinal, &nd), 0);
  EXPECT_EQ(nd.inode->id(), kernel().LookupNoHooks("/tmp/real")->id());
}

TEST_F(NameiTest, SymlinkLoopIsELOOP) {
  kernel().MkSymlinkAt("/tmp/a", "/tmp/b", 0, 0, "tmp_t");
  kernel().MkSymlinkAt("/tmp/b", "/tmp/a", 0, 0, "tmp_t");
  Task t;
  InitTask(t, RootCred());
  Nameidata nd;
  EXPECT_EQ(kernel().PathWalk(t, "/tmp/a", kFollowFinal, &nd), SysError(Err::kLoop));
}

TEST_F(NameiTest, DotAndDotDotNavigate) {
  Task t;
  InitTask(t, RootCred());
  Nameidata nd;
  ASSERT_EQ(kernel().PathWalk(t, "/etc/./../etc/passwd", kFollowFinal, &nd), 0);
  EXPECT_EQ(nd.inode->id(), kernel().LookupNoHooks("/etc/passwd")->id());
}

TEST_F(NameiTest, DotDotAtRootStaysAtRoot) {
  Task t;
  InitTask(t, RootCred());
  Nameidata nd;
  ASSERT_EQ(kernel().PathWalk(t, "/../../etc/passwd", kFollowFinal, &nd), 0);
  EXPECT_EQ(nd.inode->id(), kernel().LookupNoHooks("/etc/passwd")->id());
}

TEST_F(NameiTest, SearchPermissionRequiredOnIntermediateDirs) {
  // /home/alice is 0755 alice; make it 0700 and walk as mallory.
  auto alice = kernel().LookupNoHooks("/home/alice");
  alice->mode = 0700;
  kernel().MkFileAt("/home/alice/secret", "x", 0644, kAliceUid, kAliceUid, "user_home_t");
  Task t;
  InitTask(t, UserCred(kMalloryUid));
  Nameidata nd;
  EXPECT_EQ(kernel().PathWalk(t, "/home/alice/secret", kFollowFinal, &nd),
            SysError(Err::kAcces));
  Task rt;
  InitTask(rt, RootCred());
  EXPECT_EQ(kernel().PathWalk(rt, "/home/alice/secret", kFollowFinal, &nd), 0);
}

TEST_F(NameiTest, EmptyPathIsENOENT) {
  Task t;
  InitTask(t, RootCred());
  Nameidata nd;
  EXPECT_EQ(kernel().PathWalk(t, "", kFollowFinal, &nd), SysError(Err::kNoEnt));
}

TEST_F(NameiTest, RootPathResolvesToRoot) {
  Task t;
  InitTask(t, RootCred());
  Nameidata nd;
  ASSERT_EQ(kernel().PathWalk(t, "/", kFollowFinal, &nd), 0);
  EXPECT_EQ(nd.inode->id(), kernel().vfs().root()->id());
}

TEST_F(NameiTest, OverlongPathIsENAMETOOLONG) {
  Task t;
  InitTask(t, RootCred());
  std::string path = "/";
  path.append(5000, 'a');
  Nameidata nd;
  EXPECT_EQ(kernel().PathWalk(t, path, kFollowFinal, &nd), SysError(Err::kNameTooLong));
}

}  // namespace
}  // namespace pf::sim
