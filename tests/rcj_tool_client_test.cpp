// The `rcj_tool client` contract, driven through the built binary against
// an in-process NetServer: a streamed query's CSV holds exactly the pairs
// `rcj_tool join --out` writes for the same inputs, the --stats/--metrics/
// --epoch probes succeed, --trace renders the span block, and the exit
// codes separate runtime failures (1) from usage errors (2).
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/rcj.h"
#include "net/net_server.h"
#include "shard/shard_router.h"
#include "workload/dataset.h"
#include "workload/generator.h"

namespace rcj {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// The CSV's header line plus its data lines sorted: the wire streams
/// pairs in engine order while `join --out` sorts them.
std::vector<std::string> SortedCsv(const std::string& path) {
  std::istringstream in(ReadFile(path));
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  if (!lines.empty()) std::sort(lines.begin() + 1, lines.end());
  return lines;
}

class RcjToolClientTest : public ::testing::Test {
 protected:
  void SetUp() override {
#ifndef RCJ_TOOL_PATH
    GTEST_SKIP() << "rcj_tool is not part of this build";
#else
    tool_ = RCJ_TOOL_PATH;
    const char* base = std::getenv("TMPDIR");
    std::string tmpl = std::string(base != nullptr ? base : "/tmp") +
                       "/rcj_tool_client_test_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    ASSERT_NE(mkdtemp(buf.data()), nullptr);
    dir_ = buf.data();

    const Dataset q{"q", GenerateUniform(400, 71)};
    const Dataset p{"p", GenerateUniform(500, 72)};
    ASSERT_TRUE(SaveCsv(q, Path("q.csv")).ok());
    ASSERT_TRUE(SaveCsv(p, Path("p.csv")).ok());
    Result<std::unique_ptr<RcjEnvironment>> env =
        RcjEnvironment::Build(q.points, p.points, RcjRunOptions{});
    ASSERT_TRUE(env.ok());
    env_ = std::move(env).value();
    ASSERT_TRUE(router_.RegisterEnvironment("default", env_.get()).ok());
    server_ = std::make_unique<NetServer>(&router_);
    ASSERT_TRUE(server_->Start().ok());
#endif
  }

  void TearDown() override {
    if (server_) server_->Stop();
    if (!dir_.empty()) {
      const std::string cleanup = "rm -rf '" + dir_ + "'";
      EXPECT_EQ(std::system(cleanup.c_str()), 0);
    }
  }

  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

  /// Runs `rcj_tool <args>` with stdout/stderr captured into the scratch
  /// directory; returns the process exit code.
  int Tool(const std::string& args) {
    const std::string command = "'" + tool_ + "' " + args + " >'" +
                                Path("stdout.txt") + "' 2>'" +
                                Path("stderr.txt") + "'";
    const int status = std::system(command.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  int Client(const std::string& args) {
    return Tool("client --port " + std::to_string(server_->port()) + " " +
                args);
  }

  std::string Stdout() const { return ReadFile(Path("stdout.txt")); }
  std::string Stderr() const { return ReadFile(Path("stderr.txt")); }

  std::string tool_;
  std::string dir_;
  std::unique_ptr<RcjEnvironment> env_;
  ShardRouter router_;
  std::unique_ptr<NetServer> server_;
};

TEST_F(RcjToolClientTest, QueryCsvEqualsJoinOut) {
  ASSERT_EQ(Tool("join --q " + Path("q.csv") + " --p " + Path("p.csv") +
                 " --out " + Path("joined.csv")),
            0)
      << Stderr();
  ASSERT_EQ(Client("--quiet --out " + Path("streamed.csv")), 0) << Stderr();
  const std::vector<std::string> joined = SortedCsv(Path("joined.csv"));
  ASSERT_GT(joined.size(), 1u);
  EXPECT_EQ(SortedCsv(Path("streamed.csv")), joined);
}

TEST_F(RcjToolClientTest, ProbesExitZero) {
  ASSERT_EQ(Client("--stats"), 0) << Stderr();
  EXPECT_NE(Stdout().find("shard"), std::string::npos) << Stdout();
  EXPECT_NE(Stdout().find("default"), std::string::npos) << Stdout();

  ASSERT_EQ(Client("--metrics"), 0) << Stderr();
  EXPECT_NE(Stdout().find("rcj_server_"), std::string::npos);

  ASSERT_EQ(Client("--epoch"), 0) << Stderr();
  EXPECT_EQ(Stdout(), "default 0\n");
}

TEST_F(RcjToolClientTest, UnknownEnvExitsOne) {
  EXPECT_EQ(Client("--env nosuch --quiet"), 1);
  EXPECT_NE(Stderr().find("unknown environment"), std::string::npos)
      << Stderr();
}

TEST_F(RcjToolClientTest, MalformedHostIsAUsageError) {
  EXPECT_EQ(Client("--host 999.1.1.1 --quiet"), 2);
}

TEST_F(RcjToolClientTest, TracePrintsTheSpanBlock) {
  ASSERT_EQ(Client("--trace --trace-id cli.1 --limit 5 --quiet --out " +
                   Path("traced.csv")),
            0)
      << Stderr();
  const std::string err = Stderr();
  EXPECT_NE(err.find("trace cli.1:"), std::string::npos) << err;
  EXPECT_NE(err.find("exec"), std::string::npos) << err;
  EXPECT_EQ(SortedCsv(Path("traced.csv")).size(), 6u);  // header + 5 pairs
}

}  // namespace
}  // namespace rcj
