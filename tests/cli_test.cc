#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cli/commands.h"
#include "cli/flags.h"
#include "json_checker.h"
#include "table/matrix.h"
#include "table/table_io.h"
#include "util/metrics.h"

namespace tabsketch::cli {
namespace {

util::Result<Flags> ParseArgs(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "tabsketch");
  return Flags::Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, ParsesCommandAndFlags) {
  auto flags = ParseArgs({"cluster", "--table=x.tbl", "--k=20"});
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags->command(), "cluster");
  EXPECT_TRUE(flags->Has("table"));
  EXPECT_EQ(flags->GetString("table", "").value(), "x.tbl");
  EXPECT_EQ(flags->GetInt("k", 0).value(), 20);
}

TEST(FlagsTest, SpaceSeparatedValues) {
  auto flags = ParseArgs({"info", "--table", "y.tbl"});
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags->GetString("table", "").value(), "y.tbl");
}

TEST(FlagsTest, ValuelessFlagIsBooleanTrue) {
  auto flags = ParseArgs({"run", "--verbose"});
  ASSERT_TRUE(flags.ok());
  EXPECT_TRUE(flags->GetBool("verbose", false).value());
}

TEST(FlagsTest, EmptyArgvHasNoCommand) {
  auto flags = ParseArgs({});
  ASSERT_TRUE(flags.ok());
  EXPECT_TRUE(flags->command().empty());
}

TEST(FlagsTest, RejectsPositionalAfterFlags) {
  EXPECT_FALSE(ParseArgs({"cmd", "--a=1", "stray"}).ok());
}

TEST(FlagsTest, RejectsDuplicateFlags) {
  EXPECT_FALSE(ParseArgs({"cmd", "--a=1", "--a=2"}).ok());
}

TEST(FlagsTest, TypedGetterErrors) {
  auto flags = ParseArgs({"cmd", "--n=abc", "--x=1.2.3", "--b=maybe"});
  ASSERT_TRUE(flags.ok());
  EXPECT_FALSE(flags->GetInt("n", 0).ok());
  EXPECT_FALSE(flags->GetDouble("x", 0.0).ok());
  EXPECT_FALSE(flags->GetBool("b", false).ok());
}

TEST(FlagsTest, FallbacksWhenAbsent) {
  auto flags = ParseArgs({"cmd"});
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags->GetInt("n", 7).value(), 7);
  EXPECT_EQ(flags->GetDouble("x", 1.5).value(), 1.5);
  EXPECT_EQ(flags->GetString("s", "d").value(), "d");
  EXPECT_FALSE(flags->GetRequired("s").ok());
}

TEST(FlagsTest, AllowOnlyCatchesTypos) {
  auto flags = ParseArgs({"cmd", "--tile-row=8"});
  ASSERT_TRUE(flags.ok());
  EXPECT_FALSE(flags->AllowOnly({"tile-rows"}).ok());
  EXPECT_TRUE(flags->AllowOnly({"tile-row"}).ok());
}

TEST(ParseSizeListTest, ParsesExactCount) {
  auto parsed = ParseSizeList("1,2,30,4", 4);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, (std::vector<size_t>{1, 2, 30, 4}));
}

TEST(ParseSizeListTest, RejectsWrongCountAndGarbage) {
  EXPECT_FALSE(ParseSizeList("1,2,3", 4).ok());
  EXPECT_FALSE(ParseSizeList("1,x,3,4", 4).ok());
  EXPECT_FALSE(ParseSizeList("1,-2,3,4", 4).ok());
}

/// Runs the CLI with the given args; returns {exit code, stdout, stderr}.
struct CliRun {
  int code;
  std::string out;
  std::string err;
};

CliRun RunCli(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "tabsketch");
  std::ostringstream out;
  std::ostringstream err;
  const int code = RunTabsketchCli(static_cast<int>(argv.size()),
                                   argv.data(), out, err);
  return {code, out.str(), err.str()};
}

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(CliTest, NoCommandPrintsUsageAndFails) {
  const CliRun run = RunCli({});
  EXPECT_EQ(run.code, 1);
  EXPECT_NE(run.out.find("usage:"), std::string::npos);
}

TEST(CliTest, HelpSucceeds) {
  const CliRun run = RunCli({"help"});
  EXPECT_EQ(run.code, 0);
  EXPECT_NE(run.out.find("usage:"), std::string::npos);
}

TEST(CliTest, UnknownCommandFails) {
  const CliRun run = RunCli({"frobnicate"});
  EXPECT_EQ(run.code, 1);
  EXPECT_NE(run.err.find("unknown command"), std::string::npos);
}

TEST(CliTest, GenerateRequiresDataset) {
  const CliRun run = RunCli({"generate", "--out=/tmp/x.tbl"});
  EXPECT_EQ(run.code, 1);
  EXPECT_NE(run.err.find("--dataset"), std::string::npos);
}

TEST(CliTest, GenerateRejectsUnknownDataset) {
  const CliRun run =
      RunCli({"generate", "--dataset=nope", "--out=/tmp/x.tbl"});
  EXPECT_EQ(run.code, 1);
  EXPECT_NE(run.err.find("unknown --dataset"), std::string::npos);
}

TEST(CliTest, GenerateRejectsUnknownFlag) {
  const CliRun run = RunCli({"generate", "--dataset=six-region",
                          "--out=/tmp/x.tbl", "--bogus=1"});
  EXPECT_EQ(run.code, 1);
  EXPECT_NE(run.err.find("unknown flag"), std::string::npos);
}

TEST(CliTest, EndToEndPipeline) {
  const std::string table_path = TempPath("cli_test_table.tbl");
  const std::string sketch_path = TempPath("cli_test_sketches.bin");
  const std::string assign_path = TempPath("cli_test_assign.csv");
  const std::string table_flag = "--table=" + table_path;

  // generate
  {
    const std::string out_flag = "--out=" + table_path;
    const CliRun run =
        RunCli({"generate", "--dataset=six-region", out_flag.c_str(),
             "--rows=64", "--cols=128", "--seed=7"});
    ASSERT_EQ(run.code, 0) << run.err;
    EXPECT_NE(run.out.find("64x128"), std::string::npos);
  }
  // info
  {
    const CliRun run = RunCli({"info", table_flag.c_str()});
    ASSERT_EQ(run.code, 0) << run.err;
    EXPECT_NE(run.out.find("64x128"), std::string::npos);
    EXPECT_NE(run.out.find("mean"), std::string::npos);
  }
  // sketch
  {
    const std::string out_flag = "--out=" + sketch_path;
    const CliRun run =
        RunCli({"sketch", table_flag.c_str(), out_flag.c_str(),
             "--tile-rows=8", "--tile-cols=8", "--p=0.5", "--k=32"});
    ASSERT_EQ(run.code, 0) << run.err;
    EXPECT_NE(run.out.find("sketched 128 tiles"), std::string::npos);
    EXPECT_TRUE(std::filesystem::exists(sketch_path));
  }
  // distance
  {
    const CliRun run =
        RunCli({"distance", table_flag.c_str(), "--rect1=0,0,16,16",
             "--rect2=40,40,16,16", "--p=1", "--k=128"});
    ASSERT_EQ(run.code, 0) << run.err;
    EXPECT_NE(run.out.find("exact:"), std::string::npos);
    EXPECT_NE(run.out.find("estimated:"), std::string::npos);
  }
  // cluster (kmeans, precomputed) with CSV output
  {
    const std::string out_flag = "--out=" + assign_path;
    const CliRun run =
        RunCli({"cluster", table_flag.c_str(), "--tile-rows=8",
             "--tile-cols=8", "--algo=kmeans", "--k=6", "--p=0.5",
             out_flag.c_str()});
    ASSERT_EQ(run.code, 0) << run.err;
    EXPECT_NE(run.out.find("kmeans:"), std::string::npos);
    std::ifstream csv(assign_path);
    std::string header;
    std::getline(csv, header);
    EXPECT_EQ(header, "tile,grid_row,grid_col,cluster");
    size_t lines = 0;
    std::string line;
    while (std::getline(csv, line)) {
      if (!line.empty()) ++lines;
    }
    EXPECT_EQ(lines, 128u);
  }
  // cluster (kmedoids, exact mode)
  {
    const CliRun run =
        RunCli({"cluster", table_flag.c_str(), "--tile-rows=8",
             "--tile-cols=8", "--algo=kmedoids", "--k=3", "--mode=exact"});
    ASSERT_EQ(run.code, 0) << run.err;
    EXPECT_NE(run.out.find("medoids:"), std::string::npos);
  }
  // cluster (dbscan, on-demand sketches)
  {
    const CliRun run = RunCli({"cluster", table_flag.c_str(), "--tile-rows=8",
                            "--tile-cols=8", "--algo=dbscan",
                            "--epsilon=100000", "--min-points=3",
                            "--mode=ondemand"});
    ASSERT_EQ(run.code, 0) << run.err;
    EXPECT_NE(run.out.find("dbscan:"), std::string::npos);
  }

  std::remove(table_path.c_str());
  std::remove(sketch_path.c_str());
  std::remove(assign_path.c_str());
}

TEST(CliTest, PoolBuildAndQuery) {
  const std::string table_path = TempPath("cli_pool_table.tbl");
  const std::string pool_path = TempPath("cli_pool.pool");
  const std::string table_flag = "--table=" + table_path;
  const std::string pool_flag = "--pool=" + pool_path;
  {
    const std::string out_flag = "--out=" + table_path;
    ASSERT_EQ(RunCli({"generate", "--dataset=six-region", out_flag.c_str(),
                      "--rows=64", "--cols=64"})
                  .code,
              0);
  }
  {
    const std::string out_flag = "--out=" + pool_path;
    const CliRun run =
        RunCli({"pool-build", table_flag.c_str(), out_flag.c_str(),
                "--k=8", "--min-log2=3", "--max-log2=4"});
    ASSERT_EQ(run.code, 0) << run.err;
    EXPECT_NE(run.out.find("canonical sizes"), std::string::npos);
  }
  {
    const CliRun run = RunCli({"pool-query", pool_flag.c_str(),
                               "--rect1=0,0,12,12", "--rect2=40,40,12,12",
                               table_flag.c_str()});
    ASSERT_EQ(run.code, 0) << run.err;
    EXPECT_NE(run.out.find("compound-sketch estimate"), std::string::npos);
    EXPECT_NE(run.out.find("exact reference"), std::string::npos);
  }
  {
    // Query below the minimum canonical size must fail cleanly.
    const CliRun run = RunCli({"pool-query", pool_flag.c_str(),
                               "--rect1=0,0,4,4", "--rect2=8,8,4,4"});
    EXPECT_EQ(run.code, 1);
    EXPECT_NE(run.err.find("NotFound"), std::string::npos);
  }
  std::remove(table_path.c_str());
  std::remove(pool_path.c_str());
}

TEST(CliTest, QueryOutputIsByteIdenticalAcrossThreadsAndCaches) {
  const std::string table_path = TempPath("cli_query_table.tbl");
  const std::string batch_path = TempPath("cli_query_batch.txt");
  const std::string sketch_path = TempPath("cli_query_sketches.bin");
  const std::string out_path = TempPath("cli_query_out.txt");
  const std::string table_flag = "--table=" + table_path;
  const std::string batch_flag = "--batch=" + batch_path;
  {
    const std::string out_flag = "--out=" + table_path;
    ASSERT_EQ(RunCli({"generate", "--dataset=six-region", out_flag.c_str(),
                      "--rows=64", "--cols=64", "--seed=11"})
                  .code,
              0);
  }
  {
    // Mixed batch with repeats (cache hits), comments, and blank lines.
    std::ofstream batch(batch_path);
    batch << "# mixed batch\n"
          << "distance 0 63\n"
          << "knn 5 4\n"
          << "\n"
          << "distance 0 63   # repeat\n"
          << "knn 5 4\n"
          << "distance 17 42\n"
          << "knn 63 2\n";
  }

  // Reference run: single thread, unbounded on-demand cache.
  const CliRun reference =
      RunCli({"query", table_flag.c_str(), "--tile-rows=8", "--tile-cols=8",
              batch_flag.c_str(), "--p=1", "--k=64", "--threads=1"});
  ASSERT_EQ(reference.code, 0) << reference.err;
  EXPECT_NE(reference.out.find("distance 0 63 = "), std::string::npos);
  EXPECT_NE(reference.out.find("knn 5 4 = "), std::string::npos);
  EXPECT_NE(reference.err.find("answered 6 requests"), std::string::npos);

  // Every thread count and cache budget — including a 1-byte budget that
  // evicts on every lookup — must reproduce the reference bytes exactly.
  for (const char* extra : {"--threads=4", "--cache-bytes=1",
                            "--cache-bytes=1000000"}) {
    const CliRun run =
        RunCli({"query", table_flag.c_str(), "--tile-rows=8", "--tile-cols=8",
                batch_flag.c_str(), "--p=1", "--k=64", extra});
    ASSERT_EQ(run.code, 0) << run.err;
    EXPECT_EQ(run.out, reference.out) << "with " << extra;
  }
  {
    // The eviction-forcing budget must actually report LRU churn on stderr.
    const CliRun run =
        RunCli({"query", table_flag.c_str(), "--tile-rows=8", "--tile-cols=8",
                batch_flag.c_str(), "--p=1", "--k=64", "--cache-bytes=1"});
    ASSERT_EQ(run.code, 0) << run.err;
    EXPECT_NE(run.err.find("lru cache:"), std::string::npos);
  }
  {
    // Serving from a sketch set written by `tabsketch sketch` with the same
    // parameters also matches byte-for-byte.
    const std::string out_flag = "--out=" + sketch_path;
    ASSERT_EQ(RunCli({"sketch", table_flag.c_str(), out_flag.c_str(),
                      "--tile-rows=8", "--tile-cols=8", "--p=1", "--k=64",
                      "--seed=42"})
                  .code,
              0);
    const std::string sketches_flag = "--sketches=" + sketch_path;
    const CliRun run =
        RunCli({"query", table_flag.c_str(), "--tile-rows=8", "--tile-cols=8",
                batch_flag.c_str(), sketches_flag.c_str()});
    ASSERT_EQ(run.code, 0) << run.err;
    EXPECT_EQ(run.out, reference.out);

    // --sketches carries its own params; explicit ones are rejected.
    const CliRun clash =
        RunCli({"query", table_flag.c_str(), "--tile-rows=8", "--tile-cols=8",
                batch_flag.c_str(), sketches_flag.c_str(), "--k=64"});
    EXPECT_EQ(clash.code, 1);
    EXPECT_NE(clash.err.find("--sketches"), std::string::npos);
  }
  {
    // --out routes the answers to a file; stdout stays empty.
    const std::string out_flag = "--out=" + out_path;
    const CliRun run =
        RunCli({"query", table_flag.c_str(), "--tile-rows=8", "--tile-cols=8",
                batch_flag.c_str(), "--p=1", "--k=64", out_flag.c_str()});
    ASSERT_EQ(run.code, 0) << run.err;
    EXPECT_TRUE(run.out.empty());
    std::ifstream in(out_path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    EXPECT_EQ(buffer.str(), reference.out);
  }

  std::remove(table_path.c_str());
  std::remove(batch_path.c_str());
  std::remove(sketch_path.c_str());
  std::remove(out_path.c_str());
}

// The quantized code tier is a filter only: every --quant width must
// reproduce the --quant=off bytes exactly, for both query and cluster,
// across thread counts and cache budgets. Bad widths and exact-mode
// combinations are rejected up front.
TEST(CliTest, QuantOutputsAreByteIdenticalToOff) {
  const std::string table_path = TempPath("cli_quant_table.tbl");
  const std::string batch_path = TempPath("cli_quant_batch.txt");
  const std::string table_flag = "--table=" + table_path;
  const std::string batch_flag = "--batch=" + batch_path;
  {
    const std::string out_flag = "--out=" + table_path;
    ASSERT_EQ(RunCli({"generate", "--dataset=six-region", out_flag.c_str(),
                      "--rows=64", "--cols=64", "--seed=23"})
                  .code,
              0);
  }
  {
    std::ofstream batch(batch_path);
    batch << "distance 0 63\n"
          << "knn 5 4\n"
          << "distance 17 42\n"
          << "knn 63 20\n";
  }

  const CliRun query_off =
      RunCli({"query", table_flag.c_str(), "--tile-rows=8", "--tile-cols=8",
              batch_flag.c_str(), "--p=1", "--k=64", "--quant=off"});
  ASSERT_EQ(query_off.code, 0) << query_off.err;
  for (const char* quant : {"--quant=int8", "--quant=int16"}) {
    for (const char* extra : {"--threads=4", "--cache-bytes=4096"}) {
      const CliRun run =
          RunCli({"query", table_flag.c_str(), "--tile-rows=8",
                  "--tile-cols=8", batch_flag.c_str(), "--p=1", "--k=64",
                  quant, extra});
      ASSERT_EQ(run.code, 0) << run.err;
      EXPECT_EQ(run.out, query_off.out) << quant << " with " << extra;
    }
  }

  // Filter-and-refine knn on top of the code tier also matches --quant=off.
  const CliRun refine_off =
      RunCli({"query", table_flag.c_str(), "--tile-rows=8", "--tile-cols=8",
              batch_flag.c_str(), "--p=1", "--k=64", "--refine"});
  ASSERT_EQ(refine_off.code, 0) << refine_off.err;
  for (const char* quant : {"--quant=int8", "--quant=int16"}) {
    const CliRun run =
        RunCli({"query", table_flag.c_str(), "--tile-rows=8", "--tile-cols=8",
                batch_flag.c_str(), "--p=1", "--k=64", "--refine", quant});
    ASSERT_EQ(run.code, 0) << run.err;
    EXPECT_EQ(run.out, refine_off.out) << "refine with " << quant;
  }

  // Clustering: the assignment CSV must match byte-for-byte (stdout also
  // reports distance-eval counts and wall time, which the prefilter is
  // allowed — indeed expected — to change).
  const std::string csv_path = TempPath("cli_quant_assign.csv");
  const std::string csv_flag = "--out=" + csv_path;
  auto run_cluster = [&](const char* quant) -> std::string {
    const CliRun run =
        RunCli({"cluster", table_flag.c_str(), "--tile-rows=8",
                "--tile-cols=8", "--p=2", "--sketch-k=64", "--k=3",
                "--seed=7", csv_flag.c_str(), quant});
    EXPECT_EQ(run.code, 0) << run.err;
    std::ifstream in(csv_path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  };
  const std::string cluster_off = run_cluster("--quant=off");
  ASSERT_NE(cluster_off.find("tile,grid_row,grid_col,cluster"),
            std::string::npos);
  EXPECT_EQ(run_cluster("--quant=int8"), cluster_off);
  EXPECT_EQ(run_cluster("--quant=int16"), cluster_off);

  {
    const CliRun run =
        RunCli({"query", table_flag.c_str(), "--tile-rows=8", "--tile-cols=8",
                batch_flag.c_str(), "--p=1", "--k=64", "--quant=int7"});
    EXPECT_EQ(run.code, 1);
    EXPECT_NE(run.err.find("quantization"), std::string::npos);
  }
  {
    // Exact mode has no sketches, so there is nothing to quantize.
    const CliRun run =
        RunCli({"cluster", table_flag.c_str(), "--tile-rows=8",
                "--tile-cols=8", "--mode=exact", "--k=3", "--quant=int8"});
    EXPECT_EQ(run.code, 1);
    EXPECT_NE(run.err.find("--quant"), std::string::npos);
  }

  std::remove(table_path.c_str());
  std::remove(batch_path.c_str());
  std::remove(csv_path.c_str());
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Extracts the numeric value of `"key": <number>` from a metrics dump.
/// Returns -1 when the key is absent (all real metric values are >= 0).
double MetricValue(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const size_t pos = json.find(needle);
  if (pos == std::string::npos) return -1.0;
  return std::strtod(json.c_str() + pos + needle.size(), nullptr);
}

/// Minimal blocking line client for the serve daemon tests.
class CliServeClient {
 public:
  explicit CliServeClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    connected_ = fd_ >= 0 &&
                 ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~CliServeClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }

  void SendLine(const std::string& line) {
    const std::string framed = line + "\n";
    size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t n = ::send(fd_, framed.data() + sent,
                               framed.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return;
      sent += static_cast<size_t>(n);
    }
  }

  std::string RecvLine() {
    while (true) {
      const size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        const std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return "";
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Polls `path` until it appears and parses the port the daemon wrote.
uint16_t WaitForPortFile(const std::string& path) {
  for (int i = 0; i < 2000; ++i) {
    std::ifstream in(path);
    int port = 0;
    if (in >> port && port > 0) return static_cast<uint16_t>(port);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return 0;
}

// The ISSUE-6 acceptance scenario: the daemon answers a mixed batch over a
// socket byte-identically to single-shot `query` on the same inputs,
// including across a live `reload` snapshot swap, shuts down cleanly on
// SIGTERM, and its metrics dump carries the serve.* schema.
TEST(CliTest, ServeDaemonMatchesQueryAndReloads) {
  const std::string table_path = TempPath("cli_serve_table.tbl");
  const std::string batch_path = TempPath("cli_serve_batch.txt");
  const std::string day1_path = TempPath("cli_serve_day1.sks");
  const std::string day2_path = TempPath("cli_serve_day2.sks");
  const std::string port_path = TempPath("cli_serve.port");
  const std::string json_path = TempPath("cli_serve_metrics.json");
  const std::string table_flag = "--table=" + table_path;
  const std::string batch_flag = "--batch=" + batch_path;
  std::remove(port_path.c_str());
  {
    const std::string out_flag = "--out=" + table_path;
    ASSERT_EQ(RunCli({"generate", "--dataset=six-region", out_flag.c_str(),
                      "--rows=64", "--cols=64", "--seed=11"})
                  .code,
              0);
  }
  // Two sketch-set generations over the same table, different seeds.
  for (const auto& [path, seed] :
       {std::pair<std::string, const char*>{day1_path, "--seed=42"},
        std::pair<std::string, const char*>{day2_path, "--seed=43"}}) {
    const std::string out_flag = "--out=" + path;
    ASSERT_EQ(RunCli({"sketch", table_flag.c_str(), out_flag.c_str(),
                      "--tile-rows=8", "--tile-cols=8", "--p=1", "--k=64",
                      seed})
                  .code,
              0);
  }
  const std::vector<std::string> batch_lines = {
      "distance 0 63", "knn 5 4", "distance 17 42", "knn 63 2"};
  {
    std::ofstream batch(batch_path);
    for (const std::string& line : batch_lines) batch << line << "\n";
  }

  // `query` reference answers for each generation.
  const std::string day1_flag = "--sketches=" + day1_path;
  const std::string day2_flag = "--sketches=" + day2_path;
  const CliRun day1_ref =
      RunCli({"query", table_flag.c_str(), "--tile-rows=8", "--tile-cols=8",
              batch_flag.c_str(), day1_flag.c_str()});
  ASSERT_EQ(day1_ref.code, 0) << day1_ref.err;
  const CliRun day2_ref =
      RunCli({"query", table_flag.c_str(), "--tile-rows=8", "--tile-cols=8",
              batch_flag.c_str(), day2_flag.c_str()});
  ASSERT_EQ(day2_ref.code, 0) << day2_ref.err;
  const std::vector<std::string> day1_lines = SplitLines(day1_ref.out);
  const std::vector<std::string> day2_lines = SplitLines(day2_ref.out);
  ASSERT_EQ(day1_lines.size(), batch_lines.size());
  ASSERT_NE(day1_lines, day2_lines);

  // The daemon runs in-process on another thread; SIGTERM stops it.
  const std::string port_flag = "--port-file=" + port_path;
  const std::string json_flag = "--metrics-json=" + json_path;
  CliRun serve_run{-1, "", ""};
  std::thread daemon([&] {
    serve_run = RunCli({"serve", table_flag.c_str(), "--tile-rows=8",
                        "--tile-cols=8", day1_flag.c_str(),
                        "--cache-bytes=1000000", port_flag.c_str(),
                        json_flag.c_str()});
  });
  const uint16_t port = WaitForPortFile(port_path);
  ASSERT_NE(port, 0) << "daemon never wrote its port file";

  {
    CliServeClient client(port);
    ASSERT_TRUE(client.connected());
    client.SendLine("ping");
    EXPECT_EQ(client.RecvLine(), "ok ping");
    // Day-1 answers match `query` byte-for-byte...
    for (size_t i = 0; i < batch_lines.size(); ++i) {
      client.SendLine(batch_lines[i]);
      EXPECT_EQ(client.RecvLine(), day1_lines[i]) << "line " << i;
    }
    // ...and after one live reload, so do day-2 answers.
    client.SendLine("reload " + day2_path);
    const std::string ack = client.RecvLine();
    EXPECT_EQ(ack.find("ok reload "), 0u) << ack;
    for (size_t i = 0; i < batch_lines.size(); ++i) {
      client.SendLine(batch_lines[i]);
      EXPECT_EQ(client.RecvLine(), day2_lines[i]) << "line " << i;
    }
    client.SendLine("quit");
    EXPECT_EQ(client.RecvLine(), "ok bye");
  }

  raise(SIGTERM);
  daemon.join();
  EXPECT_EQ(serve_run.code, 0) << serve_run.err;
  EXPECT_NE(serve_run.out.find("serving "), std::string::npos);
  EXPECT_NE(serve_run.err.find("1 snapshot swaps"), std::string::npos);

  // The metrics dump carries the serve.* schema and the LRU race counter.
  const std::string json = ReadWholeFile(json_path);
  EXPECT_GE(MetricValue(json, "serve.connections.accepted"), 0.0);
  EXPECT_GE(MetricValue(json, "serve.requests.distance"), 0.0);
  EXPECT_GE(MetricValue(json, "serve.requests.knn"), 0.0);
  EXPECT_GE(MetricValue(json, "serve.requests.reload"), 0.0);
  EXPECT_GE(MetricValue(json, "serve.snapshot.swaps"), 0.0);
  EXPECT_GE(MetricValue(json, "serve.queue.depth"), 0.0);
  EXPECT_GE(MetricValue(json, "lru.cache.races"), 0.0);
  EXPECT_NE(json.find("serve.request.latency.seconds"), std::string::npos);
#if TABSKETCH_METRICS_ENABLED
  EXPECT_EQ(MetricValue(json, "serve.connections.accepted"), 1.0);
  EXPECT_EQ(MetricValue(json, "serve.requests.distance"), 4.0);
  EXPECT_EQ(MetricValue(json, "serve.requests.knn"), 4.0);
  EXPECT_EQ(MetricValue(json, "serve.requests.reload"), 1.0);
  EXPECT_EQ(MetricValue(json, "serve.snapshot.swaps"), 1.0);
#endif

  for (const std::string& path :
       {table_path, batch_path, day1_path, day2_path, port_path, json_path}) {
    std::remove(path.c_str());
  }
}

TEST(CliTest, ServeRejectsBadFlags) {
  EXPECT_EQ(RunCli({"serve"}).code, 1);
  EXPECT_EQ(RunCli({"serve", "--table=/tmp/x.tbl", "--tile-rows=8",
                    "--tile-cols=8", "--port=70000"})
                .code,
            1);
  EXPECT_EQ(RunCli({"serve", "--table=/tmp/x.tbl", "--tile-rows=8",
                    "--tile-cols=8", "--deadline-ms=-1"})
                .code,
            1);
  // Introspection flags: --slow-log needs a threshold, the ticker needs a
  // positive interval and at least one ring slot.
  EXPECT_EQ(RunCli({"serve", "--table=/tmp/x.tbl", "--tile-rows=8",
                    "--tile-cols=8", "--slow-log=/tmp/slow.jsonl"})
                .code,
            1);
  EXPECT_EQ(RunCli({"serve", "--table=/tmp/x.tbl", "--tile-rows=8",
                    "--tile-cols=8", "--slow-ms=-1"})
                .code,
            1);
  EXPECT_EQ(RunCli({"serve", "--table=/tmp/x.tbl", "--tile-rows=8",
                    "--tile-cols=8", "--stats-interval=0"})
                .code,
            1);
  EXPECT_EQ(RunCli({"serve", "--table=/tmp/x.tbl", "--tile-rows=8",
                    "--tile-cols=8", "--stats-ring=0"})
                .code,
            1);
}

TEST(CliTest, TopRejectsBadFlags) {
  EXPECT_EQ(RunCli({"top"}).code, 1);  // needs --port or --port-file
  EXPECT_EQ(RunCli({"top", "--port=70000"}).code, 1);
  EXPECT_EQ(RunCli({"top", "--port=1", "--interval=0"}).code, 1);
  // An unreadable port file is a clean error, not a hang.
  EXPECT_EQ(RunCli({"top", "--port-file=/no/such/port.file", "--once"}).code,
            1);
}

TEST(CliTest, TopOnceAndTickerMetricsFileAgainstLiveDaemon) {
  const std::string table_path = TempPath("cli_top_table.tbl");
  const std::string port_path = TempPath("cli_top.port");
  const std::string json_path = TempPath("cli_top_metrics.json");
  const std::string table_flag = "--table=" + table_path;
  std::remove(port_path.c_str());
  std::remove(json_path.c_str());
  {
    const std::string out_flag = "--out=" + table_path;
    ASSERT_EQ(RunCli({"generate", "--dataset=six-region", out_flag.c_str(),
                      "--rows=32", "--cols=32", "--seed=3"})
                  .code,
              0);
  }

  const std::string port_flag = "--port-file=" + port_path;
  const std::string json_flag = "--metrics-json=" + json_path;
  CliRun serve_run{-1, "", ""};
  std::thread daemon([&] {
    serve_run = RunCli({"serve", table_flag.c_str(), "--tile-rows=8",
                        "--tile-cols=8", port_flag.c_str(), json_flag.c_str(),
                        "--stats-interval=0.05"});
  });
  const uint16_t port = WaitForPortFile(port_path);
  ASSERT_NE(port, 0) << "daemon never wrote its port file";

  // The ticker atomically rewrites --metrics-json every interval: while the
  // daemon is still running, the file on disk is a complete valid document
  // carrying the ticker's own counter.
  bool ticked = false;
  for (int i = 0; i < 2000 && !ticked; ++i) {
    const std::string json = ReadWholeFile(json_path);
    if (!json.empty() && tabsketch::testing::JsonChecker::Valid(json) &&
        json.find("serve.ticker.ticks") != std::string::npos) {
      ticked = true;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_TRUE(ticked) << "metrics file never rewritten while serving";

  // Background traffic so the two polls `top --once` takes bracket live
  // requests and the client-side diffed rate is observable.
  std::atomic<bool> stop_traffic{false};
  std::thread traffic([&] {
    CliServeClient client(port);
    if (!client.connected()) return;
    while (!stop_traffic.load()) {
      client.SendLine("distance 0 1");
      if (client.RecvLine().empty()) return;
    }
  });

  const CliRun top =
      RunCli({"top", port_flag.c_str(), "--interval=0.2", "--once"});
  stop_traffic.store(true);
  traffic.join();
  EXPECT_EQ(top.code, 0) << top.err;
  const std::vector<std::string> lines = SplitLines(top.out);
  ASSERT_EQ(lines.size(), 2u) << top.out;  // header + exactly one data line
  EXPECT_NE(lines[0].find("rps"), std::string::npos) << top.out;
  EXPECT_NE(lines[0].find("p99_ms"), std::string::npos) << top.out;
  EXPECT_NE(lines[0].find("tiles"), std::string::npos) << top.out;
  const double rps = std::strtod(lines[1].c_str(), nullptr);
#if TABSKETCH_METRICS_ENABLED
  EXPECT_GT(rps, 0.0) << top.out;
#else
  EXPECT_GE(rps, 0.0) << top.out;
#endif

  raise(SIGTERM);
  daemon.join();
  EXPECT_EQ(serve_run.code, 0) << serve_run.err;
  for (const std::string& path : {table_path, port_path, json_path}) {
    std::remove(path.c_str());
  }
}

/// Generates `cols`-column six-region pieces (32 rows each) and returns
/// their paths; the caller removes them.
std::vector<std::string> GeneratePieces(const std::string& prefix,
                                        const std::vector<int>& piece_cols) {
  std::vector<std::string> paths;
  for (size_t i = 0; i < piece_cols.size(); ++i) {
    const std::string path =
        TempPath(prefix + "_piece" + std::to_string(i) + ".tbl");
    const std::string out_flag = "--out=" + path;
    const std::string cols_flag =
        "--cols=" + std::to_string(piece_cols[i]);
    const std::string seed_flag = "--seed=" + std::to_string(100 + i);
    EXPECT_EQ(RunCli({"generate", "--dataset=six-region", out_flag.c_str(),
                      "--rows=32", cols_flag.c_str(), seed_flag.c_str()})
                  .code,
              0);
    paths.push_back(path);
  }
  return paths;
}

std::string JoinComma(const std::vector<std::string>& parts) {
  std::string joined;
  for (const std::string& part : parts) {
    if (!joined.empty()) joined += ",";
    joined += part;
  }
  return joined;
}

TEST(CliTest, IngestMatchesBatchSketchByteForByte) {
  // Streaming `ingest` over uneven pieces (the middle one leaves pending
  // columns mid-stream) must write the same bytes `sketch` writes over the
  // stitched table — sketches and the .skt writer are deterministic.
  const std::vector<std::string> pieces =
      GeneratePieces("cli_ingest_id", {20, 12, 16});
  const std::string stream_out = TempPath("cli_ingest_id_stream.skt");
  const std::string table_out = TempPath("cli_ingest_id_stitched.tbl");
  const std::string batch_out = TempPath("cli_ingest_id_batch.skt");
  const std::string pieces_flag = "--pieces=" + JoinComma(pieces);
  const std::string stream_flag = "--out=" + stream_out;
  const std::string table_out_flag = "--table-out=" + table_out;
  const CliRun ingest =
      RunCli({"ingest", pieces_flag.c_str(), "--tile-rows=8",
              "--tile-cols=8", stream_flag.c_str(), table_out_flag.c_str(),
              "--p=1", "--k=32", "--seed=7", "--threads=3"});
  ASSERT_EQ(ingest.code, 0) << ingest.err;
  EXPECT_NE(ingest.out.find("ingested 3 pieces"), std::string::npos);
  EXPECT_NE(ingest.out.find("tile-cols [0, 6)"), std::string::npos);

  const std::string table_flag = "--table=" + table_out;
  const std::string batch_flag = "--out=" + batch_out;
  const CliRun sketch =
      RunCli({"sketch", table_flag.c_str(), batch_flag.c_str(),
              "--tile-rows=8", "--tile-cols=8", "--p=1", "--k=32",
              "--seed=7"});
  ASSERT_EQ(sketch.code, 0) << sketch.err;
  EXPECT_EQ(ReadWholeFile(stream_out), ReadWholeFile(batch_out));

  for (const std::string& path : pieces) std::remove(path.c_str());
  for (const std::string& path : {stream_out, table_out, batch_out}) {
    std::remove(path.c_str());
  }
}

TEST(CliTest, IngestWindowSlidesAndMatchesSuffixSketch) {
  // --window=2 retires overflow after every piece: the final window is the
  // stream's last two tile columns, and its sketch set must byte-match a
  // batch `sketch` over the final window table.
  const std::vector<std::string> pieces =
      GeneratePieces("cli_ingest_win", {16, 16, 16});
  const std::string stream_out = TempPath("cli_ingest_win_stream.skt");
  const std::string table_out = TempPath("cli_ingest_win_window.tbl");
  const std::string batch_out = TempPath("cli_ingest_win_batch.skt");
  const std::string pieces_flag = "--pieces=" + JoinComma(pieces);
  const std::string stream_flag = "--out=" + stream_out;
  const std::string table_out_flag = "--table-out=" + table_out;
  const CliRun ingest =
      RunCli({"ingest", pieces_flag.c_str(), "--tile-rows=8",
              "--tile-cols=8", stream_flag.c_str(), table_out_flag.c_str(),
              "--k=32", "--window=2"});
  ASSERT_EQ(ingest.code, 0) << ingest.err;
  EXPECT_NE(ingest.out.find("tile-cols [4, 6)"), std::string::npos);
  EXPECT_NE(ingest.out.find("window table (32x16)"), std::string::npos);

  const std::string table_flag = "--table=" + table_out;
  const std::string batch_flag = "--out=" + batch_out;
  ASSERT_EQ(RunCli({"sketch", table_flag.c_str(), batch_flag.c_str(),
                    "--tile-rows=8", "--tile-cols=8", "--k=32"})
                .code,
            0);
  EXPECT_EQ(ReadWholeFile(stream_out), ReadWholeFile(batch_out));

  for (const std::string& path : pieces) std::remove(path.c_str());
  for (const std::string& path : {stream_out, table_out, batch_out}) {
    std::remove(path.c_str());
  }
}

TEST(CliTest, IngestRejectsBadFlags) {
  const CliRun no_pieces = RunCli({"ingest", "--tile-rows=8",
                                   "--tile-cols=8", "--out=/tmp/x.skt"});
  EXPECT_EQ(no_pieces.code, 1);
  EXPECT_NE(no_pieces.err.find("--pieces"), std::string::npos);
  EXPECT_EQ(RunCli({"ingest", "--pieces=,", "--tile-rows=8",
                    "--tile-cols=8", "--out=/tmp/x.skt"})
                .code,
            1);
  EXPECT_EQ(RunCli({"ingest", "--pieces=/tmp/a.tbl", "--tile-rows=8",
                    "--tile-cols=8", "--out=/tmp/x.skt", "--window=-1"})
                .code,
            1);
}

TEST(CliTest, ServeIngestFlagValidation) {
  // All three rejections fire before any file is opened or port bound.
  const CliRun needs_table =
      RunCli({"serve", "--sketches=/tmp/x.skt", "--ingest"});
  EXPECT_EQ(needs_table.code, 1);
  EXPECT_NE(needs_table.err.find("--ingest"), std::string::npos);
  const CliRun with_sketches =
      RunCli({"serve", "--table=/tmp/x.tbl", "--tile-rows=8",
              "--tile-cols=8", "--sketches=/tmp/x.skt", "--ingest"});
  EXPECT_EQ(with_sketches.code, 1);
  EXPECT_NE(with_sketches.err.find("--sketches"), std::string::npos);
  const CliRun with_cache =
      RunCli({"serve", "--table=/tmp/x.tbl", "--tile-rows=8",
              "--tile-cols=8", "--cache-bytes=4096", "--ingest"});
  EXPECT_EQ(with_cache.code, 1);
  EXPECT_NE(with_cache.err.find("--cache-bytes"), std::string::npos);
}

TEST(CliTest, ServeIngestDaemonMatchesQueryOnStitchedTable) {
  // The acceptance scenario: a daemon grown by `append` verbs answers
  // byte-identically to `tabsketch query` over the stitched table —
  // including the quantized filter tier.
  const std::vector<std::string> pieces =
      GeneratePieces("cli_serve_ingest", {16, 16, 16});
  const std::string stitched_path = TempPath("cli_serve_ingest_full.tbl");
  const std::string batch_path = TempPath("cli_serve_ingest_batch.txt");
  const std::string port_path = TempPath("cli_serve_ingest.port");
  const std::string json_path = TempPath("cli_serve_ingest_metrics.json");
  std::remove(port_path.c_str());

  // Stitch via ingest --table-out (whose bytes the tests above pin), then
  // take `query` reference answers before the daemon starts (RunCli resets
  // the global metrics registry; the daemon's dump must stay its own).
  {
    const std::string pieces_flag = "--pieces=" + JoinComma(pieces);
    const std::string out_flag = "--out=" + TempPath("cli_serve_ingest.skt");
    const std::string table_out_flag = "--table-out=" + stitched_path;
    ASSERT_EQ(RunCli({"ingest", pieces_flag.c_str(), "--tile-rows=8",
                      "--tile-cols=8", out_flag.c_str(),
                      table_out_flag.c_str(), "--k=64"})
                  .code,
              0);
    std::remove(TempPath("cli_serve_ingest.skt").c_str());
  }
  const std::vector<std::string> batch_lines = {
      "distance 0 23", "knn 5 4", "distance 17 22", "knn 23 3"};
  {
    std::ofstream batch(batch_path);
    for (const std::string& line : batch_lines) batch << line << "\n";
  }
  const std::string stitched_flag = "--table=" + stitched_path;
  const std::string batch_flag = "--batch=" + batch_path;
  const CliRun reference =
      RunCli({"query", stitched_flag.c_str(), "--tile-rows=8",
              "--tile-cols=8", batch_flag.c_str(), "--k=64",
              "--quant=int8"});
  ASSERT_EQ(reference.code, 0) << reference.err;
  const std::vector<std::string> expected = SplitLines(reference.out);
  ASSERT_EQ(expected.size(), batch_lines.size());

  const std::string seed_flag = "--table=" + pieces[0];
  const std::string port_flag = "--port-file=" + port_path;
  const std::string json_flag = "--metrics-json=" + json_path;
  CliRun serve_run{-1, "", ""};
  std::thread daemon([&] {
    serve_run = RunCli({"serve", seed_flag.c_str(), "--tile-rows=8",
                        "--tile-cols=8", "--k=64", "--quant=int8",
                        "--ingest", port_flag.c_str(), json_flag.c_str()});
  });
  const uint16_t port = WaitForPortFile(port_path);
  ASSERT_NE(port, 0) << "daemon never wrote its port file";

  {
    CliServeClient client(port);
    ASSERT_TRUE(client.connected());
    client.SendLine("window");
    EXPECT_EQ(client.RecvLine(),
              "ok window tile-cols=2 start=0 pending=0 tiles=8");
    for (size_t i = 1; i < pieces.size(); ++i) {
      client.SendLine("append " + pieces[i]);
      const std::string ack = client.RecvLine();
      EXPECT_EQ(ack.find("ok append "), 0u) << ack;
    }
    // Every answer over the appended window byte-matches `query` over the
    // stitched table.
    for (size_t i = 0; i < batch_lines.size(); ++i) {
      client.SendLine(batch_lines[i]);
      EXPECT_EQ(client.RecvLine(), expected[i]) << batch_lines[i];
    }
    // reload is disabled under --ingest.
    client.SendLine("reload " + stitched_path);
    EXPECT_EQ(client.RecvLine(),
              "error failed-precondition reload disabled");
    client.SendLine("quit");
    EXPECT_EQ(client.RecvLine(), "ok bye");
  }

  raise(SIGTERM);
  daemon.join();
  EXPECT_EQ(serve_run.code, 0) << serve_run.err;
  EXPECT_NE(serve_run.err.find("2 snapshot swaps"), std::string::npos);

  // The dump carries the ingest.* schema.
  const std::string json = ReadWholeFile(json_path);
  EXPECT_GE(MetricValue(json, "ingest.appends"), 0.0);
  EXPECT_GE(MetricValue(json, "ingest.tiles.sketched"), 0.0);
  EXPECT_GE(MetricValue(json, "ingest.tiles.reused"), 0.0);
  EXPECT_GE(MetricValue(json, "ingest.window.tile_cols"), 0.0);
  EXPECT_NE(json.find("ingest.append.latency.seconds"), std::string::npos);
#if TABSKETCH_METRICS_ENABLED
  EXPECT_EQ(MetricValue(json, "ingest.appends"), 2.0);
  EXPECT_EQ(MetricValue(json, "ingest.columns.appended"), 32.0);
  EXPECT_EQ(MetricValue(json, "ingest.tiles.sketched"), 16.0);
  EXPECT_EQ(MetricValue(json, "ingest.tiles.reused"), 24.0);
  EXPECT_EQ(MetricValue(json, "serve.requests.append"), 2.0);
  EXPECT_EQ(MetricValue(json, "ingest.window.tile_cols"), 6.0);
  EXPECT_EQ(MetricValue(json, "ingest.window.pending_cols"), 0.0);
#endif

  for (const std::string& path : pieces) std::remove(path.c_str());
  for (const std::string& path :
       {stitched_path, batch_path, port_path, json_path}) {
    std::remove(path.c_str());
  }
}

TEST(CliTest, QueryRejectsBadBatchWithLineNumber) {
  const std::string table_path = TempPath("cli_query_bad_table.tbl");
  const std::string batch_path = TempPath("cli_query_bad_batch.txt");
  const std::string out_flag = "--out=" + table_path;
  ASSERT_EQ(RunCli({"generate", "--dataset=six-region", out_flag.c_str(),
                    "--rows=32", "--cols=32"})
                .code,
            0);
  {
    std::ofstream batch(batch_path);
    batch << "distance 0 1\nteleport 2 3\n";
  }
  const std::string table_flag = "--table=" + table_path;
  const std::string batch_flag = "--batch=" + batch_path;
  const CliRun run =
      RunCli({"query", table_flag.c_str(), "--tile-rows=8", "--tile-cols=8",
              batch_flag.c_str()});
  EXPECT_EQ(run.code, 1);
  EXPECT_NE(run.err.find("line 2"), std::string::npos);
  std::remove(table_path.c_str());
  std::remove(batch_path.c_str());
}

TEST(CliTest, DistanceRejectsMismatchedRectangles) {
  const std::string table_path = TempPath("cli_test_rect.tbl");
  const std::string out_flag = "--out=" + table_path;
  ASSERT_EQ(RunCli({"generate", "--dataset=six-region", out_flag.c_str(),
                 "--rows=32", "--cols=32"})
                .code,
            0);
  const std::string table_flag = "--table=" + table_path;
  const CliRun run = RunCli({"distance", table_flag.c_str(),
                          "--rect1=0,0,8,8", "--rect2=0,0,8,9"});
  EXPECT_EQ(run.code, 1);
  EXPECT_NE(run.err.find("equal dimensions"), std::string::npos);
  std::remove(table_path.c_str());
}

TEST(CliTest, DistanceRejectsEmptyRectangle) {
  // A zero-height or zero-width rectangle used to reach SketchOf's
  // non-empty CHECK and abort; it is now an argument error.
  const std::string table_path = TempPath("cli_test_empty_rect.tbl");
  const std::string out_flag = "--out=" + table_path;
  ASSERT_EQ(RunCli({"generate", "--dataset=six-region", out_flag.c_str(),
                 "--rows=32", "--cols=32"})
                .code,
            0);
  const std::string table_flag = "--table=" + table_path;
  for (const auto& [rect1, rect2] :
       {std::pair{"--rect1=0,0,0,4", "--rect2=4,4,0,4"},
        std::pair{"--rect1=0,0,4,0", "--rect2=4,4,4,0"}}) {
    const CliRun run = RunCli({"distance", table_flag.c_str(), rect1, rect2});
    EXPECT_EQ(run.code, 1) << rect1;
    EXPECT_NE(run.err.find("at least one row and one column"),
              std::string::npos)
        << rect1 << ": " << run.err;
  }
  std::remove(table_path.c_str());
}

TEST(CliTest, DistanceRejectsOutOfRangeP) {
  // --p outside (0, 2] used to reach LpDistance's precondition CHECK and
  // abort; the family is now validated first, so this is a clean error.
  const std::string table_path = TempPath("cli_test_badp.tbl");
  const std::string out_flag = "--out=" + table_path;
  ASSERT_EQ(RunCli({"generate", "--dataset=six-region", out_flag.c_str(),
                 "--rows=32", "--cols=32"})
                .code,
            0);
  const std::string table_flag = "--table=" + table_path;
  for (const char* bad_p : {"--p=0", "--p=-1", "--p=2.5"}) {
    const CliRun run = RunCli({"distance", table_flag.c_str(),
                            "--rect1=0,0,8,8", "--rect2=8,8,8,8", bad_p});
    EXPECT_EQ(run.code, 1) << bad_p;
    EXPECT_NE(run.err.find("p must be in (0, 2]"), std::string::npos)
        << bad_p << ": " << run.err;
  }
  std::remove(table_path.c_str());
}

TEST(CliTest, ClusterRejectsUnknownAlgoAndMode) {
  const std::string table_path = TempPath("cli_test_algo.tbl");
  const std::string out_flag = "--out=" + table_path;
  ASSERT_EQ(RunCli({"generate", "--dataset=six-region", out_flag.c_str(),
                 "--rows=32", "--cols=32"})
                .code,
            0);
  const std::string table_flag = "--table=" + table_path;
  EXPECT_EQ(RunCli({"cluster", table_flag.c_str(), "--tile-rows=8",
                 "--tile-cols=8", "--algo=zzz"})
                .code,
            1);
  EXPECT_EQ(RunCli({"cluster", table_flag.c_str(), "--tile-rows=8",
                 "--tile-cols=8", "--mode=zzz"})
                .code,
            1);
  std::remove(table_path.c_str());
}

TEST(CliTest, InfoMissingFileFails) {
  const CliRun run = RunCli({"info", "--table=/tmp/definitely_missing.tbl"});
  EXPECT_EQ(run.code, 1);
  EXPECT_NE(run.err.find("error"), std::string::npos);
}

// The ISSUE-3 acceptance scenario: cluster a 256x256 demo table with
// --metrics-json and validate that the dump is well-formed JSON carrying the
// documented per-stage timings and the exact-vs-sketch evaluation split.
TEST(CliMetricsTest, ClusterDumpCarriesDocumentedSchema) {
  const std::string table_path = TempPath("cli_metrics_table.tbl");
  const std::string json_path = TempPath("cli_metrics_cluster.json");
  const std::string table_flag = "--table=" + table_path;
  const std::string json_flag = "--metrics-json=" + json_path;
  {
    const std::string out_flag = "--out=" + table_path;
    ASSERT_EQ(RunCli({"generate", "--dataset=six-region", out_flag.c_str(),
                      "--rows=256", "--cols=256", "--seed=3"})
                  .code,
              0);
  }
  const CliRun run =
      RunCli({"cluster", table_flag.c_str(), "--tile-rows=8", "--tile-cols=8",
              "--algo=kmeans", "--k=6", "--sketch-k=64", json_flag.c_str()});
  ASSERT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("metrics written to"), std::string::npos);

  const std::string json = ReadWholeFile(json_path);
  ASSERT_FALSE(json.empty());
  EXPECT_TRUE(tabsketch::testing::JsonChecker::Valid(json)) << json;
  EXPECT_NE(json.find("\"schema\": \"tabsketch-metrics-v1\""),
            std::string::npos);

  // Per-stage timing keys are always present (preregistered), and the stages
  // this run exercises have recorded samples.
  for (const char* stage :
       {"span.fft.correlate.seconds", "span.pool.build.seconds",
        "span.cluster.assign.seconds"}) {
    EXPECT_NE(json.find(std::string("\"") + stage + "\""), std::string::npos)
        << "missing stage " << stage;
  }
  EXPECT_GE(MetricValue(json, "span.cluster.assign.seconds"), 0.0);

#if TABSKETCH_METRICS_ENABLED
  // Precomputed sketch mode: every distance evaluation is a sketch estimate.
  // (With the layer compiled out the dump still carries the preregistered
  // keys, but every value is zero, so only the ON build asserts counts.)
  const double sketch_evals =
      MetricValue(json, "cluster.distance_evals.sketch");
  const double exact_evals = MetricValue(json, "cluster.distance_evals.exact");
  EXPECT_GT(sketch_evals, 0.0);
  EXPECT_EQ(exact_evals, 0.0);
  EXPECT_GT(MetricValue(json, "estimator.estimate.calls"), 0.0);
  EXPECT_GT(MetricValue(json, "sketcher.sketch_of.calls"), 0.0);
  EXPECT_GT(MetricValue(json, "cluster.kmeans.iterations"), 0.0);
#endif  // TABSKETCH_METRICS_ENABLED

  std::remove(table_path.c_str());
  std::remove(json_path.c_str());
}

TEST(CliMetricsTest, ExactModeSplitsEvaluationsToExact) {
  const std::string table_path = TempPath("cli_metrics_exact.tbl");
  const std::string json_path = TempPath("cli_metrics_exact.json");
  const std::string table_flag = "--table=" + table_path;
  const std::string json_flag = "--metrics-json=" + json_path;
  {
    const std::string out_flag = "--out=" + table_path;
    ASSERT_EQ(RunCli({"generate", "--dataset=six-region", out_flag.c_str(),
                      "--rows=64", "--cols=64"})
                  .code,
              0);
  }
  const CliRun run =
      RunCli({"cluster", table_flag.c_str(), "--tile-rows=8", "--tile-cols=8",
              "--algo=kmeans", "--k=4", "--mode=exact", json_flag.c_str()});
  ASSERT_EQ(run.code, 0) << run.err;
  const std::string json = ReadWholeFile(json_path);
  EXPECT_TRUE(tabsketch::testing::JsonChecker::Valid(json)) << json;
#if TABSKETCH_METRICS_ENABLED
  EXPECT_GT(MetricValue(json, "cluster.distance_evals.exact"), 0.0);
  EXPECT_EQ(MetricValue(json, "cluster.distance_evals.sketch"), 0.0);
#endif  // TABSKETCH_METRICS_ENABLED
  std::remove(table_path.c_str());
  std::remove(json_path.c_str());
}

TEST(CliMetricsTest, PoolBuildDumpRecordsFftAndPoolStages) {
  const std::string table_path = TempPath("cli_metrics_pool.tbl");
  const std::string pool_path = TempPath("cli_metrics_pool.pool");
  const std::string json_path = TempPath("cli_metrics_pool.json");
  const std::string table_flag = "--table=" + table_path;
  const std::string json_flag = "--metrics-json=" + json_path;
  {
    const std::string out_flag = "--out=" + table_path;
    ASSERT_EQ(RunCli({"generate", "--dataset=six-region", out_flag.c_str(),
                      "--rows=64", "--cols=64"})
                  .code,
              0);
  }
  const std::string out_flag = "--out=" + pool_path;
  const CliRun run =
      RunCli({"pool-build", table_flag.c_str(), out_flag.c_str(), "--k=8",
              "--min-log2=3", "--max-log2=5", json_flag.c_str()});
  ASSERT_EQ(run.code, 0) << run.err;

  const std::string json = ReadWholeFile(json_path);
  EXPECT_TRUE(tabsketch::testing::JsonChecker::Valid(json)) << json;
#if TABSKETCH_METRICS_ENABLED
  EXPECT_EQ(MetricValue(json, "fft.plan.constructions"), 1.0);
  EXPECT_GT(MetricValue(json, "fft.correlate_pair.calls"), 0.0);
  EXPECT_EQ(MetricValue(json, "pool.build.canonical_sizes"), 9.0);
  // The overall build span and one per-canonical-size histogram.
  EXPECT_GE(MetricValue(json, "span.pool.build.seconds"), 0.0);
  EXPECT_NE(json.find("\"span.pool.build.size_8x8.seconds\""),
            std::string::npos);
  // The fft stage span recorded at least one sample.
  const size_t fft_span = json.find("\"span.fft.correlate.seconds\"");
  ASSERT_NE(fft_span, std::string::npos);
  const std::string fft_entry = json.substr(fft_span, 80);
  EXPECT_EQ(fft_entry.find("\"count\": 0,"), std::string::npos) << fft_entry;
#endif  // TABSKETCH_METRICS_ENABLED

  std::remove(table_path.c_str());
  std::remove(pool_path.c_str());
  std::remove(json_path.c_str());
}

TEST(CliMetricsTest, RepeatedRunsResetBetweenDumps) {
  const std::string table_path = TempPath("cli_metrics_reset.tbl");
  const std::string json_path = TempPath("cli_metrics_reset.json");
  const std::string table_flag = "--table=" + table_path;
  const std::string json_flag = "--metrics-json=" + json_path;
  {
    const std::string out_flag = "--out=" + table_path;
    ASSERT_EQ(RunCli({"generate", "--dataset=six-region", out_flag.c_str(),
                      "--rows=32", "--cols=32"})
                  .code,
              0);
  }
  auto sketch_calls = [&] {
    const CliRun run = RunCli({"distance", table_flag.c_str(),
                               "--rect1=0,0,8,8", "--rect2=16,16,8,8",
                               "--k=16", json_flag.c_str()});
    EXPECT_EQ(run.code, 0) << run.err;
    return MetricValue(ReadWholeFile(json_path), "sketcher.sketch_of.calls");
  };
  // Identical runs dump identical counts — the registry resets per run
  // instead of accumulating across in-process invocations. (In OFF builds
  // both runs dump zero, which still satisfies the reset invariant.)
  const double first = sketch_calls();
#if TABSKETCH_METRICS_ENABLED
  EXPECT_GT(first, 0.0);
#endif  // TABSKETCH_METRICS_ENABLED
  EXPECT_EQ(sketch_calls(), first);
  std::remove(table_path.c_str());
  std::remove(json_path.c_str());
}

/// Extracts `"inner": <number>` from inside the one-line JSON object dumped
/// for `"outer": {...}` — used to read a single histogram percentile.
/// Returns -1 when either key is absent. (Only referenced when the
/// observability layer is compiled in, hence maybe_unused.)
[[maybe_unused]] double NestedMetricValue(const std::string& json,
                                          const std::string& outer,
                                          const std::string& inner) {
  const size_t start = json.find("\"" + outer + "\": {");
  if (start == std::string::npos) return -1.0;
  const size_t end = json.find('}', start);
  const std::string needle = "\"" + inner + "\": ";
  const size_t pos = json.find(needle, start);
  if (pos == std::string::npos || pos > end) return -1.0;
  return std::strtod(json.c_str() + pos + needle.size(), nullptr);
}

/// Returns the full line of `text` containing `needle` ("" when absent).
std::string LineContaining(const std::string& text, const std::string& needle) {
  const size_t pos = text.find(needle);
  if (pos == std::string::npos) return "";
  const size_t begin = text.rfind('\n', pos);
  const size_t line_start = begin == std::string::npos ? 0 : begin + 1;
  const size_t line_end = text.find('\n', pos);
  return text.substr(line_start, line_end == std::string::npos
                                     ? std::string::npos
                                     : line_end - line_start);
}

TEST(CliTraceTest, ClusterTraceJsonIsValidChromeTrace) {
  const std::string table_path = TempPath("cli_trace_table.tbl");
  const std::string trace_path = TempPath("cli_trace_cluster.trace.json");
  const std::string table_flag = "--table=" + table_path;
  const std::string trace_flag = "--trace-json=" + trace_path;
  {
    const std::string out_flag = "--out=" + table_path;
    ASSERT_EQ(RunCli({"generate", "--dataset=six-region", out_flag.c_str(),
                      "--rows=64", "--cols=64", "--seed=3"})
                  .code,
              0);
  }
  const CliRun run =
      RunCli({"cluster", table_flag.c_str(), "--tile-rows=8", "--tile-cols=8",
              "--algo=kmeans", "--k=4", "--sketch-k=64", trace_flag.c_str()});
  ASSERT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("trace written to"), std::string::npos);

  const std::string json = ReadWholeFile(trace_path);
  ASSERT_FALSE(json.empty());
  EXPECT_TRUE(tabsketch::testing::JsonChecker::Valid(json)) << json;
  EXPECT_NE(json.find("\"schema\": \"tabsketch-trace-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped\": 0"), std::string::npos);
#if TABSKETCH_METRICS_ENABLED
  // The instrumented spans show up as complete ('X') events; with the layer
  // compiled out the file still carries valid (metadata-only) JSON.
  EXPECT_NE(json.find("\"cluster.assign\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
#endif  // TABSKETCH_METRICS_ENABLED

  std::remove(table_path.c_str());
  std::remove(trace_path.c_str());
}

// Observability must observe, not perturb: the clustering output with
// tracing and full-rate auditing enabled is byte-identical to a plain run.
TEST(CliTraceTest, ObservabilityDoesNotPerturbClusterOutput) {
  const std::string table_path = TempPath("cli_identity_table.tbl");
  const std::string plain_csv = TempPath("cli_identity_plain.csv");
  const std::string traced_csv = TempPath("cli_identity_traced.csv");
  const std::string trace_path = TempPath("cli_identity.trace.json");
  const std::string table_flag = "--table=" + table_path;
  {
    const std::string out_flag = "--out=" + table_path;
    ASSERT_EQ(RunCli({"generate", "--dataset=six-region", out_flag.c_str(),
                      "--rows=64", "--cols=64", "--seed=3"})
                  .code,
              0);
  }
  const std::string plain_out_flag = "--out=" + plain_csv;
  const CliRun plain =
      RunCli({"cluster", table_flag.c_str(), "--tile-rows=8", "--tile-cols=8",
              "--algo=kmeans", "--k=4", "--sketch-k=64", "--seed=9",
              plain_out_flag.c_str()});
  ASSERT_EQ(plain.code, 0) << plain.err;

  const std::string traced_out_flag = "--out=" + traced_csv;
  const std::string trace_flag = "--trace-json=" + trace_path;
  const CliRun traced =
      RunCli({"cluster", table_flag.c_str(), "--tile-rows=8", "--tile-cols=8",
              "--algo=kmeans", "--k=4", "--sketch-k=64", "--seed=9",
              traced_out_flag.c_str(), trace_flag.c_str(),
              "--audit-rate=1"});
  ASSERT_EQ(traced.code, 0) << traced.err;

  EXPECT_EQ(ReadWholeFile(plain_csv), ReadWholeFile(traced_csv));
  // The human-readable summary matches too (the timing line carries a
  // wall-clock figure, so compare the deterministic cluster-sizes line).
  const std::string sizes = LineContaining(plain.out, "cluster sizes:");
  ASSERT_FALSE(sizes.empty()) << plain.out;
  EXPECT_EQ(LineContaining(traced.out, "cluster sizes:"), sizes);

  std::remove(table_path.c_str());
  std::remove(plain_csv.c_str());
  std::remove(traced_csv.c_str());
  std::remove(trace_path.c_str());
}

TEST(CliSparsityTest, RejectsOutOfRangeAndGarbage) {
  // --sparsity range/parse errors fail fast and name the flag, before any
  // table IO happens (mirrors the --audit-rate contract).
  for (const char* bad : {"--sparsity=0", "--sparsity=-0.5",
                          "--sparsity=1.5"}) {
    const CliRun run = RunCli({"pool-build", "--table=/tmp/none.tbl",
                               "--out=/tmp/none.pool", bad});
    EXPECT_EQ(run.code, 1) << bad;
    EXPECT_NE(run.err.find("--sparsity"), std::string::npos)
        << bad << ": " << run.err;
  }
  const CliRun garbage = RunCli({"pool-build", "--table=/tmp/none.tbl",
                                 "--out=/tmp/none.pool", "--sparsity=abc"});
  EXPECT_EQ(garbage.code, 1);
  EXPECT_NE(garbage.err.find("sparsity"), std::string::npos) << garbage.err;
}

TEST(CliSparsityTest, ExactClusterModeRejectsSparsity) {
  const CliRun run = RunCli({"cluster", "--table=/tmp/none.tbl",
                             "--tile-rows=8", "--tile-cols=8",
                             "--mode=exact", "--sparsity=0.5"});
  EXPECT_EQ(run.code, 1);
  EXPECT_NE(run.err.find("--sparsity"), std::string::npos) << run.err;
}

TEST(CliSparsityTest, QueryRejectsSparsityAlongsideSketchesFile) {
  const CliRun run = RunCli({"query", "--table=/tmp/none.tbl",
                             "--tile-rows=8", "--tile-cols=8",
                             "--batch=/tmp/none_batch.txt",
                             "--sketches=/tmp/none.skt", "--sparsity=0.5"});
  EXPECT_EQ(run.code, 1);
  EXPECT_NE(run.err.find("--sparsity"), std::string::npos) << run.err;
}

TEST(CliSparsityTest, SparseQueryIsByteIdenticalAcrossThreadsAndCaches) {
  // The acceptance invariant for the sparse tier's query path: answers are
  // byte-identical across thread counts and cache budgets, because the
  // FFT-vs-direct choice never consults either.
  const std::string table_path = TempPath("cli_sparse_table.tbl");
  const std::string batch_path = TempPath("cli_sparse_batch.txt");
  const std::string table_flag = "--table=" + table_path;
  const std::string batch_flag = "--batch=" + batch_path;
  {
    const std::string out_flag = "--out=" + table_path;
    ASSERT_EQ(RunCli({"generate", "--dataset=six-region", out_flag.c_str(),
                      "--rows=64", "--cols=64", "--seed=5"})
                  .code,
              0);
  }
  {
    std::ofstream batch(batch_path);
    batch << "distance 0 63\n"
          << "knn 5 4\n"
          << "distance 17 42\n";
  }
  const CliRun baseline =
      RunCli({"query", table_flag.c_str(), "--tile-rows=8", "--tile-cols=8",
              batch_flag.c_str(), "--p=1", "--k=64", "--sparsity=0.1",
              "--threads=1"});
  ASSERT_EQ(baseline.code, 0) << baseline.err;
  for (const char* extra : {"--threads=4", "--cache-bytes=1",
                            "--cache-bytes=1000000"}) {
    const CliRun run =
        RunCli({"query", table_flag.c_str(), "--tile-rows=8", "--tile-cols=8",
                batch_flag.c_str(), "--p=1", "--k=64", "--sparsity=0.1",
                extra});
    ASSERT_EQ(run.code, 0) << run.err;
    EXPECT_EQ(run.out, baseline.out) << extra;
  }
  // A different sparsity is a different family: answers must change.
  const CliRun dense =
      RunCli({"query", table_flag.c_str(), "--tile-rows=8", "--tile-cols=8",
              batch_flag.c_str(), "--p=1", "--k=64", "--threads=1"});
  ASSERT_EQ(dense.code, 0) << dense.err;
  EXPECT_NE(dense.out, baseline.out);
  std::remove(table_path.c_str());
  std::remove(batch_path.c_str());
}

TEST(CliAuditTest, RejectsOutOfRangeRate) {
  const CliRun run = RunCli({"cluster", "--table=/tmp/none.tbl",
                             "--tile-rows=8", "--tile-cols=8",
                             "--audit-rate=1.5"});
  EXPECT_EQ(run.code, 1);
  EXPECT_NE(run.err.find("--audit-rate"), std::string::npos) << run.err;
}

// The ISSUE-4 acceptance scenario: a full-rate audit of a 64-sketch p = 1
// run dumps a relative-error histogram whose median sits inside the
// Theorem 1-2 envelope eps = C(p)/sqrt(k) = 4/sqrt(64) = 0.5.
TEST(CliAuditTest, RateOneDumpReportsEnvelopeConsistentErrors) {
  const std::string table_path = TempPath("cli_audit_table.tbl");
  const std::string json_path = TempPath("cli_audit_metrics.json");
  const std::string table_flag = "--table=" + table_path;
  const std::string json_flag = "--metrics-json=" + json_path;
  {
    const std::string out_flag = "--out=" + table_path;
    ASSERT_EQ(RunCli({"generate", "--dataset=six-region", out_flag.c_str(),
                      "--rows=128", "--cols=128", "--seed=3"})
                  .code,
              0);
  }
  const CliRun run =
      RunCli({"cluster", table_flag.c_str(), "--tile-rows=8", "--tile-cols=8",
              "--algo=kmeans", "--k=4", "--sketch-k=64", "--p=1",
              "--audit-rate=1", json_flag.c_str()});
  ASSERT_EQ(run.code, 0) << run.err;

  const std::string json = ReadWholeFile(json_path);
  EXPECT_TRUE(tabsketch::testing::JsonChecker::Valid(json)) << json;
#if TABSKETCH_METRICS_ENABLED
  // End-of-run summary line on stdout.
  EXPECT_NE(run.out.find("audit p=1 k=64:"), std::string::npos) << run.out;
  const double samples = MetricValue(json, "audit.samples");
  EXPECT_GT(samples, 0.0);
  const double p50 = NestedMetricValue(json, "audit.relerr.p1", "p50");
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, 0.5);
  // Violations of the eps bound are the tail, never the bulk.
  const double violations = MetricValue(json, "audit.violations");
  EXPECT_GE(violations, 0.0);
  EXPECT_LT(violations, samples / 2.0);
#else
  // With the layer compiled out the flag parses but the auditor is inert.
  EXPECT_EQ(run.out.find("audit p="), std::string::npos) << run.out;
#endif  // TABSKETCH_METRICS_ENABLED

  std::remove(table_path.c_str());
  std::remove(json_path.c_str());
}

/// Runs `argv` once with each bad sketch size for `flag` appended and
/// expects a clean argument error naming the flag. The size is read before
/// any file is opened, so the paths in `argv` need not exist.
/// Appends --flag=value for each value and expects exit 1 with an
/// InvalidArgument that names the flag, what it counts and its minimum.
void ExpectSizeFlagRejected(const std::vector<const char*>& argv,
                            const std::string& flag,
                            const std::string& meaning, int64_t minimum,
                            const std::vector<std::string>& values) {
  for (const std::string& value : values) {
    const std::string bad = "--" + flag + "=" + value;
    std::vector<const char*> args = argv;
    args.push_back(bad.c_str());
    const CliRun run = RunCli(args);
    EXPECT_EQ(run.code, 1) << argv[0] << " " << bad;
    EXPECT_NE(run.err.find("InvalidArgument: --" + flag + " (" + meaning +
                           ") must be at least " + std::to_string(minimum) +
                           ", got " + value),
              std::string::npos)
        << argv[0] << " " << bad << ": " << run.err;
  }
}

void ExpectSketchSizeRejected(std::vector<const char*> argv,
                              const std::string& flag) {
  ExpectSizeFlagRejected(argv, flag, "the sketch size", 1, {"-1", "-3", "0"});
}

/// Every value below `minimum`, down to negatives that would wrap to a huge
/// size_t if cast unchecked.
void ExpectBelowMinimumRejected(const std::vector<const char*>& argv,
                                const std::string& flag,
                                const std::string& meaning, int64_t minimum) {
  ExpectSizeFlagRejected(argv, flag, meaning, minimum,
                         {std::to_string(minimum - 1), "-2", "-8"});
}

TEST(CliSketchSizeTest, SketchRejectsNonPositiveK) {
  ExpectSketchSizeRejected({"sketch", "--table=/tmp/none.tbl",
                            "--out=/tmp/none.skt", "--tile-rows=8",
                            "--tile-cols=8"},
                           "k");
}

TEST(CliSketchSizeTest, DistanceRejectsNonPositiveK) {
  ExpectSketchSizeRejected({"distance", "--table=/tmp/none.tbl",
                            "--rect1=0,0,4,4", "--rect2=4,4,4,4"},
                           "k");
}

TEST(CliSketchSizeTest, ClusterRejectsNonPositiveSketchK) {
  ExpectSketchSizeRejected({"cluster", "--table=/tmp/none.tbl",
                            "--tile-rows=8", "--tile-cols=8", "--k=3"},
                           "sketch-k");
}

TEST(CliSketchSizeTest, PoolBuildRejectsNonPositiveK) {
  ExpectSketchSizeRejected(
      {"pool-build", "--table=/tmp/none.tbl", "--out=/tmp/none.pool"}, "k");
}

TEST(CliSketchSizeTest, QueryRejectsNonPositiveK) {
  ExpectSketchSizeRejected({"query", "--table=/tmp/none.tbl",
                            "--tile-rows=8", "--tile-cols=8",
                            "--batch=/tmp/none_batch.txt"},
                           "k");
}

TEST(CliSketchSizeTest, ServeRejectsNonPositiveK) {
  ExpectSketchSizeRejected({"serve", "--table=/tmp/none.tbl",
                            "--tile-rows=8", "--tile-cols=8"},
                           "k");
}

TEST(CliSketchSizeTest, IngestRejectsNonPositiveK) {
  ExpectSketchSizeRejected({"ingest", "--pieces=/tmp/none.tbl",
                            "--tile-rows=8", "--tile-cols=8",
                            "--out=/tmp/none.skt"},
                           "k");
}

TEST(CliSizeFlagTest, GenerateRejectsNegativeSizes) {
  ExpectBelowMinimumRejected({"generate", "--dataset=six-region",
                              "--out=/tmp/none.tbl"},
                             "rows", "the row count", 1);
  ExpectBelowMinimumRejected({"generate", "--dataset=six-region",
                              "--out=/tmp/none.tbl"},
                             "cols", "the column count", 1);
  ExpectBelowMinimumRejected({"generate", "--dataset=call-volume",
                              "--out=/tmp/none.tbl"},
                             "rows", "the station count", 1);
  ExpectBelowMinimumRejected({"generate", "--dataset=call-volume",
                              "--out=/tmp/none.tbl"},
                             "days", "the day count", 1);
  ExpectBelowMinimumRejected({"generate", "--dataset=ip-traffic",
                              "--out=/tmp/none.tbl"},
                             "rows", "the host count", 1);
  ExpectBelowMinimumRejected({"generate", "--dataset=ip-traffic",
                              "--out=/tmp/none.tbl"},
                             "cols", "the bin count", 1);
}

TEST(CliSizeFlagTest, TileSizesRejectNegatives) {
  // 0 leaves the tile shape to the grid (or the sketch file), which reports
  // it; a negative must fail before it wraps to a huge size_t.
  ExpectBelowMinimumRejected({"sketch", "--table=/tmp/none.tbl",
                              "--out=/tmp/none.skt", "--tile-cols=8"},
                             "tile-rows", "the tile height", 0);
  ExpectBelowMinimumRejected({"ingest", "--pieces=/tmp/none.tbl",
                              "--tile-rows=8", "--out=/tmp/none.skt"},
                             "tile-cols", "the tile width", 0);
  ExpectBelowMinimumRejected({"cluster", "--table=/tmp/none.tbl",
                              "--tile-rows=8"},
                             "tile-cols", "the tile width", 0);
  ExpectBelowMinimumRejected({"query", "--table=/tmp/none.tbl",
                              "--tile-cols=8", "--batch=/tmp/none.txt"},
                             "tile-rows", "the tile height", 0);
  ExpectBelowMinimumRejected({"serve", "--table=/tmp/none.tbl",
                              "--tile-rows=8"},
                             "tile-cols", "the tile width", 0);
}

TEST(CliSizeFlagTest, ClusterRejectsBadCounts) {
  const std::vector<const char*> cluster = {
      "cluster", "--table=/tmp/none.tbl", "--tile-rows=8", "--tile-cols=8"};
  ExpectBelowMinimumRejected(cluster, "k", "the cluster count", 1);
  std::vector<const char*> dbscan = cluster;
  dbscan.push_back("--algo=dbscan");
  ExpectBelowMinimumRejected(dbscan, "min-points",
                             "the DBSCAN core threshold", 1);
  ExpectBelowMinimumRejected(cluster, "cache-bytes",
                             "the sketch-cache budget, 0 = keep all", 0);
}

TEST(CliSizeFlagTest, PoolBuildRejectsNegativeLog2) {
  const std::vector<const char*> pool_build = {
      "pool-build", "--table=/tmp/none.tbl", "--out=/tmp/none.pool"};
  ExpectBelowMinimumRejected(pool_build, "min-log2",
                             "the smallest canonical log2 size", 0);
  ExpectBelowMinimumRejected(pool_build, "max-log2",
                             "the largest canonical log2 size", 0);
}

TEST(CliSizeFlagTest, ServingRejectsNegativeBudgets) {
  const std::vector<const char*> query = {
      "query", "--table=/tmp/none.tbl", "--tile-rows=8", "--tile-cols=8",
      "--batch=/tmp/none.txt"};
  const std::vector<const char*> serve = {
      "serve", "--table=/tmp/none.tbl", "--tile-rows=8", "--tile-cols=8"};
  for (const auto& argv : {query, serve}) {
    ExpectBelowMinimumRejected(argv, "cache-bytes",
                               "the sketch-cache budget, 0 = keep all", 0);
    ExpectBelowMinimumRejected(argv, "candidates",
                               "the refine set, 0 = auto", 0);
  }
  ExpectBelowMinimumRejected({"ingest", "--pieces=/tmp/none.tbl",
                              "--tile-rows=8", "--tile-cols=8",
                              "--out=/tmp/none.skt"},
                             "window", "tile columns kept, 0 = unbounded", 0);
}

TEST(CliTest, InfoOnEmptyTablePrintsShape) {
  // A 0-row table is a valid TSKT file: info reports its shape and has no
  // values to summarize.
  const std::string path = TempPath("tabsketch_cli_empty.tbl");
  ASSERT_TRUE(table::WriteBinary(table::Matrix(0, 5), path).ok());
  const CliRun run = RunCli({"info", ("--table=" + path).c_str()});
  EXPECT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find(": 0x5 (0 bytes)"), std::string::npos) << run.out;
  EXPECT_NE(run.out.find("empty"), std::string::npos) << run.out;
  EXPECT_EQ(run.out.find("min "), std::string::npos) << run.out;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tabsketch::cli
