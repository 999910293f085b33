// tools/perf_gate.py edge cases (malformed input, missing keys, sub-floor
// --update, healthy compare), driven through real subprocesses.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace dpf {
namespace {

std::string temp_dir(const char* tag) {
  std::string tmpl = ::testing::TempDir() + std::string(tag) + "XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  const char* got = ::mkdtemp(buf.data());
  return got != nullptr ? std::string(got) : std::string();
}

class PerfGateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (run("python3 -c 'pass' >/dev/null 2>&1") != 0) {
      GTEST_SKIP() << "python3 not available";
    }
    dir_ = temp_dir("perfgate");
    ASSERT_FALSE(dir_.empty());
  }

  static int run(const std::string& cmd) {
    const int rc = std::system(cmd.c_str());
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  }

  int gate(const std::string& args) {
    return run(std::string("python3 ") + DPF_PERF_GATE_PY + " " + args +
               " >" + dir_ + "/out.txt 2>&1");
  }

  std::string output() const {
    std::ifstream in(dir_ + "/out.txt");
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }

  std::string write(const char* name, const std::string& text) const {
    const std::string path = dir_ + "/" + name;
    std::ofstream out(path);
    out << text;
    return path;
  }

  /// A well-formed perf JSON with all seven gated benchmarks at `elapsed`.
  static std::string perf_json(double elapsed) {
    std::ostringstream os;
    os << "{\"schema_version\": 2, \"machine\": {\"vps\": 16, "
          "\"peak_mflops\": 1000.0, \"simd\": true, "
          "\"net_mode\": \"direct\"},\n \"benchmarks\": [\n";
    const char* gated[] = {"gauss-jordan", "jacobi",  "transpose", "fem-3D",
                           "diff-2D",      "diff-3D", "ellip-2D"};
    for (std::size_t i = 0; i < 7; ++i) {
      os << "  {\"name\": \"" << gated[i] << "\", \"elapsed_s\": " << elapsed
         << "}" << (i + 1 < 7 ? "," : "") << "\n";
    }
    os << "]}\n";
    return os.str();
  }

  std::string dir_;
};

TEST_F(PerfGateTest, MissingFileExitsTwoWithDiagnostic) {
  EXPECT_EQ(2, gate("--current " + dir_ + "/nope.json"));
  EXPECT_NE(std::string::npos, output().find("perf_gate:")) << output();
  EXPECT_EQ(std::string::npos, output().find("Traceback")) << output();
}

TEST_F(PerfGateTest, InvalidJsonExitsTwoWithDiagnostic) {
  const std::string cur = write("bad.json", "{not json");
  EXPECT_EQ(2, gate("--current " + cur));
  EXPECT_NE(std::string::npos, output().find("not valid JSON")) << output();
  EXPECT_EQ(std::string::npos, output().find("Traceback")) << output();
}

TEST_F(PerfGateTest, MissingMachineKeyExitsTwoNotKeyError) {
  const std::string cur =
      write("nomachine.json",
            "{\"benchmarks\": [{\"name\": \"jacobi\", \"elapsed_s\": 0.1}]}");
  EXPECT_EQ(2, gate("--current " + cur));
  EXPECT_NE(std::string::npos, output().find("machine")) << output();
  EXPECT_EQ(std::string::npos, output().find("Traceback")) << output();
}

TEST_F(PerfGateTest, MissingPeakMflopsExitsTwoNotKeyError) {
  const std::string cur = write(
      "nopeak.json",
      "{\"machine\": {\"vps\": 16, \"simd\": true}, \"benchmarks\": []}");
  EXPECT_EQ(2, gate("--current " + cur));
  EXPECT_NE(std::string::npos, output().find("peak_mflops")) << output();
  EXPECT_EQ(std::string::npos, output().find("Traceback")) << output();
}

TEST_F(PerfGateTest, SubFloorUpdateRefusedUnlessForced) {
  // 0.1 ms elapsed: under the 1 ms jitter floor for every gated entry.
  const std::string cur = write("subfloor.json", perf_json(1e-4));
  const std::string baseline = dir_ + "/baseline.json";
  EXPECT_EQ(2, gate("--current " + cur + " --baseline " + baseline +
                    " --update"));
  EXPECT_NE(std::string::npos, output().find("sub-floor")) << output();
  EXPECT_FALSE(static_cast<bool>(std::ifstream(baseline)))
      << "refused update must not write the baseline";

  EXPECT_EQ(0, gate("--current " + cur + " --baseline " + baseline +
                    " --update --allow-sub-floor"));
  EXPECT_NE(std::string::npos, output().find("Updating anyway")) << output();
  EXPECT_TRUE(static_cast<bool>(std::ifstream(baseline)));
}

TEST_F(PerfGateTest, HealthyCompareAndOnlySubsetPass) {
  const std::string base = write("base.json", perf_json(0.01));
  // 10% slower: inside the 15% bound -> pass (exit 0).
  const std::string cur = write("cur.json", perf_json(0.011));
  EXPECT_EQ(0, gate("--current " + cur + " --baseline " + base));
  // 30% slower: fails the full gate (exit 1)...
  const std::string slow = write("slow.json", perf_json(0.013));
  EXPECT_EQ(1, gate("--current " + slow + " --baseline " + base));
  // ...and --only with an unknown name is a usage error (exit 2).
  EXPECT_EQ(2, gate("--current " + slow + " --baseline " + base +
                    " --only no-such-bench"));
}

}  // namespace
}  // namespace dpf
