// Warm-process bit identity: benchmarks run back to back in one process,
// under each DPF_NET mode, must reproduce the check bits of a fresh one-shot
// `dpfrun run <bench> --checks-hex` process of the same configuration.
// perfbench's pass runner relies on the same property: it runs many passes
// in one process and compares every pass against reference bits. The
// fresh-process reference needs DPF_DPFRUN_BIN (tests/CMakeLists.txt); the
// test GTEST_SKIPs without it.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "core/machine.hpp"
#include "core/registry.hpp"
#include "suite/register_all.hpp"

namespace dpf {
namespace {

/// The raw IEEE-754 bit pattern of `v` as 16 hex digits, the format of
/// dpfrun's checks-hex section.
std::string bits_hex(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(bits));
  return buf;
}

/// Runs `dpfrun run <bench> --checks-hex` in a fresh process under the
/// given DPF_NET mode and returns the check name -> IEEE-754 hex map.
std::map<std::string, std::string> fresh_process_checks(
    const std::string& dpfrun, const std::string& mode,
    const std::string& bench, const std::string& args) {
  const std::string cmd = "DPF_NET=" + mode + " \"" + dpfrun + "\" run " +
                          bench + " " + args + " --checks-hex 2>/dev/null";
  std::map<std::string, std::string> out;
  std::FILE* p = ::popen(cmd.c_str(), "r");
  if (p == nullptr) return out;
  char line[512];
  bool in_hex = false;
  while (std::fgets(line, sizeof line, p) != nullptr) {
    std::string s(line);
    if (s.find("checks-hex:") != std::string::npos) {
      in_hex = true;
      continue;
    }
    if (!in_hex) continue;
    char name[256], hex[64];
    if (std::sscanf(s.c_str(), " %255s %63s", name, hex) != 2) {
      break;  // blank line ends the checks-hex section
    }
    out[name] = hex;
  }
  ::pclose(p);
  return out;
}

/// Sets DPF_NET for one scope and restores the caller's value after.
class NetModeEnv {
 public:
  explicit NetModeEnv(const std::string& mode) {
    const char* cur = std::getenv("DPF_NET");
    had_ = cur != nullptr;
    if (had_) saved_ = cur;
    setenv("DPF_NET", mode.c_str(), 1);
  }
  ~NetModeEnv() {
    if (had_) {
      setenv("DPF_NET", saved_.c_str(), 1);
    } else {
      unsetenv("DPF_NET");
    }
  }
  NetModeEnv(const NetModeEnv&) = delete;
  NetModeEnv& operator=(const NetModeEnv&) = delete;

 private:
  bool had_ = false;
  std::string saved_;
};

TEST(WarmProcess, BackToBackRunsMatchFreshProcessesInAllNetModes) {
  const char* dpfrun = std::getenv("DPF_DPFRUN_BIN");
  if (dpfrun == nullptr || *dpfrun == '\0') {
    GTEST_SKIP() << "DPF_DPFRUN_BIN not set (run under ctest)";
  }
  register_all_benchmarks();
  // A fresh dpfrun runs at the default VP count.
  const int vps_before = Machine::instance().vps();
  Machine::instance().configure(Machine::default_vps());

  struct Case {
    const char* bench;
    const char* args;
    std::map<std::string, index_t> params;
  };
  const std::vector<Case> cases = {
      {"reduction", "--set n=4096", {{"n", 4096}}},
      {"fft", "--set n=256", {{"n", 256}}},
  };
  // One process runs every (mode x benchmark) back to back on the same
  // Machine; each result must be bit-identical to a fresh one-shot process
  // run of the same configuration.
  for (const std::string mode : {"direct", "algorithmic", "overlap"}) {
    const NetModeEnv env(mode);
    for (const Case& c : cases) {
      const auto* def = Registry::instance().find(c.bench);
      ASSERT_NE(nullptr, def);
      RunConfig cfg;
      cfg.params = c.params;
      const auto warm = def->run_with_defaults(cfg);

      const auto reference =
          fresh_process_checks(dpfrun, mode, c.bench, c.args);
      ASSERT_FALSE(reference.empty()) << c.bench << " under " << mode;
      ASSERT_EQ(reference.size(), warm.checks.size());
      for (const auto& [name, value] : warm.checks) {
        ASSERT_TRUE(reference.count(name)) << name;
        EXPECT_EQ(reference.at(name), bits_hex(value))
            << c.bench << " check " << name << " under " << mode
            << ": warm-process result differs from a fresh process";
      }
    }
  }
  Machine::instance().configure(vps_before);
}

}  // namespace
}  // namespace dpf
