// DPF_NET / DPF_NET_BACKEND / DPF_NET_PROCS / DPF_NET_SHM_RING environment
// handling: a set-but-invalid value must not silently run the default — it
// warns once on stderr (the DPF_SIMD / DPF_WORKERS idiom) and then falls
// back. Numeric knobs distinguish two invalid cases: a number out of range
// is *clamped* to the nearest bound (the caller's direction is clear),
// while unparsable garbage is ignored in favor of the default. Recognized
// values, explicit defaults, and unset variables stay silent.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>

#include "net/net.hpp"
#include "net/proc.hpp"
#include "net/shm_transport.hpp"

namespace dpf {
namespace {

class NetModeWarningTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* cur = std::getenv("DPF_NET");
    had_ = cur != nullptr;
    if (had_) saved_ = cur;
  }
  void TearDown() override {
    if (had_) {
      setenv("DPF_NET", saved_.c_str(), 1);
    } else {
      unsetenv("DPF_NET");
    }
  }

 private:
  bool had_ = false;
  std::string saved_;
};

TEST_F(NetModeWarningTest, ValidValuesAndUnsetStaySilent) {
  testing::internal::CaptureStderr();
  unsetenv("DPF_NET");
  EXPECT_EQ(net::Mode::Direct, net::mode());
  setenv("DPF_NET", "direct", 1);  // explicit default: accepted, no warning
  EXPECT_EQ(net::Mode::Direct, net::mode());
  setenv("DPF_NET", "algorithmic", 1);
  EXPECT_EQ(net::Mode::Algorithmic, net::mode());
  setenv("DPF_NET", "overlap", 1);
  EXPECT_EQ(net::Mode::Overlap, net::mode());
  setenv("DPF_NET", "", 1);  // empty string counts as unset
  EXPECT_EQ(net::Mode::Direct, net::mode());
  EXPECT_EQ("", testing::internal::GetCapturedStderr());
}

TEST_F(NetModeWarningTest, UnrecognizedValueWarnsOnceAndFallsBackToDirect) {
  setenv("DPF_NET", "overlop", 1);
  testing::internal::CaptureStderr();
  EXPECT_EQ(net::Mode::Direct, net::mode());
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(std::string::npos, err.find("ignoring DPF_NET=\"overlop\""))
      << "stderr was: " << err;
  EXPECT_NE(std::string::npos, err.find("direct|algorithmic|overlap"))
      << "stderr was: " << err;

  // One-shot: a second probe (even with a different bad value) is silent.
  setenv("DPF_NET", "fnord", 1);
  testing::internal::CaptureStderr();
  EXPECT_EQ(net::Mode::Direct, net::mode());
  EXPECT_EQ("", testing::internal::GetCapturedStderr());
}

// --- DPF_NET_BACKEND: same loud-once policy for the transport selector ----

class NetBackendWarningTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* cur = std::getenv("DPF_NET_BACKEND");
    had_ = cur != nullptr;
    if (had_) saved_ = cur;
  }
  void TearDown() override {
    if (had_) {
      setenv("DPF_NET_BACKEND", saved_.c_str(), 1);
    } else {
      unsetenv("DPF_NET_BACKEND");
    }
  }

 private:
  bool had_ = false;
  std::string saved_;
};

TEST_F(NetBackendWarningTest, ValidValuesAndUnsetStaySilent) {
  testing::internal::CaptureStderr();
  unsetenv("DPF_NET_BACKEND");
  EXPECT_EQ(net::Backend::Local, net::backend());
  setenv("DPF_NET_BACKEND", "local", 1);  // explicit default: silent
  EXPECT_EQ(net::Backend::Local, net::backend());
  setenv("DPF_NET_BACKEND", "shm", 1);
  EXPECT_EQ(net::Backend::Shm, net::backend());
  setenv("DPF_NET_BACKEND", "", 1);  // empty string counts as unset
  EXPECT_EQ(net::Backend::Local, net::backend());
  EXPECT_EQ("", testing::internal::GetCapturedStderr());
}

TEST_F(NetBackendWarningTest, UnrecognizedValueWarnsOnceAndFallsBackToLocal) {
  setenv("DPF_NET_BACKEND", "shared", 1);
  testing::internal::CaptureStderr();
  EXPECT_EQ(net::Backend::Local, net::backend());
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(std::string::npos, err.find("ignoring DPF_NET_BACKEND=\"shared\""))
      << "stderr was: " << err;
  EXPECT_NE(std::string::npos, err.find("local|shm")) << "stderr was: " << err;

  // One-shot: a second probe (even with a different bad value) is silent.
  setenv("DPF_NET_BACKEND", "mpi", 1);
  testing::internal::CaptureStderr();
  EXPECT_EQ(net::Backend::Local, net::backend());
  EXPECT_EQ("", testing::internal::GetCapturedStderr());
}

TEST_F(NetBackendWarningTest, BackendNamesRoundTrip) {
  EXPECT_STREQ("local", net::backend_name(net::Backend::Local));
  EXPECT_STREQ("shm", net::backend_name(net::Backend::Shm));
}

// --- DPF_NET_PROCS: clamp numeric out-of-range, ignore garbage ------------

class EnvVarFixture : public ::testing::Test {
 protected:
  explicit EnvVarFixture(const char* var) : var_(var) {}
  void SetUp() override {
    const char* cur = std::getenv(var_);
    had_ = cur != nullptr;
    if (had_) saved_ = cur;
  }
  void TearDown() override {
    if (had_) {
      setenv(var_, saved_.c_str(), 1);
    } else {
      unsetenv(var_);
    }
  }
  const char* var_;

 private:
  bool had_ = false;
  std::string saved_;
};

class NetProcsEnvTest : public EnvVarFixture {
 protected:
  NetProcsEnvTest() : EnvVarFixture("DPF_NET_PROCS") {}
};

TEST_F(NetProcsEnvTest, ValidValuesAndUnsetStaySilent) {
  testing::internal::CaptureStderr();
  unsetenv(var_);
  EXPECT_EQ(2, net::proc::env_procs(8));  // default: min(2, cap)
  setenv(var_, "", 1);
  EXPECT_EQ(2, net::proc::env_procs(8));  // empty counts as unset
  setenv(var_, "0", 1);
  EXPECT_EQ(0, net::proc::env_procs(8));  // 0 = self-delivery, valid
  setenv(var_, "3", 1);
  EXPECT_EQ(3, net::proc::env_procs(8));
  setenv(var_, "64", 1);
  EXPECT_EQ(8, net::proc::env_procs(8));  // silently capped to p
  EXPECT_EQ("", testing::internal::GetCapturedStderr());
}

TEST_F(NetProcsEnvTest, OutOfRangeClampsWithOneShotWarning) {
  setenv(var_, "-3", 1);
  testing::internal::CaptureStderr();
  EXPECT_EQ(0, net::proc::env_procs(8));  // clamped toward the bound
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(std::string::npos, err.find("clamping DPF_NET_PROCS=\"-3\""))
      << "stderr was: " << err;
  EXPECT_NE(std::string::npos, err.find("[0, 64]")) << "stderr was: " << err;

  // One-shot, and the clamp itself persists for later reads.
  setenv(var_, "100", 1);
  testing::internal::CaptureStderr();
  EXPECT_EQ(8, net::proc::env_procs(8));  // 100 -> 64 -> capped to p
  EXPECT_EQ("", testing::internal::GetCapturedStderr());
}

TEST_F(NetProcsEnvTest, GarbageIgnoredWithOneShotWarning) {
  setenv(var_, "many", 1);
  testing::internal::CaptureStderr();
  EXPECT_EQ(2, net::proc::env_procs(8));  // falls back to the default
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(std::string::npos, err.find("ignoring DPF_NET_PROCS=\"many\""))
      << "stderr was: " << err;

  setenv(var_, "12abc", 1);  // trailing junk is garbage, not a number
  testing::internal::CaptureStderr();
  EXPECT_EQ(2, net::proc::env_procs(8));
  EXPECT_EQ("", testing::internal::GetCapturedStderr());
}

// --- DPF_NET_SHM_RING: same policy for the per-pair ring size -------------

class NetShmRingEnvTest : public EnvVarFixture {
 protected:
  NetShmRingEnvTest() : EnvVarFixture("DPF_NET_SHM_RING") {}
  static constexpr std::uint64_t kDefault = 4u << 20;
  static constexpr std::uint64_t kMin = 4096;
  static constexpr std::uint64_t kMax = 64u << 20;
};

TEST_F(NetShmRingEnvTest, ValidValuesAndUnsetStaySilent) {
  testing::internal::CaptureStderr();
  unsetenv(var_);
  EXPECT_EQ(kDefault, net::env_ring_bytes(2));
  setenv(var_, "8192", 1);
  EXPECT_EQ(8192u, net::env_ring_bytes(2));
  setenv(var_, "5000", 1);
  EXPECT_EQ(8192u, net::env_ring_bytes(2));  // rounded up to a power of two
  // The p^2 budget halving is not an env error and stays silent: at 1024
  // endpoints even the default ring exceeds the 2 GiB budget and shrinks
  // to the floor.
  unsetenv(var_);
  EXPECT_EQ(kMin, net::env_ring_bytes(1024));
  EXPECT_EQ("", testing::internal::GetCapturedStderr());
}

TEST_F(NetShmRingEnvTest, OutOfRangeClampsWithOneShotWarning) {
  setenv(var_, "1", 1);
  testing::internal::CaptureStderr();
  EXPECT_EQ(kMin, net::env_ring_bytes(2));
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(std::string::npos, err.find("clamping DPF_NET_SHM_RING=\"1\""))
      << "stderr was: " << err;

  // One-shot; a negative value clamps to the floor (strtoull would have
  // wrapped it around to a huge number), an over-max to the ceiling.
  setenv(var_, "-4096", 1);
  testing::internal::CaptureStderr();
  EXPECT_EQ(kMin, net::env_ring_bytes(2));
  setenv(var_, "999999999999", 1);
  EXPECT_EQ(kMax, net::env_ring_bytes(2));
  EXPECT_EQ("", testing::internal::GetCapturedStderr());
}

TEST_F(NetShmRingEnvTest, GarbageIgnoredWithOneShotWarning) {
  setenv(var_, "lots", 1);
  testing::internal::CaptureStderr();
  EXPECT_EQ(kDefault, net::env_ring_bytes(2));
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(std::string::npos, err.find("ignoring DPF_NET_SHM_RING=\"lots\""))
      << "stderr was: " << err;

  setenv(var_, "4096KB", 1);
  testing::internal::CaptureStderr();
  EXPECT_EQ(kDefault, net::env_ring_bytes(2));
  EXPECT_EQ("", testing::internal::GetCapturedStderr());
}

}  // namespace
}  // namespace dpf
