// The pfact_soak exit-code contract, pinned end to end: one full rotation
// of any mode's shapes exits 0, ANY violation — including a fabricated one
// through the --inject-violation seam — exits 1 AND prints the campaign
// seed, so a red CI run is always replayable from its last output line, and
// bad usage exits 2 before a single campaign runs. The binary is exercised
// as a subprocess (not a linked library) because the exit status IS the
// contract: CI gates on it.

#include <gtest/gtest.h>
#include <unistd.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <ostream>
#include <string>

namespace {

namespace fs = std::filesystem;

struct SoakResult {
  int exit_code = -1;
  std::string output;
};

SoakResult run_soak(const std::string& args) {
  const fs::path log = fs::path(testing::TempDir()) /
                       ("pfact_soak_cli_" + std::to_string(::getpid()) +
                        ".txt");
  const std::string cmd = std::string(PFACT_SOAK_BIN) + " --log " +
                          log.string() + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << "popen failed for: " << cmd;
  SoakResult res;
  if (pipe == nullptr) return res;
  std::array<char, 4096> buf;
  while (std::fgets(buf.data(), buf.size(), pipe) != nullptr) {
    res.output += buf.data();
  }
  const int status = pclose(pipe);
  res.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return res;
}

struct SoakMode {
  const char* name;
  const char* flag;
  // Campaigns in one rotation of the mode's shapes: every shape runs once
  // and the coverage contracts are checked.
  int rotation;
};

void PrintTo(const SoakMode& m, std::ostream* os) { *os << m.name; }

class SoakModeTest : public testing::TestWithParam<SoakMode> {};

TEST_P(SoakModeTest, CleanRotationExitsZero) {
  const SoakMode& m = GetParam();
  const SoakResult res = run_soak(std::string(m.flag) + " --campaigns " +
                                  std::to_string(m.rotation) + " --seed 5");
  EXPECT_EQ(res.exit_code, 0) << res.output;
  EXPECT_NE(res.output.find("held the contract"), std::string::npos)
      << res.output;
}

// Every mode shares the runner's abort path, and any mode silently
// returning 0 on a violation would let a red soak pass CI.
TEST_P(SoakModeTest, InjectedViolationFailsWithSeed) {
  const SoakResult res = run_soak(std::string(GetParam().flag) +
                                  " --campaigns 3 --seed 77 "
                                  "--inject-violation 1");
  EXPECT_EQ(res.exit_code, 1) << res.output;
  EXPECT_NE(res.output.find("FAILED"), std::string::npos) << res.output;
  EXPECT_NE(res.output.find("seed=77"), std::string::npos)
      << "a failing soak must print its seed for replay:\n" << res.output;
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, SoakModeTest,
    testing::Values(SoakMode{"Default", "", 5},
                    SoakMode{"KillOnly", "--kill-only", 5},
                    SoakMode{"Serve", "--serve", 7},
                    SoakMode{"Net", "--net", 7},
                    SoakMode{"Shard", "--shard", 6}),
    [](const testing::TestParamInfo<SoakMode>& info) {
      return std::string(info.param.name);
    });

// Bad usage must exit 2 with usage and run nothing. The trailing
// --inject-violation 0 makes a parser that wrongly accepts `args` fail fast
// with exit 1 instead of soaking for hours.
void expect_usage(const std::string& args) {
  const SoakResult res = run_soak(args + " --inject-violation 0");
  EXPECT_EQ(res.exit_code, 2) << args << "\n" << res.output;
  EXPECT_NE(res.output.find("usage:"), std::string::npos) << res.output;
}

TEST(SoakCli, UnknownFlagExitsTwoWithUsage) {
  const SoakResult res = run_soak("--no-such-flag");
  EXPECT_EQ(res.exit_code, 2) << res.output;
  EXPECT_NE(res.output.find("usage:"), std::string::npos) << res.output;
}

// A count that parsed as 0 used to run zero campaigns and report a green
// soak; -1 used to wrap to 2^64 - 1 campaigns.
TEST(SoakCli, BadCampaignsExitsTwoWithUsage) {
  for (const char* bad : {"abc", "0", "-1", "5x"}) {
    expect_usage(std::string("--campaigns ") + bad);
  }
}

TEST(SoakCli, BadSeedExitsTwoWithUsage) {
  for (const char* bad : {"x", "-3", "1.5"}) {
    expect_usage(std::string("--campaigns 1 --seed ") + bad);
  }
}

TEST(SoakCli, TwoModeFlagsExitTwoWithUsage) {
  expect_usage("--serve --kill-only --campaigns 1");
  expect_usage("--net --shard --campaigns 1");
}

}  // namespace
