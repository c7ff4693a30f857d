#include "util/env.h"

#include <cstdlib>

#include <gtest/gtest.h>

namespace vmsv {
namespace {

class EnvTest : public ::testing::Test {
 protected:
  void TearDown() override { ::unsetenv("VMSV_TEST_VAR"); }

  void Set(const char* value) { ::setenv("VMSV_TEST_VAR", value, 1); }
};

TEST_F(EnvTest, Uint64UnsetReturnsDefault) {
  EXPECT_EQ(GetEnvUint64("VMSV_TEST_VAR", 123), 123u);
}

TEST_F(EnvTest, Uint64Parses) {
  Set("1048576");
  EXPECT_EQ(GetEnvUint64("VMSV_TEST_VAR", 0), 1048576u);
}

TEST_F(EnvTest, Uint64SuffixesAreBinary) {
  Set("4k");
  EXPECT_EQ(GetEnvUint64("VMSV_TEST_VAR", 0), 4096u);
  Set("2M");
  EXPECT_EQ(GetEnvUint64("VMSV_TEST_VAR", 0), 2u << 20);
  Set("1g");
  EXPECT_EQ(GetEnvUint64("VMSV_TEST_VAR", 0), 1u << 30);
}

TEST_F(EnvTest, Uint64GarbageFallsBackToDefault) {
  Set("not-a-number");
  EXPECT_EQ(GetEnvUint64("VMSV_TEST_VAR", 77), 77u);
  Set("12moons");
  EXPECT_EQ(GetEnvUint64("VMSV_TEST_VAR", 77), 77u);
  Set("");
  EXPECT_EQ(GetEnvUint64("VMSV_TEST_VAR", 77), 77u);
}

TEST_F(EnvTest, StringPassesThrough) {
  EXPECT_EQ(GetEnvString("VMSV_TEST_VAR", "memfd"), "memfd");
  Set("shm");
  EXPECT_EQ(GetEnvString("VMSV_TEST_VAR", "memfd"), "shm");
}

TEST_F(EnvTest, DoubleParses) {
  Set("0.25");
  EXPECT_DOUBLE_EQ(GetEnvDouble("VMSV_TEST_VAR", 1.0), 0.25);
  Set("bogus");
  EXPECT_DOUBLE_EQ(GetEnvDouble("VMSV_TEST_VAR", 1.0), 1.0);
}

TEST(ParseUint64Test, Boundaries) {
  uint64_t value = 0;
  EXPECT_TRUE(ParseUint64("0", &value));
  EXPECT_EQ(value, 0u);
  EXPECT_TRUE(ParseUint64("18446744073709551615", &value));
  EXPECT_EQ(value, ~uint64_t{0});
  EXPECT_FALSE(ParseUint64("", &value));
  EXPECT_FALSE(ParseUint64("k", &value));
  // Suffix shift that would overflow must be rejected.
  EXPECT_FALSE(ParseUint64("18446744073709551615k", &value));
  // strtoull would wrap negatives and skip leading whitespace — both must
  // be rejected, not silently mangled.
  EXPECT_FALSE(ParseUint64("-1", &value));
  EXPECT_FALSE(ParseUint64(" 5", &value));
  EXPECT_FALSE(ParseUint64("+5", &value));
}

TEST(MaxMapCountTest, ReadReturnsPlausibleValue) {
  // In any Linux environment the sysctl exists and is at least the historic
  // default of 65530. The raise writes a host-wide setting, so it runs only
  // on request (VMSV_RAISE_MAP_COUNT, as in the benches), and it must never
  // lower the value.
  const uint64_t before = ReadMaxMapCount(0);
  ASSERT_GE(before, 1024u);
  if (GetEnvUint64("VMSV_RAISE_MAP_COUNT", 0) == 0) return;
  const uint64_t after = TryRaiseMaxMapCount((uint64_t{1} << 32) - 1);
  EXPECT_GE(after, before);
}

}  // namespace
}  // namespace vmsv
