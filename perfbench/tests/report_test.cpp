#include "report.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <unistd.h>

#include "serve_client.hpp"

namespace perfbench {
namespace {

TEST(Percentile, InterpolatesBetweenOrderedSamples) {
  EXPECT_DOUBLE_EQ(percentile({3.0, 1.0, 2.0}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(percentile({10.0}, 0.9), 10.0);
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
  std::vector<double> hundred;
  for (int i = 1; i <= 101; ++i) hundred.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(hundred, 0.9), 91.0);
}

TEST(Percentile, NeedsTenSamplesBeyondIt) {
  EXPECT_FALSE(percentile_supported(99, 0.9));
  EXPECT_TRUE(percentile_supported(100, 0.9));
  EXPECT_FALSE(percentile_supported(19, 0.5));
  EXPECT_TRUE(percentile_supported(20, 0.5));
  EXPECT_FALSE(percentile_supported(999, 0.99));
  EXPECT_EQ(min_samples_for(0.9), 100u);
  EXPECT_EQ(min_samples_for(0.5), 20u);
  EXPECT_EQ(min_samples_for(0.99), 1000u);
}

TEST(Tally, CountsFailuresAgainstAttempts) {
  Tally t;
  EXPECT_DOUBLE_EQ(t.failed_ratio(), 0.0);
  t.record(true, "sweep");
  t.record(true, "sweep");
  t.record(false, "sweep: broken");
  t.fail("guard");
  EXPECT_EQ(t.attempted(), 4u);
  EXPECT_EQ(t.failed(), 2u);
  EXPECT_DOUBLE_EQ(t.failed_ratio(), 0.5);
  ASSERT_EQ(t.failures().size(), 2u);
  EXPECT_EQ(t.failures()[0], "sweep: broken");
}

TEST(Tally, RefusedJobIsAFailure) {
  const std::string dir =
      "perfbench-test-" + std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  {
    ServerHost host{dir + "/serve.sock",
                    tinysdr::exec::ExecPolicy::with_threads(1)};
    Tally t;
    const JobOutcome refused =
        run_job(host.socket_path(), R"({"schema":"not-a-job"})");
    t.record(refused.ok, refused.error);
    EXPECT_FALSE(refused.ok);
    EXPECT_EQ(refused.error.rfind("refused:", 0), 0u) << refused.error;

    JobStream stream{7};
    const JobOutcome primed = run_job(host.socket_path(), stream.priming().text);
    t.record(primed.ok, primed.error);
    EXPECT_TRUE(primed.ok) << primed.error;
    EXPECT_EQ(t.attempted(), 2u);
    EXPECT_EQ(t.failed(), 1u);
  }
  std::filesystem::remove_all(dir);
}

TEST(ResultLine, HasExactlyTheResultKeys) {
  Tally t;
  t.record(true, "op");
  const std::string line =
      result_line(true, t, {{"setup_s", {0.25, "s"}}, {"x", {1.5, "ms"}}});
  EXPECT_EQ(line,
            R"({"correct":true,"attempted":1,"failed":0,"metrics":{)"
            R"("setup_s":{"value":0.25,"unit":"s"},)"
            R"("x":{"value":1.5,"unit":"ms"}}})");
}

}  // namespace
}  // namespace perfbench
