#include "sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "serve_client.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using tinysdr::exec::ExecPolicy;

/// Every sweep kind of every sweep workload, at two trials per point.
std::vector<SweepKind> small_kinds(const SweepSet& set) {
  std::vector<SweepKind> kinds = set.kinds;
  for (SweepKind& k : kinds) k.pipe.plan.trials = 2;
  return kinds;
}

TEST(TracedSweep, EqualsLinkSimulatorOnEveryWorkload) {
  for (const auto& set :
       {make_lora_per(), make_ble_ber(), make_coexist_impaired()}) {
    for (const SweepKind& kind : small_kinds(*set)) {
      const auto expected =
          kind.pipe.simulator(99).sweep(kind.points, ExecPolicy::with_threads(2));
      SweepTrace trace;
      const auto traced = traced_sweep(kind.pipe, 99, kind.points,
                                       ExecPolicy::with_threads(2), trace, true);
      EXPECT_TRUE(points_equal(expected, traced)) << kind.label;
      EXPECT_EQ(trace.trials, 2 * kind.points.size()) << kind.label;
      EXPECT_EQ(trace.captures.size(), kind.points.size()) << kind.label;
      double stages = 0.0;
      for (double ns : trace.stage_ns) stages += ns;
      EXPECT_GT(stages, 0.0);
      EXPECT_LE(stages, trace.busy_ns) << kind.label;
      EXPECT_EQ(trace.imbalance.size(), 1u);
    }
  }
}

TEST(TracedSweep, JammedAndImpairedStagesAreTimed) {
  const auto set = make_coexist_impaired();
  const SweepKind kind = small_kinds(*set)[0];
  SweepTrace trace;
  (void)traced_sweep(kind.pipe, 5, kind.points, ExecPolicy::serial(), trace);
  for (Stage s : {kEmit, kSuperpose, kImpairTx, kImpairRx})
    EXPECT_GT(trace.stage_ns[s], 0.0) << s;
}

TEST(CheckTracedEqual, CountsACorruptedPointAsFailed) {
  const auto set = make_ble_ber();
  const SweepKind kind = small_kinds(*set)[0];
  auto untraced = kind.pipe.simulator(3).sweep(kind.points);

  Tally tally;
  check_traced_equal(kind, 3, untraced, tally);
  EXPECT_EQ(tally.attempted(), 1u);
  EXPECT_EQ(tally.failed(), 0u);

  untraced[4].bit_errors += 1;
  check_traced_equal(kind, 3, untraced, tally);
  EXPECT_EQ(tally.attempted(), 2u);
  EXPECT_EQ(tally.failed(), 1u);
  EXPECT_DOUBLE_EQ(tally.failed_ratio(), 0.5);
}

TEST(JobStream, SameSeedSameJobsAndFixedRepeatShape) {
  JobStream a{11}, b{11};
  EXPECT_EQ(a.priming().text, b.priming().text);
  std::size_t repeated = 0, points = 0;
  std::vector<StreamJob> jobs;
  for (std::size_t i = 0; i < 4 * JobStream::kCycle; ++i) {
    jobs.push_back(a.next());
    EXPECT_EQ(jobs.back().text, b.next().text);
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const StreamJob& job = jobs[i];
    EXPECT_EQ(job.spec.fleets.size(), i % JobStream::kCycle == 0 ? 1u : 0u);
    if (i % JobStream::kCycle == JobStream::kCycle - 1) {
      ASSERT_TRUE(job.repeat_of.has_value());
      EXPECT_EQ(job.text, jobs[*job.repeat_of].text);
      for (const auto& s : job.spec.sweeps) repeated += s.rssi_dbm.size();
    } else {
      EXPECT_FALSE(job.repeat_of.has_value());
      for (const auto& s : job.spec.sweeps) {
        EXPECT_EQ(s.rssi_dbm.size(), 5u);
        const std::set<double> distinct(s.rssi_dbm.begin(), s.rssi_dbm.end());
        EXPECT_EQ(distinct.size(), 5u);
        repeated += 3;
      }
    }
    for (const auto& s : job.spec.sweeps) points += s.rssi_dbm.size();
  }
  EXPECT_DOUBLE_EQ(static_cast<double>(repeated) / static_cast<double>(points),
                   0.7);
}

}  // namespace
}  // namespace perfbench
