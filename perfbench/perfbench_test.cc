// Tests of the benchmark's own arithmetic and checks.
#include <gtest/gtest.h>

#include "bench.h"
#include "corpus/population.h"
#include "corpus/scan.h"
#include "digest.h"
#include "stats.h"

namespace perfbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(SupportedTail, NeedsTenSamplesBeyondThePercentile) {
  EXPECT_FALSE(supported_tail(ramp(999), 0.99).has_value());
  ASSERT_TRUE(supported_tail(ramp(1000), 0.99).has_value());
  EXPECT_DOUBLE_EQ(*supported_tail(ramp(1000), 0.99), 990.0);
  EXPECT_FALSE(supported_tail(ramp(9999), 0.999).has_value());
  ASSERT_TRUE(supported_tail(ramp(10000), 0.999).has_value());
  EXPECT_DOUBLE_EQ(*supported_tail(ramp(10000), 0.999), 9990.0);
  EXPECT_DOUBLE_EQ(*supported_tail(ramp(20), 0.5), 10.0);
  EXPECT_FALSE(supported_tail(ramp(19), 0.5).has_value());
}

TEST(SupportedTail, RejectsEmptyAndDegenerateQuantiles) {
  EXPECT_FALSE(supported_tail({}, 0.5).has_value());
  EXPECT_FALSE(supported_tail(ramp(100), 0.0).has_value());
  EXPECT_FALSE(supported_tail(ramp(100), 1.0).has_value());
}

TEST(SupportedTail, IgnoresInputOrder) {
  std::vector<double> v = ramp(2000);
  std::reverse(v.begin(), v.end());
  EXPECT_DOUBLE_EQ(*supported_tail(v, 0.99), 1980.0);
}

TEST(FailFrac, IsFailuresOverAttempts) {
  EXPECT_DOUBLE_EQ(fail_frac(1000, 0), 0.0);
  EXPECT_DOUBLE_EQ(fail_frac(1000, 25), 0.025);
  EXPECT_DOUBLE_EQ(fail_frac(8, 8), 1.0);
  EXPECT_DOUBLE_EQ(fail_frac(8, 9), 1.0);  // clamped
  EXPECT_DOUBLE_EQ(fail_frac(0, 0), 1.0);  // nothing attempted
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(InterquartileMean, AveragesTheMiddleHalf) {
  EXPECT_DOUBLE_EQ(interquartile_mean({1000, 1, 300, 2, 100, 3, 200, 4}),
                   (3 + 4 + 100 + 200) / 4.0);
  EXPECT_DOUBLE_EQ(interquartile_mean({5}), 5.0);
  EXPECT_DOUBLE_EQ(interquartile_mean({1, 2, 3}), 2.0);
  EXPECT_DOUBLE_EQ(interquartile_mean({}), 0.0);
}

TEST(MedianOver, SelectsTracedOrPlainRounds) {
  std::vector<Round> rounds(5);
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    rounds[i].ops = 100;
    rounds[i].wall_s = static_cast<double>(i + 1);
    rounds[i].traced = i % 2 == 1;
  }
  const auto wall = [](const Round& r) { return r.wall_s; };
  EXPECT_DOUBLE_EQ(median_over(rounds, wall), 3.0);
  EXPECT_DOUBLE_EQ(median_over(rounds, wall, Which::kPlain), 3.0);
  EXPECT_DOUBLE_EQ(median_over(rounds, wall, Which::kTraced), 3.0);
  EXPECT_DOUBLE_EQ(median_over(rounds, ops_per_s, Which::kTraced),
                   (50.0 + 25.0) / 2);
  // Plain rounds 1, 3 and 5 s: 100, 33.3 and 20 ops/s; traced 2 and 4 s.
  EXPECT_NEAR(trace_overhead_frac(rounds), -0.125, 1e-12);
}

TEST(SetupsDue, SpreadsTheSetupsOverTheTimedPhase) {
  EXPECT_EQ(setups_due(0.0), 1u);
  EXPECT_EQ(setups_due(0.5), 1 + (kSetups - 1) / 2);
  EXPECT_EQ(setups_due(1.0), kSetups);
  EXPECT_EQ(setups_due(2.0), kSetups);  // clamped
}

class ScanDigest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pop_ = new h2r::corpus::Population(h2r::corpus::generate_population(
        h2r::corpus::Epoch::kExp2, 3, 400));
    h2r::corpus::ScanOptions opts;
    opts.threads = 1;
    report_ = new h2r::corpus::ScanReport(
        h2r::corpus::scan_population(*pop_, opts));
    opts.coalesce = false;
    opts.event_loop = false;
    reference_ = new h2r::corpus::ScanReport(
        h2r::corpus::scan_population(*pop_, opts));
  }
  static void TearDownTestSuite() {
    delete pop_;
    delete report_;
    delete reference_;
  }
  static h2r::corpus::Population* pop_;
  static h2r::corpus::ScanReport* report_;
  static h2r::corpus::ScanReport* reference_;
};
h2r::corpus::Population* ScanDigest::pop_ = nullptr;
h2r::corpus::ScanReport* ScanDigest::report_ = nullptr;
h2r::corpus::ScanReport* ScanDigest::reference_ = nullptr;

TEST_F(ScanDigest, AcceptsTheDefaultScanAgainstTheSequentialReference) {
  EXPECT_EQ(report_digest(*report_), report_digest(*reference_));
  EXPECT_TRUE(
      check_scan_report(*report_, *reference_, pop_->sites.size()).empty());
}

TEST_F(ScanDigest, RejectsAPerturbedReport) {
  h2r::corpus::ScanReport perturbed = *report_;
  ++perturbed.priority_pass_last;
  EXPECT_NE(report_digest(perturbed), report_digest(*reference_));
  EXPECT_FALSE(
      check_scan_report(perturbed, *reference_, pop_->sites.size()).empty());

  perturbed = *report_;
  ASSERT_FALSE(perturbed.hpack_ratio_by_family.empty());
  auto& ratios = perturbed.hpack_ratio_by_family.begin()->second;
  ASSERT_FALSE(ratios.empty());
  ratios.front() = std::nextafter(ratios.front(), 2.0);  // one ulp
  EXPECT_FALSE(
      check_scan_report(perturbed, *reference_, pop_->sites.size()).empty());
}

TEST_F(ScanDigest, RejectsDeadlineHitsAndUnclassifiedSites) {
  h2r::corpus::ScanReport hung = *report_;
  hung.fault_deadline_hits = 1;
  EXPECT_FALSE(check_scan_report(hung, hung, pop_->sites.size()).empty());
  EXPECT_FALSE(
      check_scan_report(*report_, *reference_, pop_->sites.size() + 1).empty());
}

}  // namespace
}  // namespace perfbench
