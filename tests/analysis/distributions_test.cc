#include "analysis/distributions.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace rootstress::analysis {
namespace {

TEST(Cdf, EmptySampleIsSafe) {
  const EmpiricalCdf cdf(std::vector<double>{});
  EXPECT_DOUBLE_EQ(cdf.at(5.0), 0.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 0.0);
}

TEST(Cdf, StepFunction) {
  const EmpiricalCdf cdf(std::vector<double>{1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.at(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.at(100.0), 1.0);
}

TEST(Cdf, Quantiles) {
  std::vector<double> v;
  for (int i = 0; i <= 100; ++i) v.push_back(i);
  const EmpiricalCdf cdf(v);
  EXPECT_NEAR(cdf.quantile(0.0), 0.0, 1e-9);
  EXPECT_NEAR(cdf.quantile(0.5), 50.0, 1e-9);
  EXPECT_NEAR(cdf.quantile(0.95), 95.0, 1e-9);
  EXPECT_NEAR(cdf.quantile(1.0), 100.0, 1e-9);
  EXPECT_DOUBLE_EQ(cdf.min(), 0.0);
  EXPECT_DOUBLE_EQ(cdf.max(), 100.0);
}

TEST(Cdf, CurveIsMonotone) {
  util::Rng rng(1);
  std::vector<double> v;
  for (int i = 0; i < 1000; ++i) v.push_back(rng.normal(50, 10));
  const EmpiricalCdf cdf(v);
  // 50 evenly spaced points (quantile(q), at(quantile(q))) of the curve.
  double prev_x = cdf.quantile(0.0);
  double prev_p = cdf.at(prev_x);
  for (int i = 1; i < 50; ++i) {
    const double x = cdf.quantile(i / 49.0);
    const double p = cdf.at(x);
    EXPECT_GE(x, prev_x) << i;
    EXPECT_GE(p, prev_p) << i;
    prev_x = x;
    prev_p = p;
  }
}

TEST(Ks, IdenticalSamplesNearZero) {
  util::Rng rng(2);
  std::vector<double> v;
  for (int i = 0; i < 2000; ++i) v.push_back(rng.uniform());
  const EmpiricalCdf a(v), b(v);
  EXPECT_LT(ks_distance(a, b), 0.01);
}

TEST(Ks, ShiftedDistributionsDetected) {
  util::Rng rng(3);
  std::vector<double> quiet, stressed;
  for (int i = 0; i < 2000; ++i) {
    quiet.push_back(rng.normal(30, 5));      // quiet RTTs
    stressed.push_back(rng.normal(1500, 200));  // bufferbloat RTTs
  }
  const EmpiricalCdf a(quiet), b(stressed);
  EXPECT_GT(ks_distance(a, b), 0.95);
}

TEST(Ks, PartialShift) {
  util::Rng rng(4);
  std::vector<double> a_sample, b_sample;
  for (int i = 0; i < 4000; ++i) {
    a_sample.push_back(rng.normal(30, 5));
    // Half the mass shifted: KS ~ 0.5.
    b_sample.push_back(i % 2 == 0 ? rng.normal(30, 5) : rng.normal(300, 5));
  }
  const double d =
      ks_distance(EmpiricalCdf(a_sample), EmpiricalCdf(b_sample));
  EXPECT_GT(d, 0.4);
  EXPECT_LT(d, 0.6);
}

}  // namespace
}  // namespace rootstress::analysis
