/**
 * @file
 * Unit tests for src/common: RNG determinism and distribution, running
 * statistics, histograms, percentiles, table formatting, unit
 * conversions, log-level filtering.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <sstream>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace {

using namespace pgcn;

TEST(Rng, SameSeedSameSequence)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        equal += (a() == b());
    EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng rng(99);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntRespectsBound)
{
    Rng rng(5);
    for (uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
        for (int i = 0; i < 1000; ++i)
            ASSERT_LT(rng.uniformInt(bound), bound);
    }
}

TEST(Rng, UniformIntCoversRange)
{
    Rng rng(11);
    std::vector<int> counts(8, 0);
    for (int i = 0; i < 8000; ++i)
        ++counts[rng.uniformInt(8)];
    for (int c : counts)
        EXPECT_GT(c, 700); // expect ~1000 each; catch gross bias
}

TEST(SplitMix, Deterministic)
{
    uint64_t s1 = 42, s2 = 42;
    EXPECT_EQ(splitMix64(s1), splitMix64(s2));
    EXPECT_EQ(s1, s2);
}

TEST(RunningStat, Empty)
{
    RunningStat rs;
    EXPECT_EQ(rs.count(), 0u);
    EXPECT_EQ(rs.mean(), 0.0);
    EXPECT_EQ(rs.variance(), 0.0);
}

TEST(RunningStat, KnownValues)
{
    RunningStat rs;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        rs.add(x);
    EXPECT_DOUBLE_EQ(rs.mean(), 5.0);
    EXPECT_DOUBLE_EQ(rs.variance(), 4.0);
    EXPECT_DOUBLE_EQ(rs.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(rs.min(), 2.0);
    EXPECT_DOUBLE_EQ(rs.max(), 9.0);
    EXPECT_DOUBLE_EQ(rs.sum(), 40.0);
}

TEST(RunningStat, SingleSample)
{
    RunningStat rs;
    rs.add(3.5);
    EXPECT_DOUBLE_EQ(rs.mean(), 3.5);
    EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
    EXPECT_DOUBLE_EQ(rs.min(), 3.5);
    EXPECT_DOUBLE_EQ(rs.max(), 3.5);
}

TEST(Percentile, MedianOfOdd)
{
    EXPECT_DOUBLE_EQ(percentile({3, 1, 2}, 50), 2.0);
}

TEST(Percentile, Extremes)
{
    std::vector<double> v{5, 1, 9, 3};
    EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100), 9.0);
}

TEST(Percentile, Interpolates)
{
    EXPECT_DOUBLE_EQ(percentile({0.0, 10.0}, 25), 2.5);
}

TEST(Geomean, KnownValue)
{
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
}

TEST(Histogram, EmptyState)
{
    Histogram h(0.0, 100.0, 10);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0.0);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.numBuckets(), 10u);
    EXPECT_EQ(h.underflow(), 0u);
    EXPECT_EQ(h.overflow(), 0u);
}

TEST(Histogram, BucketsAndOutliers)
{
    Histogram h(0.0, 100.0, 10);
    h.add(5.0);   // bucket 0
    h.add(15.0);  // bucket 1
    h.add(95.0);  // bucket 9
    h.add(-1.0);  // underflow
    h.add(250.0); // overflow
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(9), 1u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_DOUBLE_EQ(h.min(), -1.0);
    EXPECT_DOUBLE_EQ(h.max(), 250.0);
    EXPECT_DOUBLE_EQ(h.sum(), 364.0);
}

TEST(Histogram, PercentilesClampToObservedRange)
{
    Histogram h(0.0, 100.0, 100);
    for (int i = 1; i <= 100; ++i)
        h.add(static_cast<double>(i) - 0.5);
    // Rank clamps to the first sample, so p=0 reads the upper edge of
    // its bucket; p=100 clamps to the observed maximum.
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(100.0), 99.5);
    // With one sample per unit-wide bucket, interpolation lands
    // inside the covering bucket.
    EXPECT_NEAR(h.percentile(50.0), 50.0, 1.0);
    EXPECT_NEAR(h.percentile(95.0), 95.0, 1.0);
    EXPECT_NEAR(h.percentile(99.0), 99.0, 1.0);
}

TEST(Histogram, PercentileOfSingleSample)
{
    Histogram h(0.0, 10.0, 4);
    h.add(3.0);
    EXPECT_DOUBLE_EQ(h.percentile(50.0), 3.0);
    EXPECT_DOUBLE_EQ(h.percentile(99.0), 3.0);
}

TEST(Histogram, MergeAccumulates)
{
    Histogram a(0.0, 10.0, 5);
    Histogram b(0.0, 10.0, 5);
    a.add(1.0);
    a.add(9.0);
    b.add(5.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.sum(), 15.0);
    EXPECT_DOUBLE_EQ(a.min(), 1.0);
    EXPECT_DOUBLE_EQ(a.max(), 9.0);
}

TEST(LogLevel, ParseNamesCaseInsensitive)
{
    EXPECT_EQ(parseLogLevel("error", LogLevel::Info), LogLevel::Error);
    EXPECT_EQ(parseLogLevel("WARN", LogLevel::Info), LogLevel::Warn);
    EXPECT_EQ(parseLogLevel("warning", LogLevel::Info), LogLevel::Warn);
    EXPECT_EQ(parseLogLevel("Info", LogLevel::Error), LogLevel::Info);
    EXPECT_EQ(parseLogLevel("debug", LogLevel::Info), LogLevel::Debug);
    EXPECT_EQ(parseLogLevel("bogus", LogLevel::Warn), LogLevel::Warn);
    EXPECT_EQ(parseLogLevel(nullptr, LogLevel::Debug), LogLevel::Debug);
}

TEST(LogLevel, SeverityFilter)
{
    const LogLevel saved = logLevel();
    setLogLevel(LogLevel::Warn);
    EXPECT_TRUE(logEnabled(LogLevel::Error));
    EXPECT_TRUE(logEnabled(LogLevel::Warn));
    EXPECT_FALSE(logEnabled(LogLevel::Info));
    EXPECT_FALSE(logEnabled(LogLevel::Debug));
    setLogLevel(LogLevel::Debug);
    EXPECT_TRUE(logEnabled(LogLevel::Debug));
    setLogLevel(saved);
}

TEST(LogLevel, EnvVariableControlsLevel)
{
    const LogLevel saved = logLevel();
    ::setenv("PGCN_LOG", "error", 1);
    refreshLogLevelFromEnv();
    EXPECT_EQ(logLevel(), LogLevel::Error);
    EXPECT_FALSE(logEnabled(LogLevel::Info));
    ::setenv("PGCN_LOG", "debug", 1);
    refreshLogLevelFromEnv();
    EXPECT_EQ(logLevel(), LogLevel::Debug);
    ::unsetenv("PGCN_LOG");
    refreshLogLevelFromEnv();
    EXPECT_EQ(logLevel(), LogLevel::Info); // default
    setLogLevel(saved);
}

TEST(Table, AlignedOutputContainsCells)
{
    Table t("demo", {"name", "value"});
    t.row().cell("alpha").cell(int64_t{42});
    t.row().cell("beta").cell(3.14159, 2);
    std::ostringstream oss;
    t.print(oss);
    const std::string s = oss.str();
    EXPECT_NE(s.find("demo"), std::string::npos);
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("42"), std::string::npos);
    EXPECT_NE(s.find("3.14"), std::string::npos);
}

TEST(Table, RowCount)
{
    Table t("rows", {"a", "b"});
    EXPECT_EQ(t.rowCount(), 0u);
    t.row().cell("1").cell("2");
    t.row().cell("3").cell("4");
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(Units, BandwidthConversion)
{
    // 1 GB/s is exactly 1 byte per ns.
    EXPECT_DOUBLE_EQ(units::gbPerSecToBytesPerNs(1.0), 1.0);
    EXPECT_DOUBLE_EQ(units::gbPerSecToBytesPerNs(204.8), 204.8);
}

TEST(Units, TimeRoundTrip)
{
    EXPECT_DOUBLE_EQ(units::nsToSeconds(units::secondsToNs(2.5)), 2.5);
}

TEST(Units, Gflops)
{
    // 2e9 FLOP in 1 second (1e9 ns) = 2 GFLOP/s.
    EXPECT_DOUBLE_EQ(units::gflops(2e9, units::kSec), 2.0);
}

TEST(HumanFormat, Bytes)
{
    EXPECT_EQ(humanBytes(512), "512.0 B");
    EXPECT_EQ(humanBytes(1536), "1.50 KiB");
}

TEST(HumanFormat, Time)
{
    EXPECT_EQ(humanTimeNs(500), "500.0 ns");
    EXPECT_EQ(humanTimeNs(2500), "2.50 us");
}

} // namespace
