// Tests of the benchmark's own helpers: the percentile rule, the failure
// fraction, span self time and the tracer.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace hdbench {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<double> one_to(std::size_t n)
{
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0);
    return v;
}

TEST(PercentileRule, ReportsP99WhenTenSamplesLieBeyondIt)
{
    std::vector<double> v = one_to(1000);
    std::reverse(v.begin(), v.end());
    const TailSummary s = summarize_tail(v);
    EXPECT_EQ(s.samples, 1000u);
    EXPECT_DOUBLE_EQ(s.p50, 500.5);
    EXPECT_DOUBLE_EQ(s.tail, 990.0); // nearest rank ceil(0.99 * 1000)
    EXPECT_DOUBLE_EQ(s.tail_pct, 99.0);
    EXPECT_TRUE(s.tail_supported);
}

TEST(PercentileRule, FallsBackToTheHighestSupportedPercentile)
{
    const TailSummary s = summarize_tail(one_to(500));
    EXPECT_DOUBLE_EQ(s.tail, 490.0); // ten samples beyond it
    EXPECT_DOUBLE_EQ(s.tail_pct, 98.0);
    EXPECT_TRUE(s.tail_supported);
}

TEST(PercentileRule, SmallSamplesReportTheMaximum)
{
    const TailSummary s = summarize_tail(one_to(15));
    EXPECT_DOUBLE_EQ(s.p50, 8.0);
    EXPECT_DOUBLE_EQ(s.tail, 15.0);
    EXPECT_DOUBLE_EQ(s.tail_pct, 100.0);
    EXPECT_FALSE(s.tail_supported);
    EXPECT_EQ(summarize_tail({}).samples, 0u);
}

TEST(PercentileRule, FailedOperationsSortLast)
{
    std::vector<double> v = one_to(100);
    for (int i = 0; i < 5; ++i) {
        v[static_cast<std::size_t>(i)] = kInf;
    }
    const TailSummary s = summarize_tail(v);
    EXPECT_DOUBLE_EQ(s.tail_pct, 90.0);
    EXPECT_DOUBLE_EQ(s.tail, 95.0); // rank 90 of 6..100 then five +inf
    v.assign(100, kInf);
    EXPECT_TRUE(std::isinf(summarize_tail(v).tail));
    EXPECT_TRUE(std::isinf(summarize_tail(v).p50)); // not NaN
}

TEST(FailFraction, IsTheRatioWithAFloor)
{
    EXPECT_DOUBLE_EQ(fail_fraction(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(fail_fraction(0, 1'000'000), kFailFloor);
    EXPECT_DOUBLE_EQ(fail_fraction(3, 1000), 0.003);
}

Span span(std::uint32_t id, std::uint32_t parent, const char* name, double start, double end)
{
    return Span{id, parent, 0, name, start, end};
}

TEST(SelfTime, SubtractsTheUnionOfChildCoverage)
{
    const Span parent = span(1, 0, "char.module", 0, 100);
    // Overlapping children (parallel shards) count once; a child running
    // past the parent's end counts only inside it.
    const std::vector<Span> children{span(2, 1, "char.shard_run", 10, 30),
                                     span(3, 1, "char.shard_run", 20, 40),
                                     span(4, 1, "journal.publish", 90, 120)};
    EXPECT_DOUBLE_EQ(self_time_us(parent, children), 60.0);
    EXPECT_DOUBLE_EQ(self_time_us(parent, {}), 100.0);
}

TEST(SelfTime, SumsPerLayer)
{
    const std::vector<Span> spans{span(1, 0, "char.module", 0, 100),
                                  span(2, 1, "char.shard_run", 10, 30),
                                  span(3, 1, "journal.publish", 40, 70),
                                  span(4, 3, "journal.fsync", 50, 60)};
    const auto layers = layer_self_times(spans);
    EXPECT_DOUBLE_EQ(layers.at("char").self_us, 50.0 + 20.0);
    EXPECT_DOUBLE_EQ(layers.at("journal").self_us, 20.0 + 10.0);
    EXPECT_DOUBLE_EQ(layers.at("journal").total_us, 40.0);
    EXPECT_EQ(layers.at("char").spans, 2u);
}

TEST(Tracer, DisabledRecordsNothing)
{
    Tracer off{false};
    {
        const ScopedSpan s{off, "serve.rtt"};
        EXPECT_EQ(s.id(), 0u);
    }
    EXPECT_TRUE(off.spans().empty());

    Tracer on{true};
    {
        const ScopedSpan outer{on, "char.pass", 0, 7};
        const ScopedSpan inner{on, "fit.enhanced", outer.id(), 7};
    }
    const std::vector<Span> spans = on.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[1].parent, spans[0].id);
    EXPECT_EQ(spans[1].op, 7u);
    EXPECT_LE(spans[0].start_us, spans[1].start_us);
    EXPECT_GE(spans[0].end_us, spans[1].end_us);
}

} // namespace
} // namespace hdbench
