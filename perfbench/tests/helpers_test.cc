/**
 * @file
 * Tests of the benchmark's own helpers: median and tail percentile
 * with sample count, span self time, the result line's shape, and
 * thread placement.
 */

#include <gtest/gtest.h>
#include <pthread.h>
#include <sched.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "placement.hh"
#include "report.hh"
#include "spans.hh"
#include "stats.hh"

namespace perfbench
{
namespace
{

std::vector<double>
iota(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; --i) // descending: summarize must sort
        v.push_back(i);
    return v;
}

TEST(Stats, MedianOddEvenEmpty)
{
    EXPECT_EQ(median({3, 1, 2}), 2.0);
    EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_EQ(median({}), 0.0);
}

TEST(Stats, NoTailBelowElevenSamples)
{
    Summary s = summarize(iota(10));
    EXPECT_EQ(s.samples, 10u);
    EXPECT_EQ(s.median, 5.5);
    EXPECT_FALSE(s.hasTail());
}

TEST(Stats, TailLeavesTenSamplesBeyond)
{
    // 20 samples: p50 (rank 10) leaves 10 above; p75 leaves only 5.
    Summary s20 = summarize(iota(20));
    EXPECT_EQ(s20.tailPct, 50.0);
    EXPECT_EQ(s20.tailValue, 10.0);

    // 100 samples: p90 (rank 90) leaves 10 above; p95 leaves 5.
    Summary s100 = summarize(iota(100));
    EXPECT_EQ(s100.samples, 100u);
    EXPECT_EQ(s100.tailPct, 90.0);
    EXPECT_EQ(s100.tailValue, 90.0);

    // 1000 samples: p99 (rank 990) leaves 10 above.
    Summary s1000 = summarize(iota(1000));
    EXPECT_EQ(s1000.tailPct, 99.0);
    EXPECT_EQ(s1000.tailValue, 990.0);
}

TEST(Stats, RateTailIsTheLowEnd)
{
    // For a rate, worse is lower: the p90 tail of 1..100 sits at 11,
    // with the ten samples 1..10 beyond it.
    Summary s = summarize(iota(100), /* higherIsWorse = */ false);
    EXPECT_EQ(s.tailPct, 90.0);
    EXPECT_EQ(s.tailValue, 11.0);
    EXPECT_EQ(s.median, 50.5);
}

Span
span(std::uint64_t id, std::uint64_t parent, double lo, double hi)
{
    Span s;
    s.name = "s" + std::to_string(id);
    s.id = id;
    s.parent = parent;
    s.startUs = lo;
    s.endUs = hi;
    return s;
}

TEST(Spans, SelfTimeSubtractsChildren)
{
    // root [0,100) with children [10,30) and [50,60); the second
    // child has a grandchild [52,58) that must not touch the root.
    std::vector<Span> v = {span(1, 0, 0, 100), span(2, 1, 10, 30),
                           span(3, 1, 50, 60), span(4, 3, 52, 58)};
    std::vector<double> self = selfTimesUs(v);
    EXPECT_DOUBLE_EQ(self[0], 70.0);
    EXPECT_DOUBLE_EQ(self[1], 20.0);
    EXPECT_DOUBLE_EQ(self[2], 4.0);
    EXPECT_DOUBLE_EQ(self[3], 6.0);
}

TEST(Spans, OverlappingChildrenCountOnce)
{
    std::vector<Span> v = {span(1, 0, 0, 100), span(2, 1, 10, 40),
                           span(3, 1, 30, 50), span(4, 1, 90, 120)};
    std::vector<double> self = selfTimesUs(v);
    // covered: [10,50) and [90,100) (clipped) = 50
    EXPECT_DOUBLE_EQ(self[0], 50.0);
}

TEST(Spans, TracerNestsAndGroups)
{
    Tracer t(true);
    t.setGroup(7);
    {
        Tracer::Scope a(t, "outer");
        Tracer::Scope b(t, "inner");
    }
    t.setEnabled(false);
    {
        Tracer::Scope c(t, "ignored");
    }
    const std::vector<Span> &s = t.spans();
    ASSERT_EQ(s.size(), 2u);
    EXPECT_EQ(s[0].name, "outer");
    EXPECT_EQ(s[0].parent, 0u);
    EXPECT_EQ(s[1].parent, s[0].id);
    EXPECT_EQ(s[1].group, 7u);
    EXPECT_LE(s[0].startUs, s[1].startUs);
    EXPECT_GE(s[0].endUs, s[1].endUs);
    std::string json = chromeTraceJson(s);
    EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0),
              0u);
    EXPECT_NE(json.find("\"name\":\"inner\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST(Report, ResultLineShape)
{
    std::string line = resultLine(
        true, 12, 0, {{"latency_ms", 1.25, "ms"}, {"setup_s", 0.5, "s"}});
    EXPECT_EQ(line,
              "{\"correct\": true, \"attempted\": 12, \"failed\": 0, "
              "\"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": "
              "\"ms\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}");
    EXPECT_EQ(line.find('\n'), std::string::npos);
}

TEST(Report, NumbersKeepAllDigits)
{
    EXPECT_EQ(jsonNumber(0.1), "0.10000000000000001");
    EXPECT_EQ(jsonNumber(1234567.0), "1234567");
    EXPECT_EQ(jsonNumber(std::nan("")), "null");
    EXPECT_EQ(jsonQuote("a\"b\\c"), "\"a\\\"b\\\\c\"");
}

/** CPU of the calling thread's affinity set if it holds exactly one,
 *  else -1. */
int
boundCpu()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (pthread_getaffinity_np(pthread_self(), sizeof set, &set) != 0 ||
        CPU_COUNT(&set) != 1)
        return -1;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set))
            return c;
    return -1;
}

/** CPUs each of @p n threads started now is bound to (-1: unbound). */
std::vector<int>
startedBound(int n)
{
    std::vector<int> cpu(n);
    std::vector<std::thread> ts;
    for (int k = 0; k < n; ++k)
        ts.emplace_back([&cpu, k] { cpu[k] = boundCpu(); });
    for (std::thread &t : ts)
        t.join();
    return cpu;
}

TEST(Placement, SpreadThreadsBindsEachNewThreadToItsOwnCpu)
{
    unsigned n = std::thread::hardware_concurrency();
    if (n < 2)
        GTEST_SKIP() << "one CPU";
    std::vector<int> in;
    {
        SpreadThreads spread;
        in = startedBound(2);
    }
    EXPECT_GE(in[0], 0);
    EXPECT_GE(in[1], 0);
    EXPECT_NE(in[0], in[1]);
    EXPECT_EQ(boundCpu(), -1); // the starting thread keeps its set
    // A new scope starts again from the first CPU.
    {
        SpreadThreads spread;
        EXPECT_EQ(startedBound(1)[0], in[0]);
    }
    // Outside a scope threads are left alone.
    EXPECT_EQ(startedBound(1)[0], -1);
}

} // namespace
} // namespace perfbench
