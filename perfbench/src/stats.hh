/**
 * @file
 * Sample statistics for the benchmark: the median of repeated
 * iterations, plus the highest percentile that still has at least ten
 * samples beyond it, and the sample count.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench
{

/** Samples a tail percentile must leave beyond it to be reported. */
constexpr std::size_t tailSamplesBeyond = 10;

/** Median (mean of the two middle values for an even count); 0 if empty. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/**
 * Nearest-rank percentile of ascending @p sorted: the value at rank
 * ceil(p/100 * n), 1-based. Requires a non-empty input.
 */
inline double
nearestRank(const std::vector<double> &sorted, double p)
{
    std::size_t n = sorted.size();
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    rank = std::clamp<std::size_t>(rank, 1, n);
    return sorted[rank - 1];
}

/** A timing as the benchmark reports it. */
struct Summary
{
    double median = 0.0;
    std::size_t samples = 0;
    /** Highest percentile of the ladder with >= tailSamplesBeyond
     *  samples ranked above it; 0 when no percentile qualifies. */
    double tailPct = 0.0;
    double tailValue = 0.0;

    bool hasTail() const { return tailPct > 0.0; }
};

/**
 * Summarize @p v. The tail is taken from the ladder 99.9, 99, 95, 90,
 * 75, 50: the first p whose nearest rank leaves at least ten samples
 * above it. "Above" means in the direction the metric gets worse, so
 * pass @p higherIsWorse = false for a rate (its tail is the low end).
 */
inline Summary
summarize(std::vector<double> v, bool higherIsWorse = true)
{
    Summary s;
    s.samples = v.size();
    if (v.empty())
        return s;
    s.median = median(v);
    std::sort(v.begin(), v.end());
    if (!higherIsWorse) {
        // Negate so the worst values sort last, as for a time.
        for (double &x : v)
            x = -x;
        std::reverse(v.begin(), v.end());
    }
    std::size_t n = v.size();
    for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
        auto rank = static_cast<std::size_t>(
            std::ceil(p / 100.0 * static_cast<double>(n)));
        if (n - std::min(rank, n) >= tailSamplesBeyond) {
            s.tailPct = p;
            s.tailValue = nearestRank(v, p);
            if (!higherIsWorse)
                s.tailValue = -s.tailValue;
            break;
        }
    }
    return s;
}

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
