/**
 * @file
 * One benchmark run: set up, iterate the record -> persist -> verify
 * -> analyze -> replay -> serve pipeline for a fixed wall time, check
 * every output, and summarize.
 */

#ifndef PERFBENCH_PIPELINE_HH
#define PERFBENCH_PIPELINE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "plan.hh"
#include "report.hh"

namespace perfbench
{

struct Options
{
    std::string workload;
    std::uint64_t seed = defaultSeed;
    double seconds = 10.0;
    /** false: end-to-end metrics from untraced iterations; true:
     *  per-layer metrics from traced iterations. */
    bool trace = false;
    std::string workDir = ".perfbench-work"; //!< scratch artifacts
    std::string outDir; //!< where the Perfetto trace goes (optional)
};

struct RunResult
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** One JSON object with each metric's median, tail percentile and
     *  sample count, plus the run's parameters. */
    std::string detail;
};

/** Run the benchmark. Throws std::exception when it cannot run. */
RunResult runBenchmark(const Options &opt);

} // namespace perfbench

#endif // PERFBENCH_PIPELINE_HH
