/**
 * @file
 * qr_perfbench -- the repository's end-to-end benchmark.
 *
 *   qr_perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
 *                [--work-dir D] [--out-dir D]
 *
 * Prints a detail line (medians, tail percentiles and sample counts)
 * and, last, the result line: {"correct", "attempted", "failed",
 * "metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the
 * per-layer ones and writes a Perfetto-readable span trace into
 * --out-dir. See perfbench/README.md.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "pipeline.hh"
#include "plan.hh"
#include "report.hh"

namespace
{

int
usage(const char *why)
{
    std::fprintf(stderr, "qr_perfbench: %s\n", why);
    std::fprintf(stderr,
                 "usage: qr_perfbench --workload <name> [--seed N] "
                 "[--seconds S] [--trace 0|1] [--work-dir D] "
                 "[--out-dir D]\nworkloads:");
    for (const std::string &w : perfbench::workloadNames())
        std::fprintf(stderr, " %s", w.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            opt.workload = v;
        } else if (a == "--seed") {
            opt.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || v[0] == '-' || *end != '\0')
                return usage("--seed expects a whole number");
        } else if (a == "--seconds") {
            opt.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || !(opt.seconds > 0) ||
                opt.seconds > 3600)
                return usage("--seconds expects a positive number");
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                return usage("--trace expects 0 or 1");
            opt.trace = v == "1";
        } else if (a == "--work-dir") {
            opt.workDir = v;
        } else if (a == "--out-dir") {
            opt.outDir = v;
        } else {
            return usage(("unknown option " + a).c_str());
        }
    }
    if (opt.workload.empty())
        return usage("--workload is required");

    try {
        perfbench::RunResult r = perfbench::runBenchmark(opt);
        std::printf("%s\n", r.detail.c_str());
        std::printf("%s\n",
                    perfbench::resultLine(r.failed == 0, r.attempted,
                                          r.failed, r.metrics)
                        .c_str());
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "qr_perfbench: %s\n", e.what());
        return 1;
    }
}
