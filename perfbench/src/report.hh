/**
 * @file
 * The benchmark's result line: one JSON object with exactly the keys
 * correct, attempted, failed and metrics, each metric a
 * {"value", "unit"} pair printed with all its digits.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "spans.hh"

namespace perfbench
{

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Shortest decimal that reads back as @p v (JSON has no inf/nan). */
inline std::string
jsonNumber(double v)
{
    if (!(v == v) || v > 1.7e308 || v < -1.7e308)
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** The result line, without a trailing newline. */
inline std::string
resultLine(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        if (i)
            out += ", ";
        out += jsonQuote(m.name) + ": {\"value\": " +
               jsonNumber(m.value) + ", \"unit\": " + jsonQuote(m.unit) +
               "}";
    }
    return out + "}}";
}

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
