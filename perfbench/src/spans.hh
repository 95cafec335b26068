/**
 * @file
 * In-memory span tracing for the benchmark's traced run.
 *
 * The benchmark wraps each public library call it makes in a span
 * (name, start, end, parent); the spans of one iteration share a
 * group id. Spans stay in memory until the run ends, then go out as
 * Chrome trace-event JSON, which Perfetto and chrome://tracing open.
 * A disabled tracer records nothing, so the untraced runs that give
 * the end-to-end numbers pay one branch per call.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

/** One closed (or still open) span. Times are microseconds. */
struct Span
{
    std::string name;
    std::uint64_t id = 0;     //!< 1-based, unique within the run
    std::uint64_t parent = 0; //!< 0 for a root span
    std::uint64_t group = 0;  //!< iteration the span belongs to
    double startUs = 0.0;
    double endUs = 0.0;

    double durUs() const { return endUs - startUs; }
};

class Tracer
{
  public:
    explicit Tracer(bool enabled) : on_(enabled) {}

    /** Arm or disarm between iterations (never with a span open). */
    void setEnabled(bool on) { on_ = on; }

    /** Tag the spans opened from now on with iteration @p g. */
    void setGroup(std::uint64_t g) { group_ = g; }

    /** RAII span under the innermost open one; a no-op on a disabled
     *  tracer. Spans nest strictly. */
    class Scope
    {
      public:
        Scope(Tracer &t, const char *name) : t_(t)
        {
            if (t_.on_)
                t_.begin(name);
        }
        ~Scope()
        {
            if (t_.on_)
                t_.end();
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &t_;
    };

    const std::vector<Span> &spans() const { return spans_; }

  private:
    using clock = std::chrono::steady_clock;

    void
    begin(const char *name)
    {
        Span s;
        s.name = name;
        s.id = spans_.size() + 1;
        s.parent = open_.empty() ? 0 : spans_[open_.back()].id;
        s.group = group_;
        s.startUs = nowUs();
        spans_.push_back(std::move(s));
        open_.push_back(spans_.size() - 1);
    }

    void
    end()
    {
        spans_[open_.back()].endUs = nowUs();
        open_.pop_back();
    }

    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(clock::now() -
                                                         origin_)
            .count();
    }

    bool on_;
    std::uint64_t group_ = 0;
    clock::time_point origin_ = clock::now();
    std::vector<Span> spans_;
    std::vector<std::size_t> open_;
};

/**
 * Self time of every span in @p spans (same order): its duration
 * minus the part of its interval that its child spans cover. Child
 * intervals are clipped to the parent and merged, so overlapping
 * children are not subtracted twice.
 */
inline std::vector<double>
selfTimesUs(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
    for (const Span &s : spans) {
        if (s.parent == 0 || s.parent > spans.size())
            continue;
        kids[s.parent - 1].push_back({s.startUs, s.endUs});
    }
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &p = spans[i];
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0.0, curLo = 0.0, curHi = 0.0;
        bool open = false;
        for (auto [lo, hi] : iv) {
            lo = std::max(lo, p.startUs);
            hi = std::min(hi, p.endUs);
            if (hi <= lo)
                continue;
            if (open && lo <= curHi) {
                curHi = std::max(curHi, hi);
                continue;
            }
            if (open)
                covered += curHi - curLo;
            curLo = lo;
            curHi = hi;
            open = true;
        }
        if (open)
            covered += curHi - curLo;
        self[i] = p.durUs() - covered;
    }
    return self;
}

/** JSON string literal for @p s (quotes, backslashes, controls). */
inline std::string
jsonQuote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

/**
 * Render @p spans as Chrome trace-event JSON: one complete ("X")
 * event per span on a single track, with id, parent and iteration in
 * its args.
 */
inline std::string
chromeTraceJson(const std::vector<Span> &spans)
{
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char buf[256];
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        out += i ? ",{\"name\":" : "{\"name\":";
        out += jsonQuote(s.name);
        std::snprintf(buf, sizeof buf,
                      ",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":%.3f,"
                      "\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{"
                      "\"id\":%llu,\"parent\":%llu,\"iteration\":%llu}}",
                      s.startUs, s.durUs(),
                      static_cast<unsigned long long>(s.id),
                      static_cast<unsigned long long>(s.parent),
                      static_cast<unsigned long long>(s.group));
        out += buf;
    }
    return out + "]}\n";
}

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
