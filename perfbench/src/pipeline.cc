#include "pipeline.hh"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "analyze/predict.hh"
#include "analyze/race_analyzer.hh"
#include "analyze/verify.hh"
#include "capo/log_store.hh"
#include "core/artifact.hh"
#include "core/session.hh"
#include "replay/chunk_graph.hh"
#include "service/service.hh"
#include "sim/logging.hh"
#include "placement.hh"
#include "spans.hh"
#include "stats.hh"

namespace perfbench
{

namespace
{

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

std::vector<std::uint8_t>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/**
 * Time one read-modify-write pass over @p buf (16 MiB, the size of a
 * default guest memory): how fast the host's memory system runs right
 * now. It runs no library code, so no change to the program moves it;
 * it shows when a run was slow because the host was.
 */
double
probeMs(std::vector<std::uint64_t> &buf)
{
    auto t0 = Clock::now();
    for (std::size_t k = 0; k < buf.size(); ++k)
        buf[k] = buf[k] * 3 + k;
    return msSince(t0);
}

/** What set-up learns about one guest sphere. */
struct Reference
{
    qr::RunMetrics baseline;
    qr::RunMetrics record;
    std::vector<std::uint8_t> bytes; //!< the reference artifact
};

/** Counts an analysis must reproduce on every iteration. */
struct AnalyzeCounts
{
    std::uint64_t chunks = 0;
    std::uint64_t conflictEdges = 0;
    std::uint64_t races = 0;
    std::uint64_t predicted = 0;
    std::uint64_t locksetCandidates = 0;

    bool operator==(const AnalyzeCounts &) const = default;
};

/** The user-visible operations one iteration times. */
enum Op
{
    Record,   //!< qrec record -o
    Verify,   //!< qrec verify
    Analyze,  //!< qrec analyze --predict
    Replay,   //!< qrec replay
    Parallel, //!< qrec replay --replay-jobs N
    Serve,    //!< one qrec serve burst
    numOps
};

/** Outside-timed wall of one operation and the work it did. */
struct OpTotal
{
    double ms = 0;
    double work = 0; //!< instructions, bytes, chunks or spheres
    int calls = 0;
};

/**
 * One iteration: each operation's walls and work, summed over the
 * plan's spheres and the operation's repetitions, plus exact counts
 * taken on the first repetition.
 */
struct Sample
{
    double iterMs = 0;
    double probeMs = 0; //!< host memory probe (traced iterations only)
    std::array<OpTotal, numOps> op;
    /** Σ per-call record+save wall of the spheres one burst submits. */
    double directMs = 0;
    std::vector<double> submitUs;
    std::map<std::string, double> counts;
};

/**
 * Each operation repeats within an iteration until it has about this
 * much wall (repetition counts are fixed after the warm-up), so short
 * operations are measured over as much time as long ones.
 */
constexpr double minOpMs = 200.0;
constexpr int maxReps = 64;

/** Parallel replay workers: nproc of the 4-vCPU reference host. */
constexpr int replayJobs = 4;

/** Set-up rounds per run; setup_s is their median. */
constexpr int setupRounds = 3;

/** Record service worker shards. */
constexpr int serviceShards = 2;

/** One operation's checks: it fails if any expectation fails. */
class Check
{
  public:
    Check(const char *op, const std::string &sphere)
        : op_(op), sphere_(sphere)
    {}

    void
    expect(bool ok, const char *what)
    {
        if (!ok && why_.empty())
            why_ = what;
    }

    bool ok() const { return why_.empty(); }
    const char *op() const { return op_; }
    const std::string &sphere() const { return sphere_; }
    const std::string &why() const { return why_; }

  private:
    const char *op_;
    std::string sphere_;
    std::string why_;
};

class Bench
{
  public:
    explicit Bench(const Options &opt)
        : opt_(opt), tr_(opt.trace), work_(opt.workDir)
    {
        fs::remove_all(work_);
        fs::create_directories(work_);
        if (opt.trace)
            probeBuf_.assign((16u << 20) / sizeof(std::uint64_t), 1);
    }

    ~Bench()
    {
        svc_.reset(); // joins the shards before their store vanishes
        std::error_code ec;
        fs::remove_all(work_, ec);
    }

    Bench(const Bench &) = delete;
    Bench &operator=(const Bench &) = delete;

    /** One set-up round: build, baseline, reference, service start. */
    void setup();

    /** One pipeline iteration (traced iterations also cross-check). */
    Sample iterate(bool traced, std::uint64_t iter);

    /** Fix each operation's repetitions from a one-rep iteration. */
    void calibrate(const Sample &warm);
    const std::array<int, numOps> &reps() const { return reps_; }

    const Plan &plan() const { return plan_; }
    const std::vector<Reference> &refs() const { return refs_; }
    const Tracer &tracer() const { return tr_; }
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const std::vector<double> &setupMs() const { return setupMs_; }
    const std::vector<double> &buildMs() const { return buildMs_; }

  private:
    void finish(const Check &c);
    void recordOp(std::size_t i, Sample &s);
    void verifyOp(std::size_t i, Sample &s);
    void analyzeOp(std::size_t i, bool first, Sample &s);
    qr::ReplayResult replayOp(std::size_t i, Sample &s);
    void parallelOp(std::size_t i, const qr::ReplayResult &seq,
                    bool first, Sample &s);
    void serveOp(Sample &s);
    void crossCheck(std::size_t i, const qr::ReplayResult &seq,
                    Sample &s);
    void directOp(std::size_t i, Sample &s);

    std::string
    artifactPath(std::size_t i) const
    {
        return (work_ / (plan_.spheres[i].name + ".qrec")).string();
    }

    Options opt_;
    Tracer tr_;
    fs::path work_;
    Plan plan_;
    qr::MachineConfig mcfg_;
    qr::RecorderConfig rcfg_;
    std::vector<Reference> refs_;
    std::vector<std::optional<AnalyzeCounts>> seen_;
    std::unique_ptr<qr::RecordService> svc_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<double> setupMs_, buildMs_;
    std::array<int, numOps> reps_{1, 1, 1, 1, 1, 1};
    /** The memory probe's buffer; traced runs only, so it never
     *  counts in the untraced runs' peak_rss_mb. */
    std::vector<std::uint64_t> probeBuf_;
};

void
Bench::finish(const Check &c)
{
    attempted_++;
    if (c.ok())
        return;
    failed_++;
    if (failed_ <= 20)
        std::fprintf(stderr, "perfbench: %s of %s failed: %s\n", c.op(),
                     c.sphere().c_str(), c.why().c_str());
}

void
Bench::setup()
{
    svc_.reset();
    fs::path svcDir = work_ / "service";
    fs::remove_all(svcDir);

    auto t0 = Clock::now();
    {
        Tracer::Scope span(tr_, "workloads.build");
        plan_ = buildPlan(opt_.workload, opt_.seed);
    }
    buildMs_.push_back(msSince(t0));

    rcfg_.rnr.exactShadow = plan_.exactShadow;
    std::vector<Reference> refs(plan_.spheres.size());
    for (std::size_t i = 0; i < plan_.spheres.size(); ++i) {
        const GuestSphere &g = plan_.spheres[i];
        Reference &r = refs[i];
        {
            Tracer::Scope span(tr_, "core.baseline");
            r.baseline = qr::runBaseline(g.program, mcfg_, rcfg_);
        }
        qr::RecordResult rec;
        {
            Tracer::Scope span(tr_, "core.record");
            rec = qr::recordProgram(g.program, mcfg_, rcfg_);
        }
        r.record = rec.metrics;
        qr::SphereArtifact art{g.kind, g.threads, g.scale,
                               rec.metrics.digests, std::move(rec.logs),
                               {}};
        std::string path = artifactPath(i);
        bool saved = false;
        {
            Tracer::Scope span(tr_, "capo.save");
            saved = static_cast<bool>(qr::saveArtifact(art, path));
        }
        if (!saved)
            throw std::runtime_error("cannot write " + path);
        r.bytes = readFile(path);
        // Set-up repeats: the recording must not change between them.
        Check c("reference recording", g.name);
        c.expect(refs_.empty() || refs_[i].bytes == r.bytes,
                 "artifact bytes differ between set-ups");
        finish(c);
    }
    refs_ = std::move(refs);
    seen_.assign(plan_.spheres.size(), std::nullopt);

    // The budget holds about half a burst, so every burst makes
    // retention compact (or try to) and evict.
    std::uint64_t burstBytes = 0;
    for (std::size_t i : plan_.burst)
        burstBytes += refs_[i].bytes.size();
    qr::ServiceConfig cfg;
    cfg.dir = svcDir.string();
    cfg.workers = serviceShards;
    cfg.retention.maxBytes = burstBytes / 2;
    // Retention runs synchronously after each burst (repairNow), not
    // on the service's own timer, so every burst does the same work.
    cfg.repairIntervalMs = 3600 * 1000;
    cfg.mcfg = mcfg_;
    cfg.rcfg = rcfg_;
    {
        Tracer::Scope span(tr_, "service.start");
        svc_ = std::make_unique<qr::RecordService>(cfg);
        SpreadThreads spread;
        svc_->start();
    }
    setupMs_.push_back(msSince(t0));
}

void
Bench::recordOp(std::size_t i, Sample &s)
{
    const GuestSphere &g = plan_.spheres[i];
    const Reference &ref = refs_[i];
    std::string path = artifactPath(i);
    Tracer::Scope op(tr_, "op.record");
    auto t0 = Clock::now();
    qr::RecordResult rec;
    {
        Tracer::Scope span(tr_, "core.record");
        rec = qr::recordProgram(g.program, mcfg_, rcfg_);
    }
    qr::SphereArtifact art{g.kind, g.threads, g.scale, rec.metrics.digests,
                           std::move(rec.logs), {}};
    qr::SegmentedWriteResult w;
    {
        Tracer::Scope span(tr_, "capo.save");
        w = qr::saveArtifact(art, path);
    }
    double ms = msSince(t0);
    OpTotal &o = s.op[Record];
    o.ms += ms;
    o.work += static_cast<double>(rec.metrics.instrs);
    o.calls++;
    for (std::size_t b : plan_.burst)
        if (b == i)
            s.directMs += ms / reps_[Record];

    Tracer::Scope span(tr_, "bench.check");
    Check c("record", g.name);
    c.expect(static_cast<bool>(w), "saveArtifact failed");
    c.expect(rec.metrics.cycles == ref.record.cycles &&
                 rec.metrics.digests == ref.record.digests,
             "recording differs from the reference run");
    c.expect(readFile(path) == ref.bytes,
             "artifact bytes differ from the reference recording");
    finish(c);
}

void
Bench::verifyOp(std::size_t i, Sample &s)
{
    const GuestSphere &g = plan_.spheres[i];
    std::string path = artifactPath(i);
    Tracer::Scope op(tr_, "op.verify");
    Check c("verify", g.name);
    auto t0 = Clock::now();
    std::vector<std::uint8_t> raw;
    {
        Tracer::Scope span(tr_, "capo.read");
        raw = readFile(path);
    }
    std::vector<std::uint8_t> sphere;
    {
        Tracer::Scope span(tr_, "capo.unwrap");
        qr::SegmentedReadResult seg = qr::readSegmented(raw);
        c.expect(seg.ok && seg.sealed && seg.payload.size() >= 4 &&
                     std::memcmp(seg.payload.data(), "QRC1", 4) == 0,
                 "artifact is not a sealed qrec container");
        if (c.ok()) {
            try {
                std::size_t pos = 4;
                qr::parseArtifactMeta(seg.payload, pos);
                std::uint64_t n = qr::getVarint(seg.payload, pos);
                if (n > seg.payload.size() - pos)
                    qr::parseFail("container truncated");
                sphere.assign(seg.payload.begin() +
                                  static_cast<long>(pos),
                              seg.payload.begin() +
                                  static_cast<long>(pos + n));
            } catch (const qr::ParseError &) {
                c.expect(false, "container meta does not parse");
            }
        }
    }
    qr::LintReport lint;
    {
        Tracer::Scope span(tr_, "analyze.lint");
        lint = qr::lintSphereBytes(sphere, path);
    }
    OpTotal &o = s.op[Verify];
    o.ms += msSince(t0);
    o.work += static_cast<double>(raw.size());
    o.calls++;
    c.expect(lint.parsed && lint.clean(), "lint reports findings");
    finish(c);
}

void
Bench::analyzeOp(std::size_t i, bool first, Sample &s)
{
    const GuestSphere &g = plan_.spheres[i];
    std::string path = artifactPath(i);
    Tracer::Scope op(tr_, "op.analyze");
    Check c("analyze", g.name);
    auto t0 = Clock::now();
    qr::StreamStats st;
    qr::RaceReport rep;
    qr::PredictReport pred;
    {
        qr::MappedSphereFile map;
        qr::PayloadView sphere;
        {
            Tracer::Scope span(tr_, "capo.map_open");
            c.expect(map.open(path) && map.canStream() &&
                         map.verifyAll().empty(),
                     "mapped container does not verify");
            if (c.ok()) {
                try {
                    qr::PayloadView pv = map.payload();
                    if (pv.size() < 4 || pv[0] != 'Q' || pv[1] != 'R' ||
                        pv[2] != 'C' || pv[3] != '1')
                        qr::parseFail("not a qrec container");
                    std::size_t pos = 4;
                    qr::parseArtifactMeta(pv, pos);
                    std::uint64_t n = qr::getVarintFrom(pv, pos);
                    if (n > pv.size() - pos)
                        qr::parseFail("container truncated");
                    sphere = pv.subview(pos, static_cast<std::size_t>(n));
                } catch (const qr::ParseError &) {
                    c.expect(false, "container meta does not parse");
                }
            }
        }
        if (c.ok()) {
            try {
                qr::StreamOptions so;
                so.keepConflicts = true; // the predictive pass needs them
                {
                    Tracer::Scope span(tr_, "analyze.stream");
                    qr::SphereCursor cur{sphere};
                    rep = qr::analyzeSphereStreaming(cur, so, &st);
                }
                Tracer::Scope span(tr_, "analyze.predict");
                qr::SphereCursor pcur{sphere};
                pred = qr::predictRaces(pcur, rep);
            } catch (const qr::ParseError &) {
                c.expect(false, "analyzer rejected the sphere");
            }
        }
    }
    OpTotal &o = s.op[Analyze];
    o.ms += msSince(t0);
    o.work += static_cast<double>(rep.nChunks);
    o.calls++;

    Tracer::Scope span(tr_, "bench.check");
    AnalyzeCounts now{rep.nChunks, rep.conflictEdges, rep.races.size(),
                      pred.predicted, pred.locksetCandidates};
    c.expect(rep.nChunks == refs_[i].record.chunks,
             "analyzed chunk count differs from the recording");
    if (!seen_[i])
        seen_[i] = now;
    c.expect(*seen_[i] == now, "analysis counts drifted");
    finish(c);
    if (!first)
        return;
    s.counts["analyze.conflict_edges"] +=
        static_cast<double>(rep.conflictEdges);
    s.counts["analyze.racy_edges"] += static_cast<double>(rep.races.size());
    s.counts["analyze.predicted_races"] +=
        static_cast<double>(pred.predicted);
    double &live = s.counts["analyze.peak_live_chunks"];
    live = std::max(live, static_cast<double>(st.peakLiveChunks));
    double &res = s.counts["analyze.peak_resident_bytes"];
    res = std::max(res, static_cast<double>(st.peakResidentBytes));
}

qr::ReplayResult
Bench::replayOp(std::size_t i, Sample &s)
{
    const GuestSphere &g = plan_.spheres[i];
    Tracer::Scope op(tr_, "op.replay");
    Check c("replay", g.name);
    auto t0 = Clock::now();
    qr::ArtifactLoadResult ld;
    {
        Tracer::Scope span(tr_, "capo.load");
        ld = qr::loadArtifact(artifactPath(i));
    }
    qr::ReplayResult rep;
    bool digestsOk = false;
    if (ld) {
        {
            Tracer::Scope span(tr_, "replay.seq");
            rep = qr::replaySphere(g.program, ld.artifact.logs);
        }
        Tracer::Scope span(tr_, "replay.digest_check");
        digestsOk = qr::verifyDigests(ld.artifact.digests, rep.digests).ok;
    }
    OpTotal &o = s.op[Replay];
    o.ms += msSince(t0);
    o.work += static_cast<double>(rep.replayedInstrs);
    o.calls++;
    c.expect(ld.ok, "loadArtifact failed");
    c.expect(rep.ok, "replay diverged");
    c.expect(digestsOk, "recorded digest mismatch");
    c.expect(rep.digests == refs_[i].record.digests,
             "replay digests differ from the reference recording");
    finish(c);
    return rep;
}

void
Bench::parallelOp(std::size_t i, const qr::ReplayResult &seq, bool first,
                  Sample &s)
{
    const GuestSphere &g = plan_.spheres[i];
    Tracer::Scope op(tr_, "op.par_replay");
    Check c("parallel replay", g.name);
    auto t0 = Clock::now();
    qr::ArtifactLoadResult ld;
    {
        Tracer::Scope span(tr_, "capo.load");
        ld = qr::loadArtifact(artifactPath(i));
    }
    qr::ParallelReplayResult par;
    bool digestsOk = false;
    if (ld) {
        {
            Tracer::Scope span(tr_, "replay.par");
            SpreadThreads spread;
            par = qr::replaySphereParallel(g.program, ld.artifact.logs,
                                           replayJobs);
        }
        Tracer::Scope span(tr_, "replay.digest_check");
        digestsOk =
            qr::verifyDigests(ld.artifact.digests, par.replay.digests).ok;
    }
    OpTotal &o = s.op[Parallel];
    o.ms += msSince(t0);
    o.work += static_cast<double>(par.replay.replayedInstrs);
    o.calls++;
    c.expect(ld.ok, "loadArtifact failed");
    c.expect(par.replay.ok, "parallel replay diverged");
    c.expect(digestsOk, "recorded digest mismatch");
    c.expect(par.replay.digests == seq.digests &&
                 par.replay.replayedChunks == seq.replayedChunks &&
                 par.replay.replayedInstrs == seq.replayedInstrs &&
                 par.replay.injectedRecords == seq.injectedRecords,
             "parallel replay differs from sequential");
    finish(c);
    if (!first)
        return;

    auto &k = s.counts;
    k["replay.graph_nodes"] += static_cast<double>(par.graphNodes);
    k["replay.graph_edges"] += static_cast<double>(par.graphEdges);
    k["replay.fence_checks"] += static_cast<double>(par.fenceChecks);
    k["replay.version_slots"] += static_cast<double>(par.versionSlots);
    k["modeled.seq_cycles"] +=
        static_cast<double>(par.speed.modeledSequentialCycles);
    k["modeled.par_cycles"] +=
        static_cast<double>(par.speed.modeledParallelCycles);
    k["modeled.critical_cycles"] +=
        static_cast<double>(par.speed.criticalPathCycles);
    // The library's own timers, for the outside-vs-inside cross-check.
    k["lib.graph_ms"] += par.speed.graphMicros / 1000.0;
    k["lib.exec_ms"] += par.speed.execMicros / 1000.0;
    k["lib.seq_exec_ms"] += seq.execMicros / 1000.0;
}

void
Bench::serveOp(Sample &s)
{
    Tracer::Scope op(tr_, "op.serve");
    Check c("serve burst", plan_.workload);
    qr::ServiceCounters before = svc_->counters();
    std::uint64_t bytesBefore = svc_->store().retainedBytes();
    auto t0 = Clock::now();
    for (std::size_t i : plan_.burst) {
        const GuestSphere &g = plan_.spheres[i];
        Tracer::Scope span(tr_, "service.submit");
        auto ts = Clock::now();
        qr::SubmitResult r = svc_->submit(
            qr::SphereRequest{g.name, g.threads, g.scale, g.program});
        s.submitUs.push_back(msSince(ts) * 1000.0);
        c.expect(r.admitted() && r.outcome == qr::AdmissionOutcome::Admit,
                 "service shed or degraded a sphere");
    }
    {
        Tracer::Scope span(tr_, "service.wait_idle");
        svc_->waitIdle();
    }
    OpTotal &o = s.op[Serve];
    o.ms += msSince(t0);
    o.work += static_cast<double>(plan_.burst.size());
    o.calls++;
    std::uint64_t bytesSaved = svc_->store().retainedBytes() - bytesBefore;
    {
        Tracer::Scope span(tr_, "service.repair");
        svc_->repairNow();
    }

    Tracer::Scope span(tr_, "bench.check");
    qr::ServiceCounters after = svc_->counters();
    auto d = [](std::uint64_t a, std::uint64_t b) {
        return static_cast<double>(a - b);
    };
    double n = static_cast<double>(plan_.burst.size());
    double saved = d(after.saved, before.saved);
    double shed = d(after.shedQueueFull, before.shedQueueFull) +
                  d(after.shedByteBudget, before.shedByteBudget) +
                  d(after.shedShutdown, before.shedShutdown);
    double unaccounted = 0;
    for (const qr::StatScalar &sc : svc_->snapshot().scalars)
        if (sc.name == "service.unaccounted")
            unaccounted = sc.value;
    c.expect(saved == n, "service did not save every sphere");
    c.expect(shed == 0, "service shed a sphere");
    c.expect(after.saveTornLeft == before.saveTornLeft &&
                 after.saveLost == before.saveLost &&
                 after.aborted == before.aborted,
             "service left a sphere torn, lost or aborted");
    c.expect(unaccounted == 0, "service.unaccounted is not 0");
    // Saved counts each sphere once; a failed burst fails them all.
    for (std::size_t k = 0; k < plan_.burst.size(); ++k)
        finish(c);

    // Every artifact retention kept must load and carry the digests
    // its sphere recorded.
    qr::StoreScan scan = svc_->store().scan();
    Check st("service store", plan_.workload);
    st.expect(scan.unsealed.empty() && scan.temps.empty(),
              "store holds torn or temporary files");
    finish(st);
    for (const qr::ArtifactFile &f : scan.sealed) {
        Check lc("retained artifact load", f.path);
        qr::ArtifactLoadResult ld = qr::loadArtifact(f.path);
        lc.expect(ld.ok, "retained artifact fails to load");
        bool known = false;
        for (std::size_t i = 0; i < plan_.spheres.size(); ++i)
            if (ld.ok && plan_.spheres[i].name == ld.artifact.workload)
                known = ld.artifact.digests == refs_[i].record.digests;
        lc.expect(known, "retained artifact digests differ from its "
                         "reference recording");
        finish(lc);
    }

    // Per burst: the last burst of the iteration stands for all.
    auto &k = s.counts;
    k["service.saved"] = saved;
    k["service.save_retries"] = d(after.saveRetries, before.saveRetries);
    k["service.shed"] = shed;
    k["service.unaccounted"] = unaccounted;
    k["retention.compacted"] =
        d(after.retentionCompacted, before.retentionCompacted);
    k["retention.compact_failures"] =
        d(after.retentionCompactFailures, before.retentionCompactFailures);
    k["retention.evicted"] =
        d(after.retentionEvicted, before.retentionEvicted);
    k["service.saved_bytes"] = static_cast<double>(bytesSaved);
}

void
Bench::directOp(std::size_t i, Sample &s)
{
    const GuestSphere &g = plan_.spheres[i];
    Check c("direct record", g.name);
    qr::RecordResult rec;
    qr::SegmentedWriteResult w;
    {
        Tracer::Scope span(tr_, "service.direct");
        auto t0 = Clock::now();
        rec = qr::recordProgram(g.program, mcfg_, rcfg_);
        qr::SphereArtifact art{g.kind, g.threads, g.scale,
                               rec.metrics.digests, std::move(rec.logs), {}};
        w = qr::saveArtifact(art, artifactPath(i));
        s.directMs += msSince(t0);
    }
    c.expect(static_cast<bool>(w), "saveArtifact failed");
    c.expect(rec.metrics.digests == refs_[i].record.digests,
             "recording differs from the reference recording");
    finish(c);
}

void
Bench::crossCheck(std::size_t i, const qr::ReplayResult &seq, Sample &s)
{
    const GuestSphere &g = plan_.spheres[i];
    Check c("cross-check", g.name);
    qr::RunMetrics base;
    {
        Tracer::Scope span(tr_, "core.baseline");
        base = qr::runBaseline(g.program, mcfg_, rcfg_);
    }
    c.expect(base.cycles == refs_[i].baseline.cycles,
             "baseline run differs from set-up");
    qr::ArtifactLoadResult ld;
    {
        Tracer::Scope span(tr_, "bench.load");
        ld = qr::loadArtifact(artifactPath(i));
    }
    c.expect(ld.ok, "loadArtifact failed");
    if (ld) {
        qr::ChunkGraph graph;
        {
            Tracer::Scope span(tr_, "replay.graph");
            graph = qr::buildChunkGraph(g.program, ld.artifact.logs);
        }
        c.expect(graph.ok && graph.nodes.size() == seq.replayedChunks,
                 "chunk graph build failed");
        qr::ParallelReplayResult one;
        {
            Tracer::Scope span(tr_, "replay.par1");
            SpreadThreads spread;
            one = qr::replaySphereParallel(g.program, ld.artifact.logs, 1);
        }
        c.expect(one.replay.ok && one.replay.digests == seq.digests,
                 "1-job parallel replay differs from sequential");
        s.counts["lib.j1_exec_ms"] += one.speed.execMicros / 1000.0;
    }
    finish(c);
}

Sample
Bench::iterate(bool traced, std::uint64_t iter)
{
    // A traced run alternates traced and untraced iterations; only
    // the traced ones record spans.
    Sample s;
    tr_.setEnabled(traced);
    tr_.setGroup(iter);
    std::vector<qr::ReplayResult> seq(plan_.spheres.size());
    if (traced)
        s.probeMs = probeMs(probeBuf_);
    auto t0 = Clock::now();
    {
        Tracer::Scope it(tr_, "iteration");
        for (std::size_t i : plan_.pipeline) {
            for (int r = 0; r < reps_[Record]; ++r)
                recordOp(i, s);
            for (int r = 0; r < reps_[Verify]; ++r)
                verifyOp(i, s);
            for (int r = 0; r < reps_[Analyze]; ++r)
                analyzeOp(i, r == 0, s);
            for (int r = 0; r < reps_[Replay]; ++r)
                seq[i] = replayOp(i, s);
            for (int r = 0; r < reps_[Parallel]; ++r)
                parallelOp(i, seq[i], r == 0, s);
        }
        for (int r = 0; r < reps_[Serve]; ++r)
            serveOp(s);
    }
    s.iterMs = msSince(t0);
    if (traced) {
        Tracer::Scope x(tr_, "crosscheck");
        for (std::size_t i : plan_.pipeline)
            crossCheck(i, seq[i], s);
        // A burst sphere the pipeline does not record is recorded here
        // for service.direct_sphere_ms, once per time a burst submits it.
        for (std::size_t i : plan_.burst)
            if (std::find(plan_.pipeline.begin(), plan_.pipeline.end(),
                          i) == plan_.pipeline.end())
                directOp(i, s);
    }
    return s;
}

void
Bench::calibrate(const Sample &warm)
{
    for (int k = 0; k < numOps; ++k) {
        double perRep = warm.op[k].ms / reps_[k];
        double want = perRep > 0 ? std::ceil(minOpMs / perRep) : 1.0;
        reps_[k] = static_cast<int>(std::clamp(want, 1.0,
                                               static_cast<double>(maxReps)));
    }
}

/**
 * Collects metrics in output order, with each one's summary for the
 * detail line.
 */
class MetricSet
{
  public:
    /**
     * Add a metric whose value is the median of the samples @p v;
     * @p higherIsWorse orients the tail percentile.
     */
    void
    add(const char *name, const char *unit, std::vector<double> v,
        bool higherIsWorse = true)
    {
        double med = median(v);
        add(name, unit, med, std::move(v), higherIsWorse);
    }

    /** Add one exact value (a modeled count or a derived ratio). */
    void
    value(const char *name, const char *unit, double x)
    {
        add(name, unit, x, {x}, true);
    }

    /**
     * Add a metric reported as @p value, with its per-iteration
     * samples @p v (median, tail and count) in the detail line.
     */
    void
    add(const char *name, const char *unit, double value,
        std::vector<double> v, bool higherIsWorse)
    {
        std::string values;
        for (double x : v) {
            char buf[32];
            std::snprintf(buf, sizeof buf, "%.6g", x);
            values += (values.empty() ? "" : ", ") + std::string(buf);
        }
        Summary s = summarize(std::move(v), higherIsWorse);
        metrics_.push_back({name, value, unit});
        detail_ += detail_.empty() ? "" : ", ";
        detail_ += jsonQuote(name) + ": {\"value\": " + jsonNumber(value) +
                   ", \"median\": " + jsonNumber(s.median) +
                   ", \"samples\": " + std::to_string(s.samples);
        if (s.hasTail())
            detail_ += ", \"tail_pct\": " + jsonNumber(s.tailPct) +
                       ", \"tail_value\": " + jsonNumber(s.tailValue);
        detail_ += ", \"values\": [" + values + "]}";
    }

    std::vector<Metric> &metrics() { return metrics_; }
    const std::string &detail() const { return detail_; }

  private:
    std::vector<Metric> metrics_;
    std::string detail_;
};

/** @p f applied to every sample. */
template <class F>
std::vector<double>
each(const std::vector<Sample> &ss, F f)
{
    std::vector<double> v;
    v.reserve(ss.size());
    for (const Sample &s : ss)
        v.push_back(f(s));
    return v;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

/** Work per millisecond of @p op over all of @p ss. */
double
totalRate(const std::vector<Sample> &ss, Op op)
{
    double work = 0, ms = 0;
    for (const Sample &s : ss) {
        work += s.op[op].work;
        ms += s.op[op].ms;
    }
    return ratio(work, ms);
}

/**
 * A rate metric: the whole timed loop's work ÷ wall (what a user
 * sees over the run), scaled by @p scale; the per-iteration rates go
 * to the detail line.
 */
void
addRate(MetricSet &m, const std::vector<Sample> &ss, const char *name,
        const char *unit, Op op, double scale)
{
    m.add(name, unit, scale * totalRate(ss, op),
          each(ss, [&](const Sample &s) {
              return scale * ratio(s.op[op].work, s.op[op].ms);
          }),
          false);
}

void
endToEnd(const Bench &b, const std::vector<Sample> &plain, MetricSet &m)
{
    std::vector<double> setupS;
    for (double ms : b.setupMs())
        setupS.push_back(ms / 1000.0);
    m.add("setup_s", "s", setupS);
    // Instructions per millisecond / 1e3 are millions per second.
    addRate(m, plain, "record_mips", "MIPS", Record, 1e-3);
    double rec = 0, base = 0;
    for (std::size_t i : b.plan().pipeline) {
        const Reference &r = b.refs()[i];
        rec += static_cast<double>(r.record.cycles);
        base += static_cast<double>(r.baseline.cycles);
    }
    m.value("record_overhead_pct", "%", 100.0 * ratio(rec - base, base));
    addRate(m, plain, "replay_mips", "MIPS", Replay, 1e-3);
    addRate(m, plain, "par_replay_mips", "MIPS", Parallel, 1e-3);
    // Chunks per millisecond are thousands per second.
    addRate(m, plain, "analyze_kchunks_per_s", "kchunk/s", Analyze, 1.0);
    addRate(m, plain, "verify_mb_per_s", "MB/s", Verify, 1e-3);
    addRate(m, plain, "serve_spheres_per_s", "1/s", Serve, 1e3);
    m.value("peak_rss_mb", "MB", peakRssMb());
}

/** Self time of each span name, per call, per traced iteration. */
class LayerTimes
{
  public:
    LayerTimes(const std::vector<Span> &spans,
               const std::vector<std::uint64_t> &tracedIters)
        : n_(tracedIters.size()), glueUs_(n_), iterUs_(n_)
    {
        std::map<std::uint64_t, std::size_t> slot;
        for (std::size_t k = 0; k < n_; ++k)
            slot[tracedIters[k]] = k;
        std::vector<double> self = selfTimesUs(spans);
        for (std::size_t i = 0; i < spans.size(); ++i) {
            auto it = slot.find(spans[i].group);
            if (it == slot.end())
                continue;
            std::size_t k = it->second;
            const std::string &name = spans[i].name;
            Acc &a = acc_[name];
            a.us.resize(n_);
            a.calls.resize(n_);
            a.us[k] += self[i];
            a.calls[k]++;
            if (name == "iteration")
                iterUs_[k] = spans[i].durUs();
            // Self time of the iteration and operation spans is the
            // glue between calls: wall no call span covers.
            if (name == "iteration" || name.rfind("op.", 0) == 0)
                glueUs_[k] += self[i];
        }
    }

    /** Mean self ms per call of @p span, per traced iteration. */
    std::vector<double>
    perCallMs(const char *span) const
    {
        std::vector<double> v(n_);
        auto it = acc_.find(span);
        if (it != acc_.end())
            for (std::size_t k = 0; k < n_; ++k)
                v[k] = ratio(it->second.us[k], it->second.calls[k]) / 1e3;
        return v;
    }

    /** Share of each traced iteration's wall that no call covers. */
    std::vector<double>
    unattributedPct() const
    {
        std::vector<double> v(n_);
        for (std::size_t k = 0; k < n_; ++k)
            v[k] = 100.0 * ratio(glueUs_[k], iterUs_[k]);
        return v;
    }

  private:
    struct Acc
    {
        std::vector<double> us;
        std::vector<double> calls;
    };
    std::size_t n_;
    std::map<std::string, Acc> acc_;
    std::vector<double> glueUs_, iterUs_;
};

/** Element-wise f(a[i], b[i]). */
template <class F>
std::vector<double>
zip(std::vector<double> a, const std::vector<double> &b, F f)
{
    for (std::size_t i = 0; i < a.size() && i < b.size(); ++i)
        a[i] = f(a[i], b[i]);
    return a;
}

void
perLayer(const Bench &b, const std::vector<Sample> &plain,
         const std::vector<Sample> &traced,
         const std::vector<std::uint64_t> &tracedIters, MetricSet &m)
{
    LayerTimes lt(b.tracer().spans(), tracedIters);
    auto layer = [&](const char *span) { return lt.perCallMs(span); };
    auto count = [&](const char *name) {
        return each(traced, [name](const Sample &s) {
            auto it = s.counts.find(name);
            return it == s.counts.end() ? 0.0 : it->second;
        });
    };
    auto per = [&](auto f) { return each(traced, f); };
    auto minus = [](double x, double y) { return x - y; };
    auto over = [](double x, double y) { return ratio(x, y); };

    // workloads
    m.add("workloads.build_ms", "ms", b.buildMs());

    // core / cpu / mem / kernel: the simulator
    std::vector<double> baseMs = layer("core.baseline");
    std::vector<double> recMs = layer("core.record");
    m.add("core.baseline_ms", "ms", baseMs);
    m.add("core.record_ms", "ms", recMs);
    m.add("rnr.record_extra_pct", "%",
          zip(recMs, baseMs, [](double r, double bl) {
              return 100.0 * ratio(r - bl, bl);
          }));

    // Modeled counts: exact, from the reference recordings.
    double instrs = 0, cycles = 0, baseCycles = 0, l1 = 0, bus = 0,
           cs = 0, chunks = 0, conflicts = 0, falseC = 0, coalesced = 0,
           drains = 0, overhead = 0, inputs = 0, memLog = 0, bytes = 0;
    for (std::size_t i : b.plan().pipeline) {
        const Reference &r = b.refs()[i];
        const qr::RunMetrics &x = r.record;
        instrs += static_cast<double>(x.instrs);
        cycles += static_cast<double>(x.cycles);
        baseCycles += static_cast<double>(r.baseline.cycles);
        l1 += static_cast<double>(x.l1Misses);
        bus += static_cast<double>(x.busTxns);
        cs += static_cast<double>(x.contextSwitches);
        chunks += static_cast<double>(x.chunks);
        for (qr::ChunkReason why :
             {qr::ChunkReason::ConflictRaw, qr::ChunkReason::ConflictWar,
              qr::ChunkReason::ConflictWaw})
            conflicts +=
                static_cast<double>(x.reasonCounts[static_cast<int>(why)]);
        falseC += static_cast<double>(x.falseConflicts);
        coalesced += static_cast<double>(x.coalescedAccesses);
        drains += static_cast<double>(x.cbufDrains);
        overhead += static_cast<double>(x.recordingOverheadCycles);
        inputs += static_cast<double>(x.inputRecords);
        memLog += static_cast<double>(x.logSizes.memoryBytes);
        bytes += static_cast<double>(r.bytes.size());
    }
    m.value("sim.instructions", "count", instrs);
    m.value("sim.cycles", "cycles", cycles);
    m.value("sim.baseline_cycles", "cycles", baseCycles);
    m.value("mem.l1_misses", "count", l1);
    m.value("mem.bus_txns", "count", bus);
    m.value("kernel.context_switches", "count", cs);
    m.value("rnr.chunks", "count", chunks);
    m.value("rnr.conflict_terminations", "count", conflicts);
    m.value("rnr.false_conflicts", "count", falseC);
    m.value("rnr.coalesced_accesses", "count", coalesced);
    m.value("capo.cbuf_drains", "count", drains);
    m.value("capo.overhead_cycles", "cycles", overhead);
    m.value("capo.input_records", "count", inputs);
    m.value("capo.mem_log_bytes", "B", memLog);

    // capo
    m.add("capo.save_ms", "ms", layer("capo.save"));
    m.add("capo.load_ms", "ms", layer("capo.load"));
    m.add("capo.map_open_ms", "ms", layer("capo.map_open"));
    m.add("capo.read_ms", "ms", layer("capo.read"));
    m.add("capo.unwrap_ms", "ms", layer("capo.unwrap"));
    m.value("capo.artifact_bytes", "B", bytes);

    // analyze
    m.add("analyze.lint_ms", "ms", layer("analyze.lint"));
    m.add("analyze.stream_ms", "ms", layer("analyze.stream"));
    m.add("analyze.predict_ms", "ms", layer("analyze.predict"));
    for (const char *c : {"analyze.conflict_edges", "analyze.racy_edges",
                          "analyze.predicted_races",
                          "analyze.peak_live_chunks"})
        m.add(c, "count", count(c));
    m.add("analyze.peak_resident_bytes", "B",
          count("analyze.peak_resident_bytes"));

    // replay
    std::vector<double> seqMs = layer("replay.seq");
    std::vector<double> graphMs = layer("replay.graph");
    std::vector<double> parMs = layer("replay.par");
    std::vector<double> par1Ms = layer("replay.par1");
    m.add("replay.seq_ms", "ms", seqMs);
    m.add("replay.graph_ms", "ms", graphMs);
    m.add("replay.par_ms", "ms", parMs);
    m.add("replay.par_exec_ms", "ms", zip(parMs, graphMs, minus));
    m.add("replay.graph_edges", "count", count("replay.graph_edges"));
    m.add("replay.edges_per_chunk", "ratio",
          zip(count("replay.graph_edges"), count("replay.graph_nodes"), over));
    m.add("replay.available_parallelism", "x",
          zip(count("modeled.seq_cycles"), count("modeled.critical_cycles"),
              over));
    m.add("replay.modeled_speedup", "x",
          zip(count("modeled.seq_cycles"), count("modeled.par_cycles"), over));
    m.add("replay.fence_checks", "count", count("replay.fence_checks"));
    m.add("replay.version_slots", "count", count("replay.version_slots"));

    // The library's own timers beside the outside-timed calls (both
    // per sphere, summed over the plan's spheres).
    std::vector<double> libGraph = count("lib.graph_ms");
    std::vector<double> libExec = count("lib.exec_ms");
    const auto nSpheres = static_cast<double>(b.plan().pipeline.size());
    m.add("replay.lib_graph_ms", "ms", libGraph);
    m.add("replay.lib_exec_ms", "ms", libExec);
    m.add("replay.lib_untimed_ms", "ms",
          zip(zip(parMs, libGraph,
                  [nSpheres](double p, double g) { return p * nSpheres - g; }),
              libExec, minus));
    m.add("replay.lib_measured_speedup", "x",
          zip(count("lib.seq_exec_ms"), libExec, over));
    m.add("replay.par1_ms", "ms", par1Ms);
    m.add("replay.lib_measured_speedup_j1", "x",
          zip(count("lib.seq_exec_ms"), count("lib.j1_exec_ms"), over));
    m.add("replay.e2e_speedup_j1", "x", zip(seqMs, par1Ms, over));
    m.add("replay.e2e_speedup_j4", "x", zip(seqMs, parMs, over));
    // Derived from the run's untraced iterations; not an end-to-end
    // metric (see README).
    m.value("par_replay_speedup", "x",
            ratio(totalRate(plain, Parallel), totalRate(plain, Replay)));

    // service / retention (counters are per burst)
    std::vector<double> submitUs;
    for (const Sample &s : traced)
        submitUs.insert(submitUs.end(), s.submitUs.begin(), s.submitUs.end());
    std::vector<double> burstMs = per([](const Sample &s) {
        return ratio(s.op[Serve].ms, s.op[Serve].calls);
    });
    std::vector<double> directMs = per([](const Sample &s) {
        return s.directMs;
    });
    m.add("service.submit_us", "us", submitUs);
    m.add("service.burst_ms", "ms", burstMs);
    m.add("service.direct_sphere_ms", "ms", directMs);
    m.add("service.shard_efficiency", "ratio",
          zip(directMs, burstMs,
              [](double d, double w) { return ratio(d, serviceShards * w); }));
    m.add("retention.enforce_ms", "ms", layer("service.repair"));
    for (const char *c : {"service.saved", "service.save_retries",
                          "service.shed", "service.unaccounted",
                          "retention.compacted",
                          "retention.compact_failures",
                          "retention.evicted"})
        m.add(c, "count", count(c));
    m.add("service.saved_bytes", "B", count("service.saved_bytes"));

    // the benchmark itself
    auto iterMs = [](const Sample &s) { return s.iterMs; };
    m.value("bench.tracing_overhead_pct", "%",
            100.0 * ratio(median(per(iterMs)) - median(each(plain, iterMs)),
                          median(each(plain, iterMs))));
    m.add("bench.unattributed_pct", "%", lt.unattributedPct());
    m.add("bench.check_ms", "ms", layer("bench.check"));
    m.add("host.probe_ms", "ms", per([](const Sample &s) {
              return s.probeMs;
          }));
}

} // namespace

RunResult
runBenchmark(const Options &opt)
{
    Bench b(opt);
    for (int k = 0; k < setupRounds; ++k)
        b.setup();

    // One untimed warm-up iteration (checked like the rest) faults in
    // the guest memories, fills the allocator and sizes each
    // operation's repetitions.
    b.calibrate(b.iterate(false, 0));

    // Iterate for opt.seconds of wall, at least minSamples of each
    // kind. A traced run alternates untraced and traced iterations,
    // so tracing overhead compares like with like.
    constexpr std::size_t minSamples = 3;
    std::vector<Sample> plain, traced;
    std::vector<std::uint64_t> tracedIters;
    auto t0 = Clock::now();
    for (std::uint64_t iter = 1;; ++iter) {
        bool tr = opt.trace && iter % 2 == 0;
        Sample s = b.iterate(tr, iter);
        if (tr) {
            traced.push_back(std::move(s));
            tracedIters.push_back(iter);
        } else {
            plain.push_back(std::move(s));
        }
        bool enough = plain.size() >= minSamples &&
                      (!opt.trace || traced.size() >= minSamples);
        if (enough && msSince(t0) >= opt.seconds * 1000.0)
            break;
    }

    MetricSet m;
    if (opt.trace)
        perLayer(b, plain, traced, tracedIters, m);
    else
        endToEnd(b, plain, m);

    if (opt.trace && !opt.outDir.empty()) {
        fs::create_directories(opt.outDir);
        std::string path = (fs::path(opt.outDir) /
                            ("trace-" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + ".json"))
                               .string();
        std::ofstream(path) << chromeTraceJson(b.tracer().spans());
        std::fprintf(stderr, "perfbench: wrote %s\n", path.c_str());
    }

    RunResult r;
    r.attempted = b.attempted();
    r.failed = b.failed();
    r.metrics = std::move(m.metrics());
    auto list = [](const auto &xs) {
        std::string out;
        for (const auto &x : xs)
            out += (out.empty() ? "" : ", ") + std::to_string(x);
        return "[" + out + "]";
    };
    std::vector<int> scales;
    for (const GuestSphere &g : b.plan().spheres)
        scales.push_back(g.scale);
    r.detail = "{\"workload\": " + jsonQuote(opt.workload) +
               ", \"seed\": " + std::to_string(opt.seed) +
               ", \"scales\": " + list(scales) +
               ", \"reps\": " + list(b.reps()) +
               ", \"jobs\": " + std::to_string(replayJobs) +
               ", \"nproc\": " +
               std::to_string(std::thread::hardware_concurrency()) +
               ", \"iterations\": " + std::to_string(plain.size()) +
               ", \"traced_iterations\": " +
               std::to_string(traced.size()) + ", \"metrics\": {" +
               m.detail() + "}}";
    return r;
}

} // namespace perfbench
