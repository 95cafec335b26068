/**
 * @file
 * The benchmark's workloads: which guest programs one run drives, and
 * how the workload seed picks them.
 *
 *  - radix-pipeline: radix, 4 guest threads, exact shadow sets. The
 *    conflict-dense pipeline: recording, the container codec, the
 *    chunk graph and the analyzer do most of the work.
 *  - ocean-pipeline: ocean, 4 guest threads, exact shadow sets. The
 *    compute-bound pipeline: the simulator and replay execution do
 *    the work, so it is the no-change control for analyzer and codec
 *    changes.
 *  - serve-fleet: a seeded mix of small 2-thread micro workloads
 *    (counter, prodcons, nondet-mix) submitted as bursts to a
 *    2-shard record service under a small retention budget.
 *
 * The SPLASH-2 analogs take no seed (their data derives from the
 * scale), so on the pipelines the seed picks the scale from a narrow
 * band around the nominal one; their service bursts always take the
 * nominal scale, since spheres per second is not normalized by sphere
 * size. On serve-fleet the seed sets the order
 * of the mix and which half of the burst (so which service shard) gets
 * which scales of a kind; the work per burst, and per shard, is the
 * same for every seed.
 */

#ifndef PERFBENCH_PLAN_HH
#define PERFBENCH_PLAN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/assembler.hh"

namespace perfbench
{

/** Seed the benchmark uses when none is given. (20261017 is the
 *  held-out seed, kept out of tuning for checking a claimed gain.) */
constexpr std::uint64_t defaultSeed = 1;

/** One guest program the pipeline records, verifies, analyzes and
 *  replays. */
struct GuestSphere
{
    std::string name; //!< unique within the plan; artifact stem
    std::string kind; //!< workload name as `qrec list` shows it
    int threads = 4;
    int scale = 1;
    qr::Program program;
};

struct Plan
{
    std::string workload;
    std::vector<GuestSphere> spheres;
    /** Indices into spheres the pipeline operations run over. */
    std::vector<std::size_t> pipeline;
    /** Indices into spheres submitted per service burst. */
    std::vector<std::size_t> burst;
    bool exactShadow = false;
};

/** The workload names, in the order BENCHMARK.json lists them. */
const std::vector<std::string> &workloadNames();

/**
 * Build the plan for @p workload and @p seed (assembles the guest
 * programs: the workloads.build phase). Throws std::invalid_argument
 * for an unknown workload name.
 */
Plan buildPlan(const std::string &workload, std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_PLAN_HH
