/**
 * @file
 * Where the library's threads run during a run of the benchmark.
 *
 * The library starts its threads itself: the record service its
 * shards, replaySphereParallel() its workers on every call. On the
 * small virtual machines the benchmark runs on, the kernel often left
 * every new or woken thread on the CPU of the thread that started or
 * woke it, and took about a second of continuous load to move one.
 * Shards sleep between bursts and workers live for one call, so both
 * could stay stacked on one CPU for a whole run, or spread, by chance
 * and by what else the host ran: serve_spheres_per_s halved or doubled
 * between runs of one seed, and par_replay_mips moved by a third
 * between two sets of runs of the same code. Inside a SpreadThreads
 * scope each thread the process starts is bound to a CPU of its own,
 * so those rates measure the program on the CPUs it asked for.
 */

#ifndef PERFBENCH_PLACEMENT_HH
#define PERFBENCH_PLACEMENT_HH

namespace perfbench
{

/**
 * While alive, the k-th thread the process starts (counting from 0 in
 * this scope) is bound to the k-th CPU of the process's CPU set, round
 * robin. The thread creating them keeps its own affinity. Scopes do
 * not nest, and no other thread may start threads meanwhile.
 */
class SpreadThreads
{
  public:
    SpreadThreads();
    ~SpreadThreads();

    SpreadThreads(const SpreadThreads &) = delete;
    SpreadThreads &operator=(const SpreadThreads &) = delete;
};

} // namespace perfbench

#endif // PERFBENCH_PLACEMENT_HH
