#include "placement.hh"

#include <dlfcn.h>
#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <vector>

namespace perfbench
{

namespace
{

std::atomic<bool> spreading{false};
std::atomic<unsigned> nextThread{0};

/** The CPUs the process may run on, read once. */
const std::vector<int> &
processCpus()
{
    static const std::vector<int> cpus = [] {
        std::vector<int> v;
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof set, &set) == 0)
            for (int c = 0; c < CPU_SETSIZE; ++c)
                if (CPU_ISSET(c, &set))
                    v.push_back(c);
        return v;
    }();
    return cpus;
}

} // namespace

SpreadThreads::SpreadThreads()
{
    processCpus();
    nextThread.store(0);
    spreading.store(true);
}

SpreadThreads::~SpreadThreads()
{
    spreading.store(false);
}

} // namespace perfbench

/**
 * Every thread of the process, std::thread's included, starts here:
 * the executable's definition comes before the C library's. It starts
 * the thread with the C library's pthread_create and, inside a
 * SpreadThreads scope, binds it to the next CPU.
 */
extern "C" int
pthread_create(pthread_t *thread, const pthread_attr_t *attr,
               void *(*start)(void *), void *arg)
{
    using Create = int (*)(pthread_t *, const pthread_attr_t *,
                           void *(*)(void *), void *);
    static const Create create =
        reinterpret_cast<Create>(dlsym(RTLD_NEXT, "pthread_create"));
    int rc = create(thread, attr, start, arg);
    const std::vector<int> &cpus = perfbench::processCpus();
    if (rc == 0 && perfbench::spreading.load() && !cpus.empty()) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[perfbench::nextThread.fetch_add(1) % cpus.size()],
                &one);
        pthread_setaffinity_np(*thread, sizeof one, &one);
    }
    return rc;
}
