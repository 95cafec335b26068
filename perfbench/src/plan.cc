#include "plan.hh"

#include <array>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "sim/rng.hh"
#include "workloads/micro.hh"
#include "workloads/workload.hh"

namespace perfbench
{

namespace
{

/** Nominal scales and the half-width of the seeded band around them. */
constexpr int radixScale = 16;
constexpr int oceanScale = 32;
constexpr int scaleBand = 1;

/** splitmix64: spreads consecutive seeds over the whole range. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

int
seededScale(int nominal, std::uint64_t seed)
{
    return nominal - scaleBand +
           static_cast<int>(mix(seed) % (2 * scaleBand + 1));
}

GuestSphere
splash2Sphere(const std::string &kind, const std::string &name, int scale)
{
    GuestSphere g;
    g.kind = kind;
    g.threads = 4;
    g.scale = scale;
    g.name = name;
    for (const qr::WorkloadSpec &spec : qr::splash2Suite())
        if (spec.name == kind)
            g.program = spec.make(g.threads, g.scale).program;
    return g;
}

Plan
pipeline(const std::string &workload, const std::string &kind,
         int nominal, std::uint64_t seed)
{
    Plan p;
    p.workload = workload;
    p.exactShadow = true;
    p.spheres.push_back(
        splash2Sphere(kind, kind, seededScale(nominal, seed)));
    p.pipeline = {0};
    // The bursts submit a sphere of the nominal scale, one per service
    // shard, whatever the seed: spheres per second counts spheres, not
    // work, and radix at scale 17 read a quarter fewer than at 15.
    // It is a sphere of its own for every seed, so set-up does the
    // same work for every seed.
    p.spheres.push_back(splash2Sphere(kind, kind + "-burst", nominal));
    p.burst = {1, 1};
    return p;
}

Plan
fleet(std::uint64_t seed)
{
    Plan p;
    p.workload = "serve-fleet";
    qr::Rng rng(mix(seed));
    auto shuffle = [&rng](auto &v) {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[rng.next64() % i]);
    };
    struct Pick
    {
        const char *kind;
        int scale;
    };
    // The service shards spheres by submission order (sphere id mod
    // its 2 shards), so the burst alternates two halves of equal
    // work: of each kind's scales {1, 2, 2, 3}, one half gets {1, 3}
    // and the other {2, 2}. Otherwise the seed would set how unevenly
    // the shards are loaded, and with it the burst's wall.
    std::array<std::vector<Pick>, 2> half;
    for (const char *kind : {"counter-racy", "prodcons", "nondet-mix"}) {
        std::size_t h = rng.next64() % 2;
        half[h].push_back({kind, 1});
        half[h].push_back({kind, 3});
        half[1 - h].push_back({kind, 2});
        half[1 - h].push_back({kind, 2});
    }
    shuffle(half[0]);
    shuffle(half[1]);
    std::vector<Pick> picks;
    for (std::size_t k = 0; k < half[0].size(); ++k) {
        picks.push_back(half[0][k]);
        picks.push_back(half[1][k]);
    }
    for (const Pick &pk : picks) {
        GuestSphere g;
        g.kind = pk.kind;
        g.threads = 2;
        g.scale = pk.scale;
        char name[64];
        std::snprintf(name, sizeof name, "f%zu-%s-s%d", p.spheres.size(),
                      pk.kind, pk.scale);
        g.name = name;
        std::string k = g.kind;
        if (k == "counter-racy")
            g.program = qr::makeRacyCounter(2, 500 * g.scale, false).program;
        else if (k == "prodcons")
            g.program = qr::makeProdCons(2, 100 * g.scale).program;
        else
            g.program = qr::makeNondetMix(2, 100 * g.scale).program;
        p.pipeline.push_back(p.spheres.size());
        p.burst.push_back(p.spheres.size());
        p.spheres.push_back(std::move(g));
    }
    return p;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "radix-pipeline", "ocean-pipeline", "serve-fleet"};
    return names;
}

Plan
buildPlan(const std::string &workload, std::uint64_t seed)
{
    if (workload == "radix-pipeline")
        return pipeline(workload, "radix", radixScale, seed);
    if (workload == "ocean-pipeline")
        return pipeline(workload, "ocean", oceanScale, seed);
    if (workload == "serve-fleet")
        return fleet(seed);
    throw std::invalid_argument("unknown workload '" + workload + "'");
}

} // namespace perfbench
