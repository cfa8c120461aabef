#include "trace/trace_generator.hh"

#include <cmath>

namespace mcdvfs
{

namespace
{

/**
 * The draw threshold of probability @c p.  Rng::uniform() is m * 2^-53
 * for the 53-bit integer draw m, and scaling by 2^53 is exact, so
 * "uniform() < p" is exactly "m < ceil(p * 2^53)".
 */
std::uint64_t
threshold(double p)
{
    return static_cast<std::uint64_t>(std::ceil(std::ldexp(p, 53)));
}

/** @c spec after validation, so the tier bounds below are positive. */
const PhaseSpec &
validated(const PhaseSpec &spec)
{
    spec.validate();
    return spec;
}

} // namespace

TraceGenerator::TraceGenerator(const PhaseSpec &spec, std::uint64_t seed)
    : spec_(validated(spec)), rng_(seed),
      hotEdge_(threshold(spec_.hotFrac)),
      warmEdge_(threshold(spec_.hotFrac + spec_.warmFrac)),
      hotWords_(spec_.hotBytes / kAccessBytes),
      warmWords_(spec_.warmBytes / kAccessBytes),
      coldWords_(spec_.coldBytes / kAccessBytes)
{
    // Summed in draw order, as the per-instruction chain of
    // "edge += frac" did, so every edge keeps its exact bits.
    const double fracs[6] = {spec_.loadFrac, spec_.storeFrac,
                             spec_.branchFrac, spec_.fpFrac,
                             spec_.mulFrac, spec_.gpuKickFrac};
    double edge = 0.0;
    for (int i = 0; i < 6; ++i)
        kindEdge_[i] = threshold(edge += fracs[i]);
    // Start the sequential cold stream at a seed-dependent offset so
    // different samples touch different rows.
    coldCursor_ = rng_.uniformInt(coldWords_) * kAccessBytes;
}

void
TraceGenerator::generate(Count n, std::vector<InstrRecord> &out)
{
    out.reserve(out.size() + n);
    run(n, [&out](const InstrRecord &rec) { out.push_back(rec); });
}

} // namespace mcdvfs
