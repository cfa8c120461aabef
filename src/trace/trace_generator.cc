#include "trace/trace_generator.hh"

namespace mcdvfs
{

namespace
{

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
      warmEdge_(spec_.hotFrac + spec_.warmFrac),
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
        kindEdge_[i] = edge += fracs[i];
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
