#include "sim/sample_simulator.hh"

#include <algorithm>

#include "common/hash.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"
#include "sim/profile_cache.hh"
#include "trace/trace_generator.hh"

namespace mcdvfs
{

namespace
{

std::uint64_t
addCacheConfig(std::uint64_t h, const CacheConfig &cache)
{
    h = fnv1aString(h, cache.name);
    h = fnv1aWordBytes(h, cache.name.size());
    h = fnv1aWordBytes(h, cache.sizeBytes);
    h = fnv1aWordBytes(h, cache.associativity);
    h = fnv1aWordBytes(h, cache.lineBytes);
    h = fnv1aWordBytes(h, cache.latencyCycles);
    return h;
}

/**
 * One sample's DRAM side: zeroes the per-sample counters of the warm
 * hierarchy and DRAM model, classifies each DRAM transaction the
 * hierarchy hands it, and turns the counts into the sample's rates.
 */
class SampleRun
{
  public:
    SampleRun(CacheHierarchy &hierarchy, DramDevice &dram)
        : hierarchy_(hierarchy), dram_(dram)
    {
        hierarchy_.clearStats();
        dram_.clearStats();
    }

    /** The hierarchy's DRAM sink (called from its miss path only). */
    void
    operator()(std::uint64_t addr, bool is_write, bool is_prefetch)
    {
        dram_.access(addr, is_write);
        dramWrites_ += is_write;
        dramPrefetch_ += !is_write & is_prefetch;
        dramReads_ += !is_write & !is_prefetch;
    }

    SampleProfile
    profile(Count instructions, Count gpu_kicks,
            const PhaseSpec &spec) const
    {
        const auto &l1 = hierarchy_.l1().stats();
        const auto &dram_stats = dram_.stats();
        const double n = static_cast<double>(instructions);

        SampleProfile profile;
        profile.phaseName = spec.name;
        profile.baseCpi = spec.baseCpi;
        profile.activity = spec.activity;
        profile.mlp = spec.mlp;
        profile.l1Mpki = 1000.0 * static_cast<double>(l1.misses()) / n;
        // L2 demand misses are the reads L2 forwarded to DRAM.
        profile.l2Mpki = 1000.0 * static_cast<double>(dramReads_) / n;
        profile.l2PerInstr = static_cast<double>(l1.misses()) / n;
        profile.dramReadsPerInstr = static_cast<double>(dramReads_) / n;
        profile.dramWritesPerInstr = static_cast<double>(dramWrites_) / n;
        profile.dramPrefetchPerInstr =
            static_cast<double>(dramPrefetch_) / n;
        profile.gpuWorkPerInstr =
            (static_cast<double>(gpu_kicks) / n) * spec.gpuCyclesPerKick;
        profile.gpuActivity = spec.gpuActivity;

        const Count dram_total = dram_stats.accesses();
        if (dram_total > 0) {
            const double dn = static_cast<double>(dram_total);
            profile.rowHitFrac =
                static_cast<double>(dram_stats.rowHits) / dn;
            profile.rowClosedFrac =
                static_cast<double>(dram_stats.rowClosed) / dn;
            profile.rowConflictFrac =
                static_cast<double>(dram_stats.rowConflicts) / dn;
        }
        return profile;
    }

  private:
    CacheHierarchy &hierarchy_;
    DramDevice &dram_;
    Count dramReads_ = 0;
    Count dramWrites_ = 0;
    Count dramPrefetch_ = 0;
};

/**
 * Measure one sample of @c instructions: @c feed(body) calls body once
 * per instruction, and body is the per-instruction work every source
 * shares — count GPU kicks, send loads and stores through a hierarchy
 * Pass.  The L1 hit stays in the caller's loop; an L1 miss is one
 * call, which also classifies the DRAM transactions.
 *
 * @throws FatalError when @c instructions is 0 (every rate would be
 *         0/0)
 */
template <class Feed>
SampleProfile
measure(CacheHierarchy &hierarchy, DramDevice &dram, Count instructions,
        const PhaseSpec &spec, Feed &&feed)
{
    if (instructions == 0)
        fatal("sample simulator: a sample needs at least one instruction");
    SampleRun sample(hierarchy, dram);
    Count gpu_kicks = 0;
    {
        CacheHierarchy::Pass<SampleRun> pass(hierarchy, sample);
        feed([&](const InstrRecord &instr) {
            gpu_kicks += instr.kind == InstrKind::GpuKick;
            if (isMemory(instr.kind))
                pass.access(instr.addr, instr.kind == InstrKind::Store);
        });
    }
    return sample.profile(instructions, gpu_kicks, spec);
}

} // namespace

std::uint64_t
SampleSimulatorConfig::profileFingerprint() const
{
    std::uint64_t h = fnv1aString(kFnvOffsetBasis, "sampler-config-v1");
    h = addCacheConfig(h, hierarchy.l1);
    h = addCacheConfig(h, hierarchy.l2);
    h = fnv1aWordBytes(h, hierarchy.nextLinePrefetch ? 1 : 0);
    h = fnv1aWordBytes(h, dram.banks);
    h = fnv1aWordBytes(h, dram.rowBytes);
    h = fnv1aWordBytes(h, dram.busBytes);
    h = fnv1aWordBytes(h, dram.lineBytes);
    h = fnv1aWordBytes(h, profileWarmupInstructions);
    return h;
}

SampleSimulator::SampleSimulator(const SampleSimulatorConfig &config)
    : config_(config), hierarchy_(config.hierarchy), dram_(config.dram),
      configKey_(config.profileFingerprint())
{
    if (config_.simInstructionsPerSample == 0)
        fatal("sample simulator: simInstructionsPerSample must be > 0");
}

SampleProfile
SampleSimulator::runSample(const PhaseSpec &spec, std::uint64_t seed,
                           Count instructions)
{
    // The fused loop: each instruction goes from the generator's kind
    // branch straight into the hierarchy, with no virtual call and no
    // intermediate buffer between them.
    TraceGenerator gen(spec, seed);
    return measure(hierarchy_, dram_, instructions, spec,
                   [&](auto &&body) { gen.run(instructions, body); });
}

SampleProfile
SampleSimulator::profileFromSource(TraceSource &source, Count instructions,
                                   const PhaseSpec &spec)
{
    return measure(hierarchy_, dram_, instructions, spec, [&](auto &&body) {
        for (Count i = 0; i < instructions; ++i)
            body(source.next());
    });
}

SampleProfile
SampleSimulator::characterizeCanonical(const PhaseSpec &spec,
                                       std::uint64_t seed,
                                       Count instructions)
{
    hierarchy_.reset();
    dram_.reset();
    // Deterministic per-phase warmup: same chunking and stream-seed
    // derivation as the sequential warmup, but over this phase alone,
    // so the measurement below depends on nothing but the arguments.
    const obs::Clock::time_point warmup_start = obs::metricsNow();
    Count remaining = config_.profileWarmupInstructions;
    std::size_t w = 0;
    while (remaining > 0) {
        const Count chunk = std::min(remaining, instructions);
        runSample(spec,
                  seed ^ (0x57a7ab1e0ddba11ull + w * 0x9e3779b97f4a7c15ull),
                  chunk);
        remaining -= chunk;
        ++w;
    }
    lastStats_.warmupNs += obs::elapsedNs(warmup_start);
    return runSample(spec, seed, instructions);
}

std::vector<SampleProfile>
SampleSimulator::characterize(const WorkloadProfile &workload)
{
    lastStats_ = CharacterizeStats{};
    if (cache_ == nullptr)
        return characterizeSequential(workload);

    std::vector<SampleProfile> profiles;
    profiles.reserve(workload.sampleCount());
    for (std::size_t s = 0; s < workload.sampleCount(); ++s) {
        const PhaseSpec spec = workload.phaseFor(s);
        const std::uint64_t seed = workload.traceSeedFor(s);
        ProfileKey key;
        key.phase = spec.fingerprint();
        key.seed = seed;
        key.instructions = config_.simInstructionsPerSample;
        key.config = configKey_;
        if (auto hit = cache_->find(key)) {
            ++lastStats_.cacheHits;
            profiles.push_back(*hit);
            continue;
        }
        ++lastStats_.cacheMisses;
        profiles.push_back(characterizeCanonical(
            spec, seed, config_.simInstructionsPerSample));
        cache_->insert(
            key, std::make_shared<const SampleProfile>(profiles.back()));
    }
    return profiles;
}

std::vector<SampleProfile>
SampleSimulator::characterizeSequential(const WorkloadProfile &workload)
{
    hierarchy_.reset();
    dram_.reset();

    // Warm caches and row buffers by cycling through the first phases
    // without recording, so sample 0 is measured at steady state.
    const obs::Clock::time_point warmup_start = obs::metricsNow();
    const std::size_t warm_span =
        std::min<std::size_t>(8, workload.sampleCount());
    Count remaining = config_.warmupInstructions;
    std::size_t w = 0;
    while (remaining > 0) {
        const Count chunk =
            std::min(remaining, config_.simInstructionsPerSample);
        // Each warmup chunk gets a fresh stream seed: replaying the
        // same few streams would re-touch the same addresses and
        // leave large working sets cold.
        runSample(workload.phaseFor(w % warm_span),
                  workload.traceSeedFor(w % warm_span) ^
                      (0x57a7ab1e0ddba11ull + w * 0x9e3779b97f4a7c15ull),
                  chunk);
        remaining -= chunk;
        ++w;
    }
    lastStats_.warmupNs += obs::elapsedNs(warmup_start);

    std::vector<SampleProfile> profiles;
    profiles.reserve(workload.sampleCount());
    for (std::size_t s = 0; s < workload.sampleCount(); ++s) {
        profiles.push_back(runSample(workload.phaseFor(s),
                                     workload.traceSeedFor(s),
                                     config_.simInstructionsPerSample));
    }
    return profiles;
}

SampleProfile
SampleSimulator::characterizeOne(const PhaseSpec &spec, std::uint64_t seed,
                                 Count instructions)
{
    hierarchy_.reset();
    dram_.reset();
    return runSample(spec, seed, instructions);
}

SampleProfile
SampleSimulator::characterizeTrace(TraceSource &source,
                                   Count instructions,
                                   const PhaseSpec &meta)
{
    hierarchy_.reset();
    dram_.reset();
    return profileFromSource(source, instructions, meta);
}

} // namespace mcdvfs
