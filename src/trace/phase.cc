#include "trace/phase.hh"

#include <algorithm>
#include <bit>

#include "common/hash.hh"
#include "common/logging.hh"
#include "trace/trace_generator.hh"

namespace mcdvfs
{

void
PhaseSpec::validate() const
{
    auto in01 = [](double v) { return v >= 0.0 && v <= 1.0; };
    if (!in01(loadFrac) || !in01(storeFrac) || !in01(branchFrac) ||
        !in01(fpFrac) || !in01(mulFrac)) {
        fatal("phase '", name, "': instruction-mix fraction out of [0,1]");
    }
    if (!in01(gpuKickFrac))
        fatal("phase '", name, "': gpuKickFrac out of [0,1]");
    if (loadFrac + storeFrac + branchFrac + fpFrac + mulFrac +
            gpuKickFrac >
        1.0 + 1e-9)
        fatal("phase '", name, "': instruction mix exceeds 1.0");
    if (!in01(hotFrac) || !in01(warmFrac) || hotFrac + warmFrac > 1.0 + 1e-9)
        fatal("phase '", name, "': footprint tier fractions invalid");
    if (!in01(coldSeqFrac))
        fatal("phase '", name, "': coldSeqFrac out of [0,1]");
    if (baseCpi <= 0.0)
        fatal("phase '", name, "': baseCpi must be positive");
    if (mlp < 1.0)
        fatal("phase '", name, "': mlp must be >= 1");
    if (!in01(activity))
        fatal("phase '", name, "': activity out of [0,1]");
    if (!in01(gpuActivity))
        fatal("phase '", name, "': gpuActivity out of [0,1]");
    if (gpuCyclesPerKick < 0.0)
        fatal("phase '", name, "': gpuCyclesPerKick must be >= 0");
    // The trace generator addresses each tier in 8-byte words.
    if (hotBytes < 8 || warmBytes < 8 || coldBytes < 8)
        fatal("phase '", name, "': footprint sizes must be >= 8 bytes");
    // Characterization packs each access into 32 bits, so every tier
    // must end at or below 2^32.
    constexpr std::uint64_t kTop = 1ull << 32;
    if (hotBytes > kTop - TraceGenerator::kHotBase ||
        warmBytes > kTop - TraceGenerator::kWarmBase ||
        coldBytes > kTop - TraceGenerator::kColdBase)
        fatal("phase '", name,
              "': a footprint tier extends past the 32-bit address space");
}

std::uint64_t
PhaseSpec::fingerprint(std::uint64_t seed) const
{
    std::uint64_t h = seed;
    auto addDouble = [&h](double v) {
        // Normalize -0.0 so equal-comparing specs hash equally (the
        // svc::HashBuilder fingerprints follow the same rule).
        if (v == 0.0)
            v = 0.0;
        h = fnv1aWordBytes(h, std::bit_cast<std::uint64_t>(v));
    };
    auto addWord = [&h](std::uint64_t v) { h = fnv1aWordBytes(h, v); };

    h = fnv1aString(h, name);
    addWord(name.size());
    addDouble(loadFrac);
    addDouble(storeFrac);
    addDouble(branchFrac);
    addDouble(fpFrac);
    addDouble(mulFrac);
    addDouble(baseCpi);
    addDouble(hotFrac);
    addDouble(warmFrac);
    addWord(hotBytes);
    addWord(warmBytes);
    addWord(coldBytes);
    addDouble(coldSeqFrac);
    addDouble(mlp);
    addDouble(activity);
    addDouble(gpuKickFrac);
    addDouble(gpuCyclesPerKick);
    addDouble(gpuActivity);
    return h;
}

PhaseSpec
PhaseSpec::lerp(const PhaseSpec &other, double t) const
{
    const double u = std::clamp(t, 0.0, 1.0);
    auto mix = [u](double a, double b) { return a + (b - a) * u; };
    auto mixSize = [u](std::uint64_t a, std::uint64_t b) {
        const double v = static_cast<double>(a) +
                         (static_cast<double>(b) - static_cast<double>(a)) * u;
        return static_cast<std::uint64_t>(v);
    };

    PhaseSpec out = *this;
    out.loadFrac = mix(loadFrac, other.loadFrac);
    out.storeFrac = mix(storeFrac, other.storeFrac);
    out.branchFrac = mix(branchFrac, other.branchFrac);
    out.fpFrac = mix(fpFrac, other.fpFrac);
    out.mulFrac = mix(mulFrac, other.mulFrac);
    out.baseCpi = mix(baseCpi, other.baseCpi);
    out.hotFrac = mix(hotFrac, other.hotFrac);
    out.warmFrac = mix(warmFrac, other.warmFrac);
    out.hotBytes = mixSize(hotBytes, other.hotBytes);
    out.warmBytes = mixSize(warmBytes, other.warmBytes);
    out.coldBytes = mixSize(coldBytes, other.coldBytes);
    out.coldSeqFrac = mix(coldSeqFrac, other.coldSeqFrac);
    out.mlp = mix(mlp, other.mlp);
    out.activity = mix(activity, other.activity);
    out.gpuKickFrac = mix(gpuKickFrac, other.gpuKickFrac);
    out.gpuCyclesPerKick = mix(gpuCyclesPerKick, other.gpuCyclesPerKick);
    out.gpuActivity = mix(gpuActivity, other.gpuActivity);
    return out;
}

} // namespace mcdvfs
