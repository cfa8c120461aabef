#include "tuning.hh"

#include <bit>

#include "common.hh"
#include "core/reference_analysis.hh"
#include "sim/grid_io.hh"
#include "sim/reference_kernel.hh"

namespace perfbench
{

using namespace mcdvfs;

const std::vector<double> kBudgets{1.0, 1.1, 1.2, 1.3, 1.6};
const std::vector<double> kThresholds{0.01, 0.03, 0.05};

namespace
{

/** Fold a double into a digest by bit pattern. */
std::uint64_t
fold(std::uint64_t h, double v)
{
    return mixSeed(h, std::bit_cast<std::uint64_t>(v));
}

std::uint64_t
foldSetting(std::uint64_t h, const FrequencySetting &s)
{
    return fold(fold(fold(h, s.cpu), s.mem), s.gpu);
}

std::uint64_t
digestOptimal(const std::vector<OptimalChoice> &v)
{
    std::uint64_t h = mixSeed(0, v.size());
    for (const OptimalChoice &c : v) {
        h = mixSeed(h, c.settingIndex);
        h = foldSetting(h, c.setting);
        h = fold(fold(h, c.speedup), c.inefficiency);
    }
    return h;
}

std::uint64_t
digestClusters(const std::vector<PerformanceCluster> &v)
{
    std::uint64_t h = mixSeed(1, v.size());
    for (const PerformanceCluster &c : v) {
        h = mixSeed(h, c.optimal.settingIndex);
        h = fold(fold(h, c.optimal.speedup), c.optimal.inefficiency);
        h = mixSeed(h, c.settings.size());
        for (const std::size_t k : c.settings)
            h = mixSeed(h, k);
    }
    return h;
}

std::uint64_t
digestRegions(const std::vector<StableRegion> &v)
{
    std::uint64_t h = mixSeed(2, v.size());
    for (const StableRegion &r : v) {
        h = mixSeed(mixSeed(h, r.first), r.last);
        h = mixSeed(h, r.chosenSettingIndex);
        h = foldSetting(h, r.chosenSetting);
        h = mixSeed(h, r.availableSettings.size());
        for (const std::size_t k : r.availableSettings)
            h = mixSeed(h, k);
    }
    return h;
}

} // namespace

std::vector<MixSlot>
requestMix(bool tiny)
{
    // CPU-bound (bzip2, gobmk: hot set in L1) and streaming (lbm,
    // libquantum: working set beyond L2) phases on both 2-domain
    // spaces; the cheapest pair first, so tiny runs stay short.
    std::vector<MixSlot> mix{
        {"gobmk", SpaceKind::Coarse},     {"bzip2", SpaceKind::Fine},
        {"lbm", SpaceKind::Coarse},       {"milc", SpaceKind::Fine},
        {"gcc", SpaceKind::Coarse},       {"libquantum", SpaceKind::Fine},
        {"gobmk", SpaceKind::Fine},       {"bzip2", SpaceKind::Coarse},
        {"lbm", SpaceKind::Fine},         {"milc", SpaceKind::Coarse},
        {"gcc", SpaceKind::Fine},         {"libquantum", SpaceKind::Coarse},
        {"glrender", SpaceKind::Coarse3},
    };
    if (tiny)
        mix.resize(2);
    return mix;
}

SettingsSpace
spaceOf(SpaceKind kind)
{
    switch (kind) {
      case SpaceKind::Coarse:
        return SettingsSpace::coarse();
      case SpaceKind::Fine:
        return SettingsSpace::fine();
      case SpaceKind::Coarse3:
        break;
    }
    return SettingsSpace::coarse3();
}

const char *
spaceName(SpaceKind kind)
{
    switch (kind) {
      case SpaceKind::Coarse:
        return "coarse";
      case SpaceKind::Fine:
        return "fine";
      case SpaceKind::Coarse3:
        break;
    }
    return "coarse3";
}

WorkloadProfile
reseeded(const std::string &name, std::uint64_t seed)
{
    const WorkloadProfile base =
        name == "glrender" ? makeGlrender()
        : name == "libquantum" ? makeLibquantum()
                               : workloadByName(name);
    // The base script already applies the paper seed's jitter; the new
    // profile adds none and only re-derives the trace seeds.
    return WorkloadProfile(
        base.name(), base.sampleCount(),
        [base](std::size_t s) { return base.phaseFor(s); }, seed,
        /*jitter=*/0.0, base.seedMode());
}

std::uint64_t
simulatedInstructions(const WorkloadProfile &wl, const SystemConfig &config)
{
    return config.sampler.warmupInstructions +
           wl.sampleCount() * config.sampler.simInstructionsPerSample;
}

std::uint64_t
digestGrid(const MeasuredGrid &grid)
{
    return digestBytes(saveGridBinaryToString(grid));
}

ResultDigests
digestResult(const svc::TuningResult &result)
{
    return ResultDigests{digestGrid(*result.grid),
                         digestOptimal(result.optimal),
                         digestClusters(result.clusters),
                         digestRegions(result.regions)};
}

ResultDigests
referenceDigests(const SystemConfig &config, const svc::TuningResult &result)
{
    const MeasuredGrid &grid = *result.grid;
    std::vector<SampleProfile> profiles;
    profiles.reserve(grid.sampleCount());
    for (std::size_t s = 0; s < grid.sampleCount(); ++s)
        profiles.push_back(grid.profile(s));
    const MeasuredGrid reference = referenceGridWithProfiles(
        config, grid.workload(), profiles, grid.space(),
        grid.instructionsPerSample());

    InefficiencyAnalysis analysis(reference);
    OptimalSettingsFinder finder(analysis);
    const std::vector<PerformanceCluster> clusters =
        referenceClusters(finder, result.budget, result.threshold);
    std::vector<OptimalChoice> optimal;
    optimal.reserve(clusters.size());
    for (const PerformanceCluster &c : clusters)
        optimal.push_back(c.optimal);
    return ResultDigests{
        digestGrid(reference), digestOptimal(optimal),
        digestClusters(clusters),
        digestRegions(referenceStableRegions(reference.space(), clusters))};
}

} // namespace perfbench
