#include "core/step_sensitivity.hh"

#include "core/reference_analysis.hh"

namespace mcdvfs
{

double
StepSensitivityResult::finePerfImprovementPct() const
{
    if (coarse.optimalTime <= 0.0)
        return 0.0;
    return (coarse.optimalTime - fine.optimalTime) / coarse.optimalTime *
           100.0;
}

StepSensitivity::StepSensitivity(GridRunner &runner)
    : runner_(runner)
{
}

SpaceCharacterization
StepSensitivity::characterizeSpace(const MeasuredGrid &grid, double budget,
                                   double threshold, exec::ThreadPool *pool)
{
    if (!SettingMask::supports(grid.settingCount()))
        return referenceCharacterizeSpace(grid, budget, threshold);

    InefficiencyAnalysis analysis(grid);
    OptimalSettingsFinder finder(analysis);
    ClusterFinder clusters(finder);
    StableRegionFinder regions(clusters);

    SpaceCharacterization out;
    out.settings = grid.settingCount();

    // One mask-table pass feeds every statistic of the row.
    const ClusterTable table = clusters.table(budget, threshold, pool);
    double cluster_total = 0.0;
    for (const SettingMask &mask : table.masks)
        cluster_total += static_cast<double>(mask.count());
    out.avgClusterSize =
        cluster_total / static_cast<double>(table.sampleCount());

    const std::vector<StableRegion> region_list = regions.fromTable(table);
    double length_total = 0.0;
    for (const StableRegion &region : region_list)
        length_total += static_cast<double>(region.length());
    out.avgRegionLength =
        length_total / static_cast<double>(region_list.size());

    std::vector<std::size_t> sequence(grid.sampleCount(), 0);
    for (const StableRegion &region : region_list) {
        for (std::size_t s = region.first; s <= region.last; ++s)
            sequence[s] = region.chosenSettingIndex;
    }
    out.transitions =
        TransitionAnalysis::fromSettingSequence(sequence,
                                                grid.totalInstructions())
            .transitions;

    Seconds optimal_time = 0.0;
    for (std::size_t s = 0; s < grid.sampleCount(); ++s) {
        optimal_time +=
            grid.cell(s, table.optimal[s].settingIndex).seconds;
    }
    out.optimalTime = optimal_time;
    return out;
}

StepSensitivityResult
StepSensitivity::compare(const WorkloadProfile &workload, double budget,
                         double threshold, const SettingsSpace &coarse,
                         const SettingsSpace &fine)
{
    // One characterization pass shared by both grids.
    const std::vector<SampleProfile> profiles =
        runner_.characterize(workload);

    const MeasuredGrid coarse_grid = runner_.runWithProfiles(
        workload.name(), profiles, coarse,
        workload.modeledInstructionsPerSample());
    const MeasuredGrid fine_grid = runner_.runWithProfiles(
        workload.name(), profiles, fine,
        workload.modeledInstructionsPerSample());

    StepSensitivityResult result;
    result.coarse = characterizeSpace(coarse_grid, budget, threshold, pool_);
    result.fine = characterizeSpace(fine_grid, budget, threshold, pool_);
    return result;
}

} // namespace mcdvfs
