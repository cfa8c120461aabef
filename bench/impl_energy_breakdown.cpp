/**
 * @file
 * Energy breakdown per benchmark at representative operating points:
 * where does the energy actually go (CPU dynamic / background /
 * leakage, DRAM background / activate / data), and how does the split
 * move between the max setting, the per-sample Emin settings, and the
 * budget-1.3 optimal trajectory.
 *
 * This is the accounting behind the paper's §V bzip2 example (memory
 * background energy as the price of high memory frequency in
 * CPU-bound phases).
 */

#include <iostream>

#include "common/table.hh"
#include "power/cpu_power.hh"
#include "power/dram_power.hh"
#include "repro/analyses.hh"
#include "repro/suite.hh"

using namespace mcdvfs;

namespace
{

struct Breakdown
{
    Joules cpuDynamic = 0.0;
    Joules cpuStatic = 0.0;  // background + leakage
    Joules memBackground = 0.0;
    Joules memOperations = 0.0;  // activate + read/write

    Joules
    total() const
    {
        return cpuDynamic + cpuStatic + memBackground + memOperations;
    }
};

/** Recompute the decomposition of one (sample, setting) cell. */
Breakdown
decompose(const MeasuredGrid &grid, std::size_t sample,
          std::size_t setting, const CpuPowerModel &cpu,
          const DramPowerModel &dram)
{
    const GridCell &cell = grid.cell(sample, setting);
    const SampleProfile &profile = grid.profile(sample);
    const FrequencySetting freqs = grid.space().at(setting);

    const Seconds busy = cell.seconds * cell.busyFrac;
    const Seconds stall = cell.seconds - busy;

    Breakdown out;
    const CpuPowerBreakdown busy_power =
        cpu.power(freqs.cpu, profile.activity);
    const CpuPowerBreakdown stall_power = cpu.power(
        freqs.cpu, profile.activity * cpu.params().stallActivity);
    out.cpuDynamic = busy_power.dynamic * busy +
                     stall_power.dynamic * stall;
    out.cpuStatic =
        (busy_power.background + busy_power.leakage) * cell.seconds;

    DramStats stats;
    const double n =
        static_cast<double>(grid.instructionsPerSample());
    stats.reads = static_cast<Count>(
        n * (profile.dramReadsPerInstr + profile.dramPrefetchPerInstr));
    stats.writes =
        static_cast<Count>(n * profile.dramWritesPerInstr);
    const double total =
        static_cast<double>(stats.reads + stats.writes);
    stats.rowHits = static_cast<Count>(total * profile.rowHitFrac);
    stats.rowClosed =
        static_cast<Count>(total * profile.rowClosedFrac);
    stats.rowConflicts =
        static_cast<Count>(total * profile.rowConflictFrac);

    const DramEnergyBreakdown mem =
        dram.energy(stats, freqs.mem, cell.seconds, cell.bwUtil);
    out.memBackground = mem.background;
    out.memOperations = mem.activate + mem.readWrite;
    return out;
}

} // namespace

int
main()
{
    ReproSuite suite;
    suite.characterize(ReproSuite::benchmarkNames());
    const CpuPowerModel cpu = CpuPowerModel::paperDefault();
    const DramPowerModel dram = DramPowerModel::paperDefault();

    Table table({"benchmark", "operating point", "cpu dyn %",
                 "cpu static %", "mem bg %", "mem ops %",
                 "total (mJ)"});
    table.setTitle("energy breakdown by component");

    for (const std::string &name : ReproSuite::benchmarkNames()) {
        const MeasuredGrid &grid = suite.grid(name);
        GridAnalyses a(grid);

        const std::size_t max_idx =
            grid.space().indexOf(grid.space().maxSetting());
        const auto trajectory = a.finder.optimalTrajectory(1.3);

        struct Point
        {
            const char *label;
            std::vector<std::size_t> settings;
        };
        std::vector<std::size_t> max_settings(grid.sampleCount(),
                                              max_idx);
        std::vector<std::size_t> emin_settings;
        std::vector<std::size_t> budget_settings;
        for (std::size_t s = 0; s < grid.sampleCount(); ++s) {
            emin_settings.push_back(
                a.finder.optimalForSample(s, 1.0).settingIndex);
            budget_settings.push_back(trajectory[s].settingIndex);
        }
        const Point points[] = {
            {"max (1000/800)", max_settings},
            {"per-sample Emin", emin_settings},
            {"optimal @ I=1.3", budget_settings},
        };

        for (const Point &point : points) {
            Breakdown sum;
            for (std::size_t s = 0; s < grid.sampleCount(); ++s) {
                const Breakdown b = decompose(grid, s,
                                              point.settings[s], cpu,
                                              dram);
                sum.cpuDynamic += b.cpuDynamic;
                sum.cpuStatic += b.cpuStatic;
                sum.memBackground += b.memBackground;
                sum.memOperations += b.memOperations;
            }
            const double total = sum.total();
            table.addRow(
                {name, point.label,
                 Table::num(sum.cpuDynamic / total * 100, 1),
                 Table::num(sum.cpuStatic / total * 100, 1),
                 Table::num(sum.memBackground / total * 100, 1),
                 Table::num(sum.memOperations / total * 100, 1),
                 Table::num(total * 1e3, 1)});
        }
    }
    table.print(std::cout);

    std::cout << "\n(the paper's bzip2 example: at max settings the "
                 "memory background share is what dropping to 200 MHz "
                 "memory recovers)\n";
    return 0;
}
