/**
 * @file
 * Figure 2: inefficiency vs. speedup for bzip2, gobmk and milc over
 * the full 70-setting CPU x memory frequency grid.
 *
 * Reproduced observations (§IV):
 *  - running slower doesn't mean running efficiently (the lowest
 *    setting has inefficiency well above 1);
 *  - higher inefficiency doesn't always buy performance (settings
 *    exist that burn more energy and run slower);
 *  - bzip2's speedup depends only on CPU frequency, gobmk's on both.
 */

#include <iostream>

#include "common/table.hh"
#include "core/pareto.hh"
#include "repro/analyses.hh"
#include "repro/suite.hh"

using namespace mcdvfs;

int
main()
{
    ReproSuite suite;
    const std::vector<std::string> workloads = {"bzip2", "gobmk", "milc"};
    suite.characterize(workloads);

    for (const std::string &workload : workloads) {
        const MeasuredGrid &grid = suite.grid(workload);
        GridAnalyses a(grid);

        Table table({"cpu MHz", "mem MHz", "speedup", "inefficiency"});
        table.setTitle("Fig 2 series: " + workload);
        for (std::size_t k = 0; k < grid.settingCount(); ++k) {
            const FrequencySetting setting = grid.space().at(k);
            table.addRow({Table::num(toMegaHertz(setting.cpu), 0),
                          Table::num(toMegaHertz(setting.mem), 0),
                          Table::num(a.analysis.runSpeedup(k), 3),
                          Table::num(a.analysis.runInefficiency(k), 3)});
        }
        table.print(std::cout);

        // Headline observations the paper calls out on this figure.
        const SettingsSpace &space = grid.space();
        const std::size_t lowest = space.indexOf(space.minSetting());
        const std::size_t highest = space.indexOf(space.maxSetting());
        std::size_t fastest = 0;
        for (std::size_t k = 1; k < grid.settingCount(); ++k) {
            if (a.analysis.runSpeedup(k) >
                a.analysis.runSpeedup(fastest)) {
                fastest = k;
            }
        }
        // gobmk example from the text: forced to burn budget at
        // 1000 MHz CPU / 200 MHz memory.
        const std::size_t forced = space.indexOf(
            FrequencySetting{space.cpuLadder().highest(),
                             space.memLadder().lowest()});
        std::cout << "\nobservations (" << workload << "):\n"
                  << "  lowest setting " << space.minSetting().label()
                  << ": inefficiency "
                  << Table::num(a.analysis.runInefficiency(lowest), 2)
                  << " at speedup 1 (slow != efficient)\n"
                  << "  fastest setting " << space.at(fastest).label()
                  << ": inefficiency "
                  << Table::num(a.analysis.runInefficiency(fastest), 2)
                  << "\n"
                  << "  max-CPU/min-mem " << space.at(forced).label()
                  << ": " << Table::num(a.analysis.runSpeedup(fastest) /
                                            a.analysis.runSpeedup(forced),
                                        2)
                  << "x slower than fastest at inefficiency "
                  << Table::num(a.analysis.runInefficiency(forced), 2)
                  << "\n"
                  << "  Imax = "
                  << Table::num(a.analysis.maxRunInefficiency(), 2)
                  << " (vs max setting I="
                  << Table::num(a.analysis.runInefficiency(highest), 2)
                  << ")\n";

        // The intro's claim quantified: most of the joint space is
        // dominated ("incorrect") settings.
        ParetoAnalysis pareto(a.analysis);
        std::cout << "  pareto frontier: "
                  << pareto.runFrontier().size() << " of "
                  << grid.settingCount() << " settings ("
                  << Table::num(pareto.dominatedFraction() * 100.0, 0)
                  << "% dominated/incorrect)\n\n";
    }
    return 0;
}
