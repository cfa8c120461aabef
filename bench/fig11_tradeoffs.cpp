/**
 * @file
 * Figure 11: energy-performance trade-offs of the cluster policy vs.
 * optimal tracking at budget 1.3 for thresholds {1%, 3%, 5%}, without
 * and with the 500 us / 30 uJ per-event tuning overhead.
 *
 * Reproduced observations (§VI-C): performance degradation always
 * stays within the cluster threshold; energy consumption falls as the
 * threshold grows (lower-frequency settings become admissible); and
 * once tuning overhead is charged, the cluster policy can be *faster*
 * than per-sample optimal tracking because it tunes so much less
 * often.
 */

#include <iostream>

#include "common/table.hh"
#include "repro/analyses.hh"
#include "repro/suite.hh"

using namespace mcdvfs;

int
main()
{
    ReproSuite suite;
    suite.characterize(ReproSuite::benchmarkNames());
    const double budget = 1.3;

    for (const bool with_overhead : {false, true}) {
        Table table({"benchmark", "perf 1% ", "perf 3%", "perf 5%",
                     "energy 1%", "energy 3%", "energy 5%"});
        table.setTitle(with_overhead
                           ? "Fig 11(b): % vs optimal tracking, with "
                             "tuning overhead"
                           : "Fig 11(a): % vs optimal tracking, no "
                             "tuning overhead");
        for (const std::string &name : ReproSuite::benchmarkNames()) {
            const MeasuredGrid &grid = suite.grid(name);
            GridAnalyses a(grid);
            std::vector<std::string> row = {name};
            std::vector<std::string> energy_cells;
            for (const double threshold : {0.01, 0.03, 0.05}) {
                const TradeoffRow r =
                    a.tradeoff.compare(budget, threshold);
                row.push_back(Table::num(
                    with_overhead ? r.perfPctWithOverhead : r.perfPct,
                    2));
                energy_cells.push_back(Table::num(
                    with_overhead ? r.energyPctWithOverhead
                                  : r.energyPct,
                    2));
            }
            row.insert(row.end(), energy_cells.begin(),
                       energy_cells.end());
            table.addRow(std::move(row));
        }
        table.print(std::cout);
        std::cout << '\n';
    }

    std::cout << "(negative perf = slower than optimal tracking; "
                 "negative energy = saves energy)\n";
    return 0;
}
