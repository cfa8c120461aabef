/**
 * @file
 * Figure 10: variation of performance with the inefficiency budget.
 *
 * Execution time of optimal tracking at budgets {1.0, 1.1, 1.2, 1.3,
 * 1.6}, normalized to budget 1.0, for every benchmark.
 *
 * Reproduced observations (§VI-C): performance improves monotonically
 * as the budget grows (smooth energy-performance trade-off); the size
 * of the improvement varies across benchmarks; and the tuner always
 * keeps the run within the specified budget (achieved inefficiency
 * column).
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

    const double budgets[] = {1.0, 1.1, 1.2, 1.3, 1.6};

    Table table({"benchmark", "I=1.0", "I=1.1", "I=1.2", "I=1.3",
                 "I=1.6", "achieved I @1.3"});
    table.setTitle("Fig 10: normalized execution time vs. budget");
    for (const std::string &name : ReproSuite::benchmarkNames()) {
        const MeasuredGrid &grid = suite.grid(name);
        GridAnalyses a(grid);
        std::vector<std::string> row = {name};
        for (const double budget : budgets) {
            row.push_back(
                Table::num(a.tradeoff.normalizedExecutionTime(budget), 3));
        }
        row.push_back(Table::num(
            a.tradeoff.optimalTracking(1.3).achievedInefficiency, 3));
        table.addRow(std::move(row));
    }
    table.print(std::cout);

    // Budget-conformance check the paper reports alongside the figure:
    // no benchmark may exceed any budget it was given.
    bool all_within = true;
    for (const std::string &name : ReproSuite::benchmarkNames()) {
        const MeasuredGrid &grid = suite.grid(name);
        GridAnalyses a(grid);
        for (const double budget : budgets) {
            const double achieved =
                a.tradeoff.optimalTracking(budget).achievedInefficiency;
            if (achieved > budget + 1e-9)
                all_within = false;
        }
    }
    std::cout << "\nall runs within their inefficiency budgets: "
              << (all_within ? "yes" : "NO") << "\n";
    return 0;
}
