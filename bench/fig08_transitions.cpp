/**
 * @file
 * Figure 8: transitions per billion instructions for every benchmark,
 * at inefficiency budgets {1.0, 1.3, 1.6} and policies {optimal
 * tracking, 1%, 3%, 5% cluster thresholds}.
 *
 * Reproduced observations (§VI-B): tracking the optimal settings
 * produces the most transitions; transitions fall as the cluster
 * threshold grows; how much they fall varies with benchmark and
 * budget (bzip2 collapses to almost none at 1.6, gobmk's rapidly
 * changing phases keep the count high).
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

    for (const double budget : {1.0, 1.3, 1.6}) {
        Table table({"benchmark", "optimal", "1%", "3%", "5%"});
        char title[96];
        std::snprintf(title, sizeof(title),
                      "Fig 8: transitions per billion instructions, "
                      "I=%.1f",
                      budget);
        table.setTitle(title);
        for (const std::string &name : ReproSuite::benchmarkNames()) {
            const MeasuredGrid &grid = suite.grid(name);
            GridAnalyses a(grid);
            std::vector<std::string> row = {name};
            row.push_back(Table::num(
                a.transitions.forOptimalTracking(budget)
                    .perBillionInstructions,
                1));
            for (const double threshold : {0.01, 0.03, 0.05}) {
                row.push_back(Table::num(
                    a.transitions.forClusterPolicy(budget, threshold)
                        .perBillionInstructions,
                    1));
            }
            table.addRow(std::move(row));
        }
        table.print(std::cout);
        std::cout << '\n';
    }
    return 0;
}
