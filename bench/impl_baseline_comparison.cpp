/**
 * @file
 * §II/§IV implications: inefficiency-constrained tuning vs. the
 * baselines the paper positions against.
 *
 *  - CoScale-style perf-constrained search (both restart-from-max and
 *    the warm start §VI-A recommends: warm starting evaluates far
 *    fewer candidate settings);
 *  - absolute-energy rate limiting (pauses burn idle energy while no
 *    work gets done — the waste inefficiency avoids by tying the
 *    budget to work);
 *  - static performance governor.
 */

#include <iostream>

#include "baselines/comparison.hh"
#include "baselines/coscale.hh"
#include "common/table.hh"
#include "repro/suite.hh"

using namespace mcdvfs;

int
main()
{
    const double budget = 1.3;
    const double threshold = 0.03;
    const double slack = 0.10;

    ReproSuite suite;
    const std::vector<std::string> workloads = {"gobmk", "lbm"};
    suite.characterize(workloads);

    for (const std::string &workload : workloads) {
        const MeasuredGrid &grid = suite.grid(workload);
        BaselineComparison comparison(grid);

        Table table({"policy", "time (ms)", "energy (mJ)",
                     "achieved I", "transitions", "events/evals",
                     "note"});
        table.setTitle("policy comparison: " + workload +
                       " (budget 1.3, threshold 3%, slack 10%)");
        for (const PolicyComparisonRow &row :
             comparison.compare(budget, threshold, slack)) {
            table.addRow(
                {row.policy, Table::num(row.time * 1e3, 2),
                 Table::num(row.energy * 1e3, 2),
                 Table::num(row.achievedInefficiency, 3),
                 Table::num(static_cast<long long>(row.transitions)),
                 Table::num(static_cast<long long>(row.workDone)),
                 row.note});
        }
        table.print(std::cout);

        // §VI-A: search-cost claim in isolation.
        CoScaleSearch coscale(grid, slack);
        const std::size_t from_max =
            coscale.runFromMax().settingsEvaluated;
        const std::size_t warm =
            coscale.runWarmStart().settingsEvaluated;
        std::cout << "coscale candidates evaluated: from-max "
                  << from_max << " vs warm-start " << warm << " ("
                  << Table::num(
                         100.0 * (1.0 - static_cast<double>(warm) /
                                            static_cast<double>(
                                                from_max)),
                         1)
                  << "% fewer)\n\n";
    }
    return 0;
}
