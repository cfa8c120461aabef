/**
 * @file
 * Figure 7: stable regions of gcc and lbm at inefficiency budget 1.3
 * for cluster thresholds 3% and 5% (plus the budget sweep the
 * figure's legend shows).
 *
 * Reproduced observations (§VI-B): raising the threshold from 3% to
 * 5% sharply cuts gcc's transitions at lower budgets; lbm starts with
 * few transitions so the absolute drop is small; at high budgets the
 * system runs unconstrained throughout.
 */

#include <iostream>

#include "common/table.hh"
#include "repro/analyses.hh"
#include "repro/suite.hh"

using namespace mcdvfs;

namespace
{

void
printRegions(const MeasuredGrid &grid, GridAnalyses &a, double budget,
             double threshold)
{
    const auto regions = a.regions.find(budget, threshold);
    Table table({"region", "samples", "cpu MHz", "mem MHz"});
    char title[128];
    std::snprintf(title, sizeof(title),
                  "%s stable regions (I=%.1f, threshold=%.0f%%): %zu "
                  "regions",
                  grid.workload().c_str(), budget, threshold * 100.0,
                  regions.size());
    table.setTitle(title);
    for (std::size_t r = 0; r < regions.size(); ++r) {
        const StableRegion &region = regions[r];
        table.addRow(
            {Table::num(static_cast<long long>(r)),
             Table::num(static_cast<long long>(region.first)) + "-" +
                 Table::num(static_cast<long long>(region.last)),
             Table::num(toMegaHertz(region.chosenSetting.cpu), 0),
             Table::num(toMegaHertz(region.chosenSetting.mem), 0)});
    }
    table.print(std::cout);
    std::cout << '\n';
}

} // namespace

int
main()
{
    ReproSuite suite;
    const std::vector<std::string> workloads = {"gcc", "lbm"};
    suite.characterize(workloads);

    for (const std::string &workload : workloads) {
        const MeasuredGrid &grid = suite.grid(workload);
        GridAnalyses a(grid);
        for (const double threshold : {0.03, 0.05})
            printRegions(grid, a, 1.3, threshold);

        // Budget sweep summary (the figure's 1 / 1.3 / inf legend).
        Table sweep({"budget", "transitions @3%", "transitions @5%"});
        sweep.setTitle(workload + " transitions across budgets");
        for (const double budget : {1.0, 1.3, kUnboundedBudget}) {
            sweep.addRow(
                {budget == kUnboundedBudget ? "inf"
                                            : Table::num(budget, 1),
                 Table::num(static_cast<long long>(
                     a.transitions.forClusterPolicy(budget, 0.03)
                         .transitions)),
                 Table::num(static_cast<long long>(
                     a.transitions.forClusterPolicy(budget, 0.05)
                         .transitions))});
        }
        sweep.print(std::cout);
        std::cout << '\n';
    }
    return 0;
}
