/**
 * @file
 * Figure 12: sensitivity of performance clusters to frequency step
 * size — gobmk at budget 1.3, threshold 1%, over the coarse
 * 70-setting grid (100 MHz steps) vs. the fine 496-setting grid
 * (30 MHz CPU / 40 MHz memory steps).
 *
 * Reproduced observations (§VI-D): finer steps offer more (and
 * slightly better) choices, so average stable-region length stays the
 * same or shrinks; the performance gain with free tuning is below 1%
 * because the coarse optimum is only a few MHz off; the tuning-
 * overhead/search-space balance decides the right granularity.
 *
 * --jobs N sizes the suite's pool that both grids and both cluster
 * sweeps run on; absent or 0, it takes one worker fewer than the
 * allowed CPUs.  Output is bit-identical at any size.
 */

#include <iostream>

#include "common/args.hh"
#include "common/table.hh"
#include "core/step_sensitivity.hh"
#include "core/tuning_cost.hh"
#include "repro/suite.hh"
#include "trace/workloads.hh"

using namespace mcdvfs;

int
main(int argc, char **argv)
{
    const double budget = 1.3;
    const double threshold = 0.01;

    ArgParser args("fig12_step_sensitivity");
    args.addOption("jobs");
    std::size_t jobs = 0;
    try {
        args.parse(argc, argv);
        jobs = static_cast<std::size_t>(args.getInt("jobs", 0, 0, 1024));
    } catch (const FatalError &err) {
        std::cerr << "error: " << err.what() << '\n';
        return 2;
    }

    ReproSuite suite(SystemConfig::paperDefault(), jobs);
    StepSensitivity sensitivity(suite.service().runner());
    // Fans the per-sample cluster kernel of both characterizations
    // out; the table is bit-identical to the serial run.
    sensitivity.setThreadPool(&suite.service().pool());
    const StepSensitivityResult result = sensitivity.compare(
        workloadByName("gobmk"), budget, threshold,
        SettingsSpace::coarse(), SettingsSpace::fine());

    Table table({"grid", "settings", "avg cluster", "avg region len",
                 "transitions"});
    table.setTitle("Fig 12: gobmk clusters, coarse vs fine steps "
                   "(I=1.3, threshold=1%)");
    table.addRow({"coarse (100MHz)",
                  Table::num(static_cast<long long>(
                      result.coarse.settings)),
                  Table::num(result.coarse.avgClusterSize, 2),
                  Table::num(result.coarse.avgRegionLength, 2),
                  Table::num(static_cast<long long>(
                      result.coarse.transitions))});
    table.addRow({"fine (30/40MHz)",
                  Table::num(static_cast<long long>(
                      result.fine.settings)),
                  Table::num(result.fine.avgClusterSize, 2),
                  Table::num(result.fine.avgRegionLength, 2),
                  Table::num(static_cast<long long>(
                      result.fine.transitions))});
    table.print(std::cout);

    std::cout << "\nperformance gain of fine grid with free tuning: "
              << Table::num(result.finePerfImprovementPct(), 3) << "%\n";

    // The balance the paper calls out: search cost scales with the
    // space, so the fine grid's tuning events are ~7x as expensive.
    TuningCostModel cost;
    std::cout << "tuning event latency: coarse "
              << Table::num(toNanoSeconds(cost.eventLatency(
                                result.coarse.settings)) / 1000.0, 0)
              << " us vs fine "
              << Table::num(toNanoSeconds(cost.eventLatency(
                                result.fine.settings)) / 1000.0, 0)
              << " us\n";
    return 0;
}
