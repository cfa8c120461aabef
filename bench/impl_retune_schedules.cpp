/**
 * @file
 * §VII implications: comparing re-tune schedules.
 *
 * For every benchmark at budget 1.3 / threshold 3%, four schedules are
 * simulated end to end with tuning overhead charged per event:
 * re-tune every sample, the Isci-style run-length predictor, an
 * offline stable-region profile, and the future-knowing oracle.
 *
 * Reproduced claims: learning and offline profiling cut tuning events
 * drastically versus every-sample re-tuning at nearly the same
 * performance and energy, and all schedules keep the run within the
 * inefficiency budget.
 *
 * --journal FILE additionally dumps the per-sample tuning decision
 * journal of every (benchmark, policy) run as JSONL (schema
 * mcdvfs-trace-v1; see docs/OBSERVABILITY.md).
 *
 * --jobs N sizes the suite's pool that grid characterization and the
 * per-sample cluster kernel run on; absent or 0, it takes one worker
 * fewer than the allowed CPUs.  Results are bit-identical at any size.
 */

#include <iostream>

#include "common/args.hh"
#include "common/table.hh"
#include "exec/thread_pool.hh"
#include "obs/journal.hh"
#include "repro/analyses.hh"
#include "repro/suite.hh"
#include "runtime/tuning_loop.hh"

using namespace mcdvfs;

int
main(int argc, char **argv)
{
    const double budget = 1.3;
    const double threshold = 0.03;

    ArgParser args("impl_retune_schedules");
    args.addOption("journal");
    args.addOption("jobs");
    std::size_t jobs = 0;
    try {
        args.parse(argc, argv);
        jobs = static_cast<std::size_t>(args.getInt("jobs", 0, 0, 1024));
    } catch (const FatalError &err) {
        std::cerr << "error: " << err.what() << '\n';
        return 2;
    }

    obs::DecisionJournal journal;
    const bool journaling = args.has("journal");

    ReproSuite suite(SystemConfig::paperDefault(), jobs);
    exec::ThreadPool *pool = &suite.service().pool();
    suite.characterize(ReproSuite::benchmarkNames());

    Table table({"benchmark", "policy", "events", "transitions",
                 "time+oh (ms)", "energy (mJ)", "achieved I",
                 "violations %"});
    table.setTitle("retune schedules at I=1.3, threshold=3%");

    for (const std::string &name : ReproSuite::benchmarkNames()) {
        const MeasuredGrid &grid = suite.grid(name);
        GridAnalyses a(grid);
        TuningLoop loop(a.clusters, a.regions, a.costModel);
        if (journaling)
            loop.setJournal(&journal);

        const OfflineProfile profile = OfflineProfile::fromRegions(
            name, a.regions.find(budget, threshold, pool),
            grid.space());

        const TuningLoopResult results[] = {
            loop.runEverySample(budget, threshold),
            loop.runPredictive(budget, threshold),
            loop.runReactive(budget, threshold),
            loop.runProfileDriven(budget, threshold, profile),
            loop.runOracle(budget, threshold),
        };
        for (const TuningLoopResult &r : results) {
            table.addRow(
                {name, r.policy,
                 Table::num(static_cast<long long>(r.tuningEvents)),
                 Table::num(static_cast<long long>(r.transitions)),
                 Table::num(r.timeWithOverhead * 1e3, 2),
                 Table::num(r.energyWithOverhead * 1e3, 2),
                 Table::num(r.achievedInefficiency, 3),
                 Table::num(r.budgetViolationFrac * 100.0, 1)});
        }
    }
    table.print(std::cout);
    if (journaling) {
        journal.write(args.get("journal"));
        std::cerr << "wrote " << journal.records().size()
                  << " journal records to " << args.get("journal")
                  << "\n";
    }
    return 0;
}
