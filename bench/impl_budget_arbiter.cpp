/**
 * @file
 * Budget-arbiter comparison benchmark over the three-domain space.
 *
 * Replays the glrender run through the plain inefficiency governor
 * and through BudgetArbiter under a sysedp-style cap table at several
 * system power budgets and both priorities, charging each sample the
 * grid cell of the setting in force (last-value replay, as
 * impl_baseline_comparison does).  Reports per-policy run energy,
 * run time, transition count and the kept/retuned/capped decision
 * split, plus the arbiter's decision throughput.
 *
 * Two invariants are enforced (the binary fatals otherwise), which is
 * what makes the --tiny run a tier-1 perf_smoke ctest:
 *  - unconstrained arbiter decisions are bit-identical to the plain
 *    governor's, sample for sample;
 *  - every capped decision lies within the caps in force when it was
 *    made.
 *
 * Results go to stdout and, machine-readable, to BENCH_arbiter.json
 * (--out overrides; schema mcdvfs-bench-arbiter-v1).
 */

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/args.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "exec/thread_pool.hh"
#include "repro/analyses.hh"
#include "runtime/budget_arbiter.hh"
#include "runtime/inefficiency_governor.hh"
#include "sim/grid_runner.hh"
#include "trace/workloads.hh"

using namespace mcdvfs;
using runtime::BudgetArbiter;
using runtime::CapRow;
using runtime::DomainCaps;
using runtime::Priority;

namespace
{

/** Shortened render loop for --tiny runs. */
WorkloadProfile
tinyRenderWorkload()
{
    const WorkloadProfile full = makeGlrender();
    return WorkloadProfile(
        "glrender-tiny", 16,
        [full](std::size_t s) { return full.phaseFor(s); }, 31,
        /*jitter=*/0.0);
}

/** Calibrated sysedp-style cap table over the coarse3 ladders. */
std::vector<CapRow>
capTable()
{
    CapRow low;
    low.budget = 1.0;
    low.cpuPriority = {megaHertz(600), megaHertz(400), megaHertz(300)};
    low.gpuPriority = {megaHertz(300), megaHertz(400), megaHertz(600)};
    CapRow mid;
    mid.budget = 2.0;
    mid.cpuPriority = {megaHertz(800), megaHertz(600), megaHertz(500)};
    mid.gpuPriority = {megaHertz(500), megaHertz(600), megaHertz(800)};
    CapRow high;
    high.budget = 4.0;
    high.cpuPriority = {megaHertz(1000), megaHertz(800), megaHertz(900)};
    high.gpuPriority = {megaHertz(1000), megaHertz(800), megaHertz(900)};
    return {low, mid, high};
}

/** Accumulated cost of one replayed policy. */
struct Replay
{
    std::string name;
    double systemBudget = 0.0;  ///< 0 = unconstrained
    std::string priority;       ///< "cpu", "gpu" or "-"
    double energy = 0.0;
    double seconds = 0.0;
    std::size_t transitions = 0;
    std::size_t kept = 0;
    std::size_t retuned = 0;
    std::size_t capped = 0;
    double decisionsPerSec = 0.0;
    std::vector<FrequencySetting> choices;
};

/**
 * Replay the run under @c governor: sample s executes at the setting
 * decided after sample s-1 (last-value prediction), charged from the
 * grid.
 */
Replay
replay(const MeasuredGrid &grid, Governor &governor,
       const std::string &name)
{
    Replay result;
    result.name = name;

    const auto start = std::chrono::steady_clock::now();
    FrequencySetting current = governor.decide(nullptr);
    for (std::size_t s = 0; s < grid.sampleCount(); ++s) {
        result.choices.push_back(current);
        const std::size_t k = grid.space().indexOf(current);
        const GridCell cell = grid.cell(s, k);
        result.energy +=
            (cell.cpuEnergy + cell.memEnergy) + cell.gpuEnergy;
        result.seconds += cell.seconds;

        SampleObservation obs;
        obs.sampleIndex = s;
        obs.setting = current;
        obs.duration = cell.seconds;
        obs.energy = (cell.cpuEnergy + cell.memEnergy) + cell.gpuEnergy;
        obs.cpuBusyFrac = cell.busyFrac;
        obs.memBwUtil = cell.bwUtil;
        const FrequencySetting next = governor.decide(&obs);
        if (!(next == current))
            ++result.transitions;
        current = next;
    }
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    result.decisionsPerSec =
        elapsed.count() > 0.0
            ? static_cast<double>(grid.sampleCount() + 1) /
                  elapsed.count()
            : 0.0;
    return result;
}

bool
sameBits(const FrequencySetting &a, const FrequencySetting &b)
{
    return std::memcmp(&a.cpu, &b.cpu, sizeof(double)) == 0 &&
           std::memcmp(&a.mem, &b.mem, sizeof(double)) == 0 &&
           std::memcmp(&a.gpu, &b.gpu, sizeof(double)) == 0;
}

void
writeArbiterJson(const std::string &path,
                 const std::vector<Replay> &replays)
{
    std::ofstream out(path);
    if (!out)
        fatal("bench json: cannot open ", path, " for writing");
    out.precision(17);
    out << "{\n";
    out << "  \"schema\": \"mcdvfs-bench-arbiter-v1\",\n";
    out << "  \"benchmark\": \"impl_budget_arbiter\",\n";
    out << "  \"results\": [\n";
    for (std::size_t i = 0; i < replays.size(); ++i) {
        const Replay &r = replays[i];
        out << "    {\"name\": \"" << r.name << "\", \"budget_watts\": "
            << r.systemBudget << ", \"priority\": \"" << r.priority
            << "\",\n     \"energy_j\": " << r.energy
            << ", \"seconds\": " << r.seconds
            << ", \"transitions\": " << r.transitions
            << ",\n     \"kept\": " << r.kept << ", \"retuned\": "
            << r.retuned << ", \"capped\": " << r.capped
            << ", \"decisions_per_sec\": " << r.decisionsPerSec << "}"
            << (i + 1 < replays.size() ? "," : "") << "\n";
    }
    out << "  ]\n";
    out << "}\n";
    if (!out)
        fatal("bench json: failed writing ", path);
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("impl_budget_arbiter");
    args.addOption("out");
    args.addFlag("tiny");
    std::string out_path = "BENCH_arbiter.json";
    bool tiny = false;
    try {
        args.parse(argc, argv);
        out_path = args.get("out", out_path);
        tiny = args.flag("tiny");
    } catch (const FatalError &err) {
        std::cerr << "error: " << err.what() << '\n';
        return 2;
    }

    SystemConfig config;
    config.sampler.simInstructionsPerSample = tiny ? 20'000 : 100'000;
    exec::ThreadPool pool(exec::ThreadPool::defaultWorkers());
    GridRunner runner(config);
    runner.setThreadPool(&pool);
    const MeasuredGrid grid = runner.run(
        tiny ? tinyRenderWorkload() : makeGlrender(),
        SettingsSpace::coarse3());
    GridAnalyses a(grid);

    const double budget = 1.3;
    const double threshold = 0.03;
    std::vector<Replay> replays;

    // Baseline: the plain cluster policy, no power cap.
    InefficiencyGovernor governor(a.clusters, budget, threshold);
    Replay base = replay(grid, governor, "inefficiency");
    base.priority = "-";
    base.kept = governor.keptSetting();
    base.retuned = governor.retuned();
    replays.push_back(base);

    // Invariant 1: an unconstrained arbiter replays bit-identically.
    BudgetArbiter unconstrained(a.clusters, budget, threshold, {});
    Replay bare = replay(grid, unconstrained, "arbiter-unconstrained");
    bare.priority = "-";
    bare.kept = unconstrained.keptSetting();
    bare.retuned = unconstrained.retuned();
    bare.capped = unconstrained.capped();
    for (std::size_t s = 0; s < base.choices.size(); ++s) {
        if (!sameBits(base.choices[s], bare.choices[s]))
            fatal("unconstrained arbiter diverged from the "
                  "inefficiency governor at sample ", s);
    }
    if (bare.capped != 0)
        fatal("unconstrained arbiter reported capped decisions");
    replays.push_back(bare);

    // Capped runs: the table at several budgets, both priorities.
    for (const double watts : {0.5, 1.5, 3.0, 8.0}) {
        for (const Priority priority : {Priority::Cpu, Priority::Gpu}) {
            const bool cpu_first = priority == Priority::Cpu;
            BudgetArbiter arbiter(a.clusters, budget, threshold,
                                  capTable(), priority);
            arbiter.setSystemBudget(watts);
            const DomainCaps caps = arbiter.activeCaps();

            char name[64];
            std::snprintf(name, sizeof(name), "arbiter-%.1fW-%s",
                          watts, cpu_first ? "cpu" : "gpu");
            Replay capped = replay(grid, arbiter, name);
            capped.systemBudget = watts;
            capped.priority = cpu_first ? "cpu" : "gpu";
            capped.kept = arbiter.keptSetting();
            capped.retuned = arbiter.retuned();
            capped.capped = arbiter.capped();

            // Invariant 2: every decision honoured the caps in force
            // (the budget is constant across this replay).
            for (std::size_t s = 0; s < capped.choices.size(); ++s) {
                const FrequencySetting &chosen = capped.choices[s];
                if (chosen.cpu > caps.cpu || chosen.mem > caps.mem ||
                    chosen.gpu > caps.gpu)
                    fatal(name, ": decision at sample ", s,
                          " exceeds the active caps");
            }
            replays.push_back(std::move(capped));
        }
    }

    Table table({"policy", "budget W", "prio", "energy J", "seconds",
                 "trans", "kept", "retuned", "capped"});
    table.setTitle("budget arbiter vs inefficiency governor (" +
                   grid.workload() + ", coarse3)");
    for (const Replay &r : replays) {
        table.addRow({r.name,
                      r.systemBudget > 0.0
                          ? Table::num(r.systemBudget, 1)
                          : "-",
                      r.priority, Table::num(r.energy, 4),
                      Table::num(r.seconds, 4),
                      Table::num(static_cast<long long>(r.transitions)),
                      Table::num(static_cast<long long>(r.kept)),
                      Table::num(static_cast<long long>(r.retuned)),
                      Table::num(static_cast<long long>(r.capped))});
    }
    table.print(std::cout);

    writeArbiterJson(out_path, replays);
    std::cout << "\nwrote " << out_path << "\n";
    return 0;
}
