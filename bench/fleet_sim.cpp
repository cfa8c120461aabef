/**
 * @file
 * Synthetic-fleet load generator for the tuning daemon (docs/FLEET.md).
 *
 * Replays a fleet of devices against daemon::TuningDaemon: each device
 * issues one tuning request drawn from a class table (workload variant
 * x budget x threshold).  Class popularity is Zipf-skewed — a few hot
 * configurations dominate, as in a real fleet — and arrivals are
 * phase-correlated: devices of the same class arrive in geometric
 * bursts rather than independently.  A bounded window of outstanding
 * futures provides the client-side flow control; the daemon's own
 * admission control sheds whatever the window still over-drives.
 *
 * The run has two phases over one snapshot-store directory:
 *
 *   cold  — fresh store: every distinct grid characterizes and every
 *           distinct analysis computes once, then persists.
 *   warm  — a second daemon over the same store: construction
 *           warm-loads the snapshots, so the replay should serve from
 *           the caches from the first request.
 *
 * Every completed result is digested (optimal trajectory, regions);
 * the warm replay must reproduce the cold digests exactly — snapshots
 * round-trip bit-identically or the binary fatals.  Results go to
 * stdout and BENCH_fleet.json (schema mcdvfs-bench-fleet-v1) with an
 * obs metrics sidecar.
 *
 * --tiny shrinks the fleet so the binary doubles as the tier-1
 * "perf_smoke" ctest.
 *
 * Observability hooks (docs/OBSERVABILITY.md): a telemetry pipeline
 * samples the whole run and --telemetry-out FILE exports its
 * timeseries JSON; --trace-out FILE records a Chrome/Perfetto trace
 * with per-request flows; --journal-out FILE dumps the daemon's
 * request journal (JSONL).  Every run checks that labeled counter
 * series sum exactly to their unlabeled totals, and — when both trace
 * and journal are on — that every journaled request_id appears as a
 * trace flow.  --overload replays a third phase against a queue of 2
 * with no client flow control and fatals unless the shed_rate SLO
 * rule trips.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <vector>

#include "bench_json.hh"
#include "common/args.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "daemon/tuning_daemon.hh"
#include "obs/journal.hh"
#include "obs/metrics.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"
#include "svc/fingerprint.hh"

using namespace mcdvfs;

namespace
{

/** One device class: a (workload, budget, threshold) configuration. */
struct DeviceClass
{
    svc::TuningRequest request;
    /** Digest of the class's result; 0 until first completed. */
    std::uint64_t digest = 0;
};

/** What one replay phase measured. */
struct PhaseOutcome
{
    double startupSeconds = 0.0;  ///< daemon construction (+ warm load)
    double replaySeconds = 0.0;
    /** Time spent characterizing samples ("sim.grid.characterize_ns"
     *  delta over the phase, summed across builder threads). */
    double characterizeSeconds = 0.0;
    /** Time spent in the §V/§VI analysis chain ("svc.service.analyze_ns"
     *  delta over the phase, summed across threads). */
    double analyzeSeconds = 0.0;
    std::uint64_t completed = 0;
    std::uint64_t shed = 0;
    std::uint64_t gridHits = 0;
    std::uint64_t analysisHits = 0;
    /** Profile-cache traffic of the phase (0 when memoization is off). */
    std::uint64_t profileHits = 0;
    std::uint64_t profileMisses = 0;
    /** Grid hits / completions among the first `window` submissions. */
    std::uint64_t firstWindowHits = 0;
    std::uint64_t firstWindowTotal = 0;
    std::uint64_t p50Ns = 0;
    std::uint64_t p99Ns = 0;
    daemon::DaemonStats stats;
};

/** Current value of one unlabeled counter (0 when never registered). */
std::uint64_t
counterValue(const char *name)
{
    const obs::MetricsSnapshot snapshot =
        obs::MetricsRegistry::global().snapshot();
    for (const auto &[key, value] : snapshot.counters) {
        if (key == name)
            return value;
    }
    return 0;
}

/** Deterministic synthetic workload variant @c index. */
WorkloadProfile
fleetWorkload(std::size_t index)
{
    PhaseSpec cpu;
    cpu.name = "cpu";
    cpu.baseCpi = 0.7 + 0.05 * static_cast<double>(index % 5);
    cpu.hotFrac = 0.97;
    cpu.warmFrac = 0.02;
    PhaseSpec mem;
    mem.name = "mem";
    mem.baseCpi = 1.0 + 0.04 * static_cast<double>(index % 4);
    mem.hotFrac = 0.82;
    mem.warmFrac = 0.10;
    mem.coldSeqFrac = 0.25;
    mem.mlp = 1.2 + 0.1 * static_cast<double>(index % 3);
    const std::size_t period = 2 + index % 3;
    // PerPhase seeding: the fleet's variants share phases (index % 5 /
    // % 4 / % 3 parameterizations), so with memoization on, each
    // distinct phase characterizes once across the whole fleet.
    return WorkloadProfile(
        "fleet-v" + std::to_string(index), 8,
        [cpu, mem, period](std::size_t s) {
            return (s / period) % 2 ? mem : cpu;
        },
        100 + index, /*jitter=*/0.0,
        WorkloadProfile::SeedMode::PerPhase);
}

/** The class table: variants x budgets x thresholds. */
std::vector<DeviceClass>
buildClasses(std::size_t variants, bool tiny)
{
    const std::vector<double> budgets =
        tiny ? std::vector<double>{1.3, 1.5}
             : std::vector<double>{1.1, 1.3, 1.5, 2.0};
    const std::vector<double> thresholds =
        tiny ? std::vector<double>{0.03}
             : std::vector<double>{0.01, 0.03};

    std::vector<DeviceClass> classes;
    for (std::size_t v = 0; v < variants; ++v) {
        const WorkloadProfile workload = fleetWorkload(v);
        for (const double budget : budgets) {
            for (const double threshold : thresholds) {
                classes.push_back(DeviceClass{
                    svc::TuningRequest{workload, SettingsSpace::coarse(),
                                       budget, threshold},
                    0});
            }
        }
    }
    return classes;
}

/**
 * Zipf-skewed, burst-correlated arrival schedule: class popularity
 * follows 1/rank^s, and each draw repeats for a geometric burst.
 */
std::vector<std::size_t>
buildSchedule(std::size_t devices, std::size_t classes, double exponent,
              double burst_p, Rng &rng)
{
    std::vector<double> cdf(classes);
    double total = 0.0;
    for (std::size_t i = 0; i < classes; ++i) {
        total += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
        cdf[i] = total;
    }

    std::vector<std::size_t> schedule;
    schedule.reserve(devices);
    while (schedule.size() < devices) {
        const double draw = rng.uniform() * total;
        const std::size_t cls = static_cast<std::size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), draw) - cdf.begin());
        const std::uint64_t burst = 1 + rng.geometric(burst_p);
        for (std::uint64_t b = 0; b < burst && schedule.size() < devices;
             ++b) {
            schedule.push_back(std::min(cls, classes - 1));
        }
    }
    return schedule;
}

/** Result digest for the cold-vs-warm bit-identity check. */
std::uint64_t
digestOf(const svc::TuningResult &result)
{
    svc::HashBuilder h;
    for (const OptimalChoice &choice : result.optimal) {
        h.add(static_cast<std::uint64_t>(choice.settingIndex));
        h.add(choice.speedup);
        h.add(choice.inefficiency);
    }
    for (const PerformanceCluster &cluster : result.clusters)
        h.add(static_cast<std::uint64_t>(cluster.settings.size()));
    for (const StableRegion &region : result.regions) {
        h.add(static_cast<std::uint64_t>(region.first));
        h.add(static_cast<std::uint64_t>(region.last));
        h.add(static_cast<std::uint64_t>(region.chosenSettingIndex));
    }
    return h.digest();
}

/** Harvest one future; fatal when its digest diverges from the class. */
void
harvest(std::future<daemon::DaemonResponse> &future, DeviceClass &cls,
        std::size_t submit_index, std::size_t window, const char *phase,
        PhaseOutcome &outcome, std::vector<std::uint64_t> &latencies)
{
    const daemon::DaemonResponse response = future.get();
    if (!response.ok()) {
        ++outcome.shed;
        return;
    }
    ++outcome.completed;
    latencies.push_back(response.totalNs);
    if (response.result.cacheHit)
        ++outcome.gridHits;
    if (response.result.analysisCacheHit)
        ++outcome.analysisHits;
    if (submit_index < window) {
        ++outcome.firstWindowTotal;
        if (response.result.cacheHit)
            ++outcome.firstWindowHits;
    }

    const std::uint64_t digest = digestOf(response.result);
    if (cls.digest == 0)
        cls.digest = digest;
    else if (cls.digest != digest)
        fatal("fleet sim: ", phase, " result diverges for workload '",
              cls.request.workload.name(), "' budget ",
              cls.request.budget, " — snapshot round trip is not "
              "bit-identical");
}

/** Replay the schedule against a fresh daemon over @c options. */
PhaseOutcome
replay(const SystemConfig &config, const daemon::DaemonOptions &options,
       std::vector<DeviceClass> &classes,
       const std::vector<std::size_t> &schedule, std::size_t window,
       const char *phase, obs::DecisionJournal *journal = nullptr)
{
    using FleetClock = std::chrono::steady_clock;
    PhaseOutcome outcome;

    const std::uint64_t characterize_before =
        counterValue("sim.grid.characterize_ns");
    const std::uint64_t analyze_before =
        counterValue("svc.service.analyze_ns");
    const std::uint64_t profile_hits_before =
        counterValue("svc.profile.hits");
    const std::uint64_t profile_misses_before =
        counterValue("svc.profile.misses");

    const auto construct_start = FleetClock::now();
    daemon::TuningDaemon daemon(config, options);
    daemon.setJournal(journal);
    outcome.startupSeconds =
        std::chrono::duration<double>(FleetClock::now() - construct_start)
            .count();

    struct Outstanding
    {
        std::future<daemon::DaemonResponse> future;
        std::size_t cls;
        std::size_t submitIndex;
    };
    std::vector<std::uint64_t> latencies;
    latencies.reserve(schedule.size());
    std::deque<Outstanding> outstanding;

    const auto replay_start = FleetClock::now();
    for (std::size_t i = 0; i < schedule.size(); ++i) {
        const std::size_t cls = schedule[i];
        outstanding.push_back(
            Outstanding{daemon.submit(classes[cls].request), cls, i});
        while (outstanding.size() >= window) {
            harvest(outstanding.front().future,
                    classes[outstanding.front().cls],
                    outstanding.front().submitIndex, window, phase,
                    outcome, latencies);
            outstanding.pop_front();
        }
    }
    while (!outstanding.empty()) {
        harvest(outstanding.front().future,
                classes[outstanding.front().cls],
                outstanding.front().submitIndex, window, phase, outcome,
                latencies);
        outstanding.pop_front();
    }
    daemon.drain();
    outcome.replaySeconds =
        std::chrono::duration<double>(FleetClock::now() - replay_start)
            .count();
    outcome.characterizeSeconds =
        static_cast<double>(counterValue("sim.grid.characterize_ns") -
                            characterize_before) /
        1e9;
    outcome.analyzeSeconds =
        static_cast<double>(counterValue("svc.service.analyze_ns") -
                            analyze_before) /
        1e9;
    outcome.profileHits =
        counterValue("svc.profile.hits") - profile_hits_before;
    outcome.profileMisses =
        counterValue("svc.profile.misses") - profile_misses_before;

    std::sort(latencies.begin(), latencies.end());
    if (!latencies.empty()) {
        outcome.p50Ns = latencies[latencies.size() / 2];
        outcome.p99Ns =
            latencies[std::min(latencies.size() - 1,
                               latencies.size() * 99 / 100)];
    }
    outcome.stats = daemon.stats();
    return outcome;
}

double
rate(std::uint64_t part, std::uint64_t whole)
{
    return whole == 0 ? 0.0
                      : static_cast<double>(part) /
                            static_cast<double>(whole);
}

void
printPhase(const char *phase, const PhaseOutcome &o,
           std::size_t devices)
{
    std::printf("%-4s  startup %8.3f ms   replay %8.3f s   "
                "%6.0f req/s\n",
                phase, o.startupSeconds * 1e3, o.replaySeconds,
                static_cast<double>(o.completed) /
                    std::max(o.replaySeconds, 1e-9));
    std::printf("      completed %llu/%zu   shed %llu (%.1f%%)   "
                "p50 %.3f ms   p99 %.3f ms\n",
                static_cast<unsigned long long>(o.completed), devices,
                static_cast<unsigned long long>(o.shed),
                100.0 * rate(o.shed, o.completed + o.shed),
                static_cast<double>(o.p50Ns) / 1e6,
                static_cast<double>(o.p99Ns) / 1e6);
    std::printf("      grid hits %.1f%%   analysis hits %.1f%%   "
                "first-window grid hits %.1f%%   warm loads %llu+%llu\n",
                100.0 * rate(o.gridHits, o.completed),
                100.0 * rate(o.analysisHits, o.completed),
                100.0 * rate(o.firstWindowHits, o.firstWindowTotal),
                static_cast<unsigned long long>(o.stats.warmGrids),
                static_cast<unsigned long long>(o.stats.warmAnalyses));
    std::printf("      characterize %8.3f s   analyze %8.3f s   "
                "profile cache %llu hits / %llu misses\n",
                o.characterizeSeconds, o.analyzeSeconds,
                static_cast<unsigned long long>(o.profileHits),
                static_cast<unsigned long long>(o.profileMisses));
}

void
writePhaseJson(std::ofstream &out, const char *phase,
               const PhaseOutcome &o, bool last)
{
    out << "    {\"phase\": \"" << phase << "\""
        << ", \"startup_seconds\": " << o.startupSeconds
        << ", \"replay_seconds\": " << o.replaySeconds
        << ",\n     \"characterize_seconds\": " << o.characterizeSeconds
        << ", \"analyze_seconds\": " << o.analyzeSeconds
        << ", \"profile_hits\": " << o.profileHits
        << ", \"profile_misses\": " << o.profileMisses
        << ",\n     \"completed\": " << o.completed
        << ", \"shed\": " << o.shed
        << ", \"shed_rate\": " << rate(o.shed, o.completed + o.shed)
        << ", \"p50_ns\": " << o.p50Ns << ", \"p99_ns\": " << o.p99Ns
        << ",\n     \"grid_hit_rate\": " << rate(o.gridHits, o.completed)
        << ", \"analysis_hit_rate\": "
        << rate(o.analysisHits, o.completed)
        << ", \"first_window_grid_hit_rate\": "
        << rate(o.firstWindowHits, o.firstWindowTotal)
        << ",\n     \"batches\": " << o.stats.batches
        << ", \"coalesced\": " << o.stats.coalesced
        << ", \"warm_grids\": " << o.stats.warmGrids
        << ", \"warm_analyses\": " << o.stats.warmAnalyses << "}"
        << (last ? "" : ",") << "\n";
}

/**
 * Invariant check: every labeled counter family (`base{k=v}` series)
 * must sum exactly to its unlabeled base counter — labeled series are
 * bumped at the same sites as their totals, so a mismatch means an
 * instrumentation site lost a dimension.  Families that hit the label
 * interner's overflow cap are skipped (the overflow series absorbs an
 * unknown share).
 */
void
checkLabelSums(const obs::MetricsSnapshot &snapshot)
{
    struct Family
    {
        std::uint64_t labeledSum = 0;
        bool overflowed = false;
    };
    std::vector<std::pair<std::string, Family>> families;
    for (const auto &[name, value] : snapshot.counters) {
        const std::size_t brace = name.find('{');
        if (brace == std::string::npos)
            continue;
        const std::string base = name.substr(0, brace);
        Family *family = nullptr;
        for (auto &[known, f] : families) {
            if (known == base) {
                family = &f;
                break;
            }
        }
        if (family == nullptr) {
            families.emplace_back(base, Family{});
            family = &families.back().second;
        }
        if (name.find("overflow=true") != std::string::npos)
            family->overflowed = true;
        else
            family->labeledSum += value;
    }

    std::size_t checked = 0;
    for (const auto &[base, family] : families) {
        if (family.overflowed)
            continue;
        for (const auto &[name, value] : snapshot.counters) {
            if (name != base)
                continue;
            if (family.labeledSum != value)
                fatal("fleet sim: labeled series of '", base,
                      "' sum to ", family.labeledSum,
                      " but the unlabeled total is ", value);
            ++checked;
            break;
        }
    }
    std::printf("label-sum check: %zu labeled families consistent\n",
                checked);
}

/**
 * Invariant check: with tracing on and no ring overwrites, every
 * journaled request id must appear as a flow id on at least one
 * daemon span — the journal and the trace share one id space.
 */
void
checkJournalTraceCorrelation(const obs::DecisionJournal &journal)
{
    const obs::TraceSnapshot snapshot =
        obs::TraceCollector::global().snapshot();
    if (snapshot.droppedEvents != 0) {
        std::printf("journal/trace check: skipped (%llu trace events "
                    "dropped to ring wrap)\n",
                    static_cast<unsigned long long>(
                        snapshot.droppedEvents));
        return;
    }
    std::vector<std::uint64_t> flows;
    flows.reserve(snapshot.events.size());
    for (const obs::TraceEventView &event : snapshot.events) {
        if (event.flowId != 0)
            flows.push_back(event.flowId);
    }
    std::sort(flows.begin(), flows.end());
    std::size_t checked = 0;
    for (const obs::RequestRecord &record : journal.requestRecords()) {
        if (!std::binary_search(flows.begin(), flows.end(),
                                record.requestId))
            fatal("fleet sim: journal request_id ", record.requestId,
                  " has no matching trace flow");
        ++checked;
    }
    std::printf("journal/trace check: %zu request ids matched to "
                "trace flows\n",
                checked);
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("fleet_sim");
    args.addFlag("tiny");
    args.addFlag("overload");
    args.addOption("trace-out");
    args.addOption("journal-out");
    args.addOption("telemetry-out");
    args.addOption("devices");
    args.addOption("jobs");
    args.addOption("window");
    args.addOption("queue");
    args.addOption("variants");
    args.addOption("seed");
    args.addOption("store");
    args.addOption("out");
    args.addOption("profile-cache-capacity");
    bool tiny = false;
    std::size_t devices = 0;
    std::size_t jobs = 0;
    std::size_t window = 0;
    std::size_t queue = 0;
    std::size_t variants = 0;
    std::size_t profile_capacity = 0;
    std::uint64_t seed = 0;
    std::string store_dir;
    std::string out_path;
    try {
        args.parse(argc, argv);
        tiny = args.flag("tiny");
        devices = static_cast<std::size_t>(args.getInt(
            "devices", tiny ? 400 : 10'000, 1, 10'000'000));
        jobs = static_cast<std::size_t>(
            args.getInt("jobs", tiny ? 2 : 4, 1, 1024));
        window = static_cast<std::size_t>(
            args.getInt("window", tiny ? 128 : 1024, 1, 1'000'000));
        queue = static_cast<std::size_t>(
            args.getInt("queue", tiny ? 64 : 256, 1, 1'000'000));
        variants = static_cast<std::size_t>(
            args.getInt("variants", tiny ? 2 : 8, 1, 64));
        // Characterization memoization is on by default (the fleet's
        // phase-keyed workloads are what it exists for); 0 disables it
        // and falls back to warm-state characterization.
        profile_capacity = static_cast<std::size_t>(args.getInt(
            "profile-cache-capacity", tiny ? 256 : 1024, 0, 1 << 20));
        seed = static_cast<std::uint64_t>(
            args.getInt("seed", 42, 0, 1'000'000'000));
        store_dir = args.get("store", "fleet_store");
        out_path = args.get("out", "BENCH_fleet.json");
    } catch (const FatalError &err) {
        std::fprintf(stderr, "error: %s\n", err.what());
        return 2;
    }

    // The serving pipeline, not the simulator, is under test: keep the
    // per-sample simulation small so grids build in milliseconds.
    SystemConfig config = SystemConfig::paperDefault();
    config.sampler.simInstructionsPerSample = 20'000;
    config.sampler.warmupInstructions = 100'000;
    config.sampler.profileWarmupInstructions = 40'000;

    std::vector<DeviceClass> classes = buildClasses(variants, tiny);
    Rng rng(seed);
    const double zipf_exponent = 1.1;
    const double burst_p = 0.3;  // mean burst ~3.3 devices
    const std::vector<std::size_t> schedule = buildSchedule(
        devices, classes.size(), zipf_exponent, burst_p, rng);

    daemon::DaemonOptions options;
    options.service.jobs = jobs;
    // Size the caches above the fleet's working set (one grid per
    // variant, one analysis per class), so no phase evicts and the
    // warm phase measures the store, not eviction noise.  The sizes
    // are those the committed fleet baseline was recorded with.
    options.service.cacheCapacity =
        std::max<std::size_t>(32, 8 * variants);
    options.service.analysisCapacity =
        std::max<std::size_t>(64, 8 * classes.size());
    options.service.profileCacheCapacity = profile_capacity;
    options.queueCapacity = queue;
    options.storeDir = store_dir;

    std::printf("fleet_sim: %zu devices, %zu classes (%zu grids), "
                "jobs %zu, window %zu, queue %zu, profile cache %zu, "
                "store '%s'\n",
                devices, classes.size(), variants, jobs, window, queue,
                profile_capacity, store_dir.c_str());

    if (args.has("trace-out"))
        obs::TraceCollector::global().enable();
    obs::DecisionJournal journal;
    obs::DecisionJournal *journal_ptr =
        args.has("journal-out") ? &journal : nullptr;

    // The telemetry pipeline samples throughout the run; explicit
    // tickNow() calls at phase boundaries make the phase deltas (and
    // the overload SLO check below) deterministic regardless of the
    // sampling period.
    obs::TelemetryConfig telemetry_config;
    telemetry_config.period = std::chrono::milliseconds(100);
    obs::TelemetryPipeline pipeline(telemetry_config);
    pipeline.start();

    // Cold phase: empty store, everything characterizes once.
    std::filesystem::remove_all(store_dir);
    const PhaseOutcome cold = replay(config, options, classes, schedule,
                                     window, "cold", journal_ptr);
    printPhase("cold", cold, devices);
    pipeline.tickNow();

    // Warm phase: a restarted daemon over the populated store must
    // answer from the first request on and reproduce every digest.
    const PhaseOutcome warm = replay(config, options, classes, schedule,
                                     window, "warm", journal_ptr);
    printPhase("warm", warm, devices);
    pipeline.tickNow();

    if (args.flag("overload")) {
        // Overload phase: a daemon with a near-zero admission queue
        // and no client-side flow control (window = fleet size) sheds
        // most of the schedule; the next telemetry tick must observe
        // the burst and trip the shed_rate SLO rule.  Runs after the
        // BENCH JSON phases and does not contribute to them.
        const std::uint64_t breaches_before =
            pipeline.watchdog().breachCount();
        daemon::DaemonOptions overload_options = options;
        overload_options.queueCapacity = 2;
        const PhaseOutcome overload =
            replay(config, overload_options, classes, schedule,
                   schedule.size() + 1, "overload", journal_ptr);
        printPhase("over", overload, devices);
        pipeline.tickNow();
        if (overload.shed == 0)
            fatal("fleet sim: overload phase shed nothing — queue "
                  "capacity 2 should overflow");
        bool tripped = false;
        for (const obs::SloBreach &breach :
             pipeline.watchdog().breaches()) {
            if (breach.rule == "shed_rate")
                tripped = true;
        }
        if (!tripped ||
            pipeline.watchdog().breachCount() <= breaches_before)
            fatal("fleet sim: induced overload did not trip the "
                  "shed_rate SLO rule");
        std::printf("overload: shed_rate SLO breach counted (%llu "
                    "total breaches)\n",
                    static_cast<unsigned long long>(
                        pipeline.watchdog().breachCount()));
    }

    if (warm.stats.warmGrids == 0)
        fatal("fleet sim: warm restart loaded no grid snapshots");
    if (warm.completed > 0 &&
        rate(warm.firstWindowHits, warm.firstWindowTotal) <=
            rate(cold.firstWindowHits, cold.firstWindowTotal))
        fatal("fleet sim: warm restart did not improve the "
              "first-window hit rate");

    std::ofstream out(out_path);
    if (!out)
        fatal("fleet sim: cannot open ", out_path, " for writing");
    out.precision(17);
    out << "{\n"
        << "  \"schema\": \"mcdvfs-bench-fleet-v1\",\n"
        << "  \"benchmark\": \"fleet_sim\",\n"
        << "  \"devices\": " << devices
        << ", \"classes\": " << classes.size()
        << ", \"distinct_grids\": " << variants
        << ", \"jobs\": " << jobs
        << ", \"profile_cache_capacity\": " << profile_capacity << ",\n"
        << "  \"window\": " << window
        << ", \"queue_capacity\": " << queue
        << ", \"zipf_exponent\": " << zipf_exponent
        << ", \"burst_p\": " << burst_p << ", \"seed\": " << seed
        << ",\n"
        << "  \"phases\": [\n";
    writePhaseJson(out, "cold", cold, false);
    writePhaseJson(out, "warm", warm, true);
    out << "  ]\n}\n";
    if (!out)
        fatal("fleet sim: failed writing ", out_path);

    const std::string metrics_path = bench::metricsSidecarPath(out_path);
    obs::writeMetricsJson(metrics_path);
    std::printf("wrote %s and %s\n", out_path.c_str(),
                metrics_path.c_str());

    // Final telemetry tick (stop flushes one), then verify the
    // dimensional-metrics invariant over the quiesced registry.
    pipeline.stop();
    checkLabelSums(obs::MetricsRegistry::global().snapshot());

    if (journal_ptr != nullptr) {
        journal.write(args.get("journal-out"));
        std::printf("wrote %zu request records to %s\n",
                    journal.requestRecords().size(),
                    args.get("journal-out").c_str());
    }
    if (args.has("trace-out")) {
        obs::writeChromeTraceJson(args.get("trace-out"));
        std::printf("wrote trace to %s\n",
                    args.get("trace-out").c_str());
    }
    if (journal_ptr != nullptr && args.has("trace-out"))
        checkJournalTraceCorrelation(journal);
    if (args.has("telemetry-out")) {
        pipeline.writeJson(args.get("telemetry-out"));
        std::printf("wrote %llu telemetry ticks to %s\n",
                    static_cast<unsigned long long>(pipeline.ticks()),
                    args.get("telemetry-out").c_str());
    }
    return 0;
}
