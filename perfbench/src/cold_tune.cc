/**
 * @file
 * cold_tune: a closed loop of one client sending cold tuning requests
 * to CharacterizationService::submit (jobs=1).  Every request is a
 * distinct (workload, seed), so no grid, analysis or profile is ever
 * reused: trace generation, the cache/DRAM model and warm-up do almost
 * all the work.  This is the ROADMAP's "cold tune request".
 *
 * The traced run builds each request from the layer calls instead
 * (keyFor -> characterize -> runWithProfiles -> the core finders),
 * checks that the composed result equals submit()'s, and measures the
 * trace-generation and cache/DRAM rates in separate calls on the same
 * inputs.
 */

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <memory>
#include <set>

#include "core/inefficiency.hh"
#include "core/optimal_settings.hh"
#include "core/performance_clusters.hh"
#include "core/stable_regions.hh"
#include "trace/trace_generator.hh"
#include "tuning.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace mcdvfs;

namespace
{

/**
 * Host seconds one round of the full mix takes on the reference box
 * (4-core container, default RelWithDebInfo build); sets how many
 * whole rounds fit in --seconds.  Whole rounds keep the workload mix,
 * and so the latency distribution, the same for every seed.
 */
constexpr double kRoundSeconds = 5.0;

/** Requests per run re-checked against the scalar oracles. */
constexpr std::size_t kReferenceChecks = 2;

struct Request
{
    std::size_t index;
    MixSlot slot;
    svc::TuningRequest request;
};

Request
makeRequest(std::uint64_t seed, std::size_t index,
            const std::vector<MixSlot> &slots)
{
    const std::uint64_t rs = mixSeed(seed, index);
    const MixSlot slot = slots[index % slots.size()];
    return Request{
        index, slot,
        svc::TuningRequest{
            reseeded(slot.workload, rs), spaceOf(slot.space),
            kBudgets[mixSeed(rs, 1) % kBudgets.size()],
            kThresholds[mixSeed(rs, 2) % kThresholds.size()]}};
}

std::string
itemName(const Request &r)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "r%03zu.%s.%s", r.index,
                  r.slot.workload, spaceName(r.slot.space));
    return buf;
}

/** Compare a result against the digest table, part by part. */
void
checkTable(const Request &r, const ResultDigests &d, DigestTable &table,
           Checks &checks)
{
    const std::string item = itemName(r);
    table.check("cold_tune", item + ".grid", d.grid, checks);
    table.check("cold_tune", item + ".optimal", d.optimal, checks);
    table.check("cold_tune", item + ".clusters", d.clusters, checks);
    table.check("cold_tune", item + ".regions", d.regions, checks);
}

/**
 * Service construction plus one untimed request per settings space
 * the run uses: the request builds the runner's per-space tables,
 * which a long-lived service has already built.
 */
std::unique_ptr<svc::CharacterizationService>
setUp(std::uint64_t seed, int repeat, const std::vector<MixSlot> &mix)
{
    svc::ServiceOptions options;
    options.jobs = 1;
    auto service = std::make_unique<svc::CharacterizationService>(
        SystemConfig::paperDefault(), options);
    std::set<SpaceKind> spaces;
    for (const MixSlot &slot : mix)
        spaces.insert(slot.space);
    for (const SpaceKind space : spaces) {
        // Seeds from their own stream: never equal to a timed request.
        const std::uint64_t ws =
            mixSeed(seed ^ 0x5e70f5e7ull, 16 * repeat + static_cast<int>(space));
        service->submit(svc::TuningRequest{
            reseeded(space == SpaceKind::Coarse3 ? "glrender" : "gobmk", ws),
            spaceOf(space)});
    }
    return service;
}

/**
 * A TraceSource replaying one request's recorded instruction stream.
 * The stream is the (phase, seed, count) set the characterization
 * consumes; each piece is recorded with TraceGenerator::generate when
 * the replay reaches it (timed separately), then served from memory.
 */
class RecordedStream : public TraceSource
{
  public:
    struct Piece
    {
        PhaseSpec spec;
        std::uint64_t seed = 0;
        Count count = 0;
    };

    explicit RecordedStream(std::vector<Piece> pieces)
        : pieces_(std::move(pieces))
    {}

    InstrRecord
    next() override
    {
        if (pos_ == buffer_.size())
            record();
        return buffer_[pos_++];
    }

    Count
    total() const
    {
        Count n = 0;
        for (const Piece &p : pieces_)
            n += p.count;
        return n;
    }

    double generateNs() const { return generateNs_; }

  private:
    void
    record()
    {
        const Piece &piece = pieces_.at(next_++);
        const Clock::time_point t0 = Clock::now();
        buffer_.clear();
        TraceGenerator gen(piece.spec, piece.seed);
        gen.generate(piece.count, buffer_);
        generateNs_ += static_cast<double>(nsBetween(t0, Clock::now()));
        pos_ = 0;
    }

    std::vector<Piece> pieces_;
    std::size_t next_ = 0;
    std::vector<InstrRecord> buffer_;
    std::size_t pos_ = 0;
    double generateNs_ = 0.0;
};

/**
 * The (phase, seed, count) set SampleSimulator::characterize consumes
 * for @c wl: the warm-up chunks cycling the first phases with derived
 * stream seeds, then one chunk per sample.  Mirrors the detached
 * (default) characterization in sim/sample_simulator.cc.
 */
std::vector<RecordedStream::Piece>
streamPieces(const WorkloadProfile &wl, const SampleSimulatorConfig &cfg)
{
    std::vector<RecordedStream::Piece> pieces;
    const std::size_t warm_span =
        std::min<std::size_t>(8, wl.sampleCount());
    Count remaining = cfg.warmupInstructions;
    for (std::size_t w = 0; remaining > 0; ++w) {
        const Count chunk =
            std::min(remaining, cfg.simInstructionsPerSample);
        pieces.push_back(
            {wl.phaseFor(w % warm_span),
             wl.traceSeedFor(w % warm_span) ^
                 (0x57a7ab1e0ddba11ull + w * 0x9e3779b97f4a7c15ull),
             chunk});
        remaining -= chunk;
    }
    for (std::size_t s = 0; s < wl.sampleCount(); ++s)
        pieces.push_back({wl.phaseFor(s), wl.traceSeedFor(s),
                          cfg.simInstructionsPerSample});
    return pieces;
}

/** Distinct profiles (by every field the grid kernel reads). */
std::size_t
distinctProfiles(const std::vector<SampleProfile> &profiles)
{
    std::set<std::array<std::uint64_t, 14>> seen;
    for (const SampleProfile &p : profiles) {
        std::array<std::uint64_t, 14> key{};
        const double fields[14] = {
            p.baseCpi,           p.activity,          p.mlp,
            p.gpuWorkPerInstr,   p.gpuActivity,       p.l1Mpki,
            p.l2Mpki,            p.l2PerInstr,        p.dramReadsPerInstr,
            p.dramWritesPerInstr, p.dramPrefetchPerInstr, p.rowHitFrac,
            p.rowClosedFrac,     p.rowConflictFrac};
        for (std::size_t i = 0; i < 14; ++i)
            key[i] = std::bit_cast<std::uint64_t>(fields[i]);
        seen.insert(key);
    }
    return seen.size();
}

double
ms(std::int64_t ns)
{
    return static_cast<double>(ns) / 1e6;
}

/** Per-layer sums of the traced run. */
struct LayerTotals
{
    std::size_t requests = 0;
    double submitNs = 0.0;
    double noWarmupNs = 0.0;
    double generateNs = 0.0;
    double replayNs = 0.0;
    double instructions = 0.0;
    double streamInstructions = 0.0;
    double samples = 0.0;
    double distinct = 0.0;
    double cells = 0.0;
    double gridHits = 0.0;
    double analysisHits = 0.0;
    double resumed = 0.0;
};

std::vector<Metric>
tracedRun(const Options &options, const std::vector<MixSlot> &mix,
          DigestTable &table, Checks &checks)
{
    const SystemConfig config = SystemConfig::paperDefault();
    auto service = setUp(options.seed, 0, mix);
    GridRunner runner(config);
    runner.setThreadPool(&service->pool());

    Ledger ledger;
    LayerTotals t;
    const Usage usage_start = selfUsage();
    const Clock::time_point phase_start = Clock::now();
    // One whole round of the mix: per-layer values are means per
    // request over the same mix the untraced run measures.
    for (std::size_t i = 0; i < mix.size(); ++i) {
        const Request r = makeRequest(options.seed, i, mix);
        const svc::TuningRequest &req = r.request;
        const std::uint64_t id = i + 1;
        checks.attempt();
        try {
            // Untraced reference: the same request through submit().
            Clock::time_point a = Clock::now();
            const svc::TuningResult submitted = service->submit(req);
            t.submitNs += static_cast<double>(nsBetween(a, Clock::now()));
            t.gridHits += submitted.cacheHit;
            t.analysisHits += submitted.analysisCacheHit;
            t.resumed += submitted.analysisResumed;

            // Traced: the same request composed from the layer calls.
            struct Child
            {
                const char *name;
                Clock::time_point start, end;
            };
            std::vector<Child> children;
            const Clock::time_point root_start = Clock::now();
            auto timed = [&children](const char *name, auto &&call) {
                const Clock::time_point s = Clock::now();
                call();
                children.push_back({name, s, Clock::now()});
            };
            std::vector<SampleProfile> profiles;
            std::unique_ptr<MeasuredGrid> grid;
            svc::TuningResult composed;
            composed.budget = req.budget;
            composed.threshold = req.threshold;
            timed("svc.keyfor",
                  [&] { service->keyFor(req.workload, req.space); });
            timed("sim.characterize", [&] {
                SampleSimulator sim(config.sampler);
                profiles = sim.characterize(req.workload);
            });
            timed("sim.grid", [&] {
                grid = std::make_unique<MeasuredGrid>(runner.runWithProfiles(
                    req.workload.name(), profiles, req.space,
                    req.workload.modeledInstructionsPerSample()));
            });
            std::unique_ptr<InefficiencyAnalysis> analysis;
            std::unique_ptr<OptimalSettingsFinder> finder;
            timed("core.optimal", [&] {
                analysis = std::make_unique<InefficiencyAnalysis>(*grid);
                finder = std::make_unique<OptimalSettingsFinder>(*analysis);
                composed.optimal = finder->optimalTrajectory(req.budget);
            });
            std::unique_ptr<ClusterFinder> cluster_finder;
            timed("core.cluster", [&] {
                cluster_finder = std::make_unique<ClusterFinder>(*finder);
                composed.clusters = cluster_finder->clusters(
                    req.budget, req.threshold, &service->pool());
            });
            timed("core.region", [&] {
                StableRegionFinder region_finder(*cluster_finder);
                composed.regions =
                    region_finder.fromClusters(composed.clusters);
            });
            const Clock::time_point root_end = Clock::now();
            const int root =
                ledger.add("request", root_start, root_end, -1, id);
            for (const Child &c : children)
                ledger.add(c.name, c.start, c.end, root, id);

            composed.grid = std::shared_ptr<const MeasuredGrid>(
                std::move(grid));
            const ResultDigests want = digestResult(submitted);
            const ResultDigests got = digestResult(composed);
            if (!(want == got))
                checks.fail("cold_tune " + itemName(r) +
                            ": composed layer calls differ from submit()");
            checkTable(r, got, table, checks);

            // Separate calls on the same inputs (outside the ledger):
            // characterization without warm-up, and the trace/memory
            // split over the recorded instruction stream.
            SampleSimulatorConfig no_warm = config.sampler;
            no_warm.warmupInstructions = 0;
            a = Clock::now();
            SampleSimulator(no_warm).characterize(req.workload);
            t.noWarmupNs += static_cast<double>(nsBetween(a, Clock::now()));

            RecordedStream stream(streamPieces(req.workload, config.sampler));
            const Count total = stream.total();
            a = Clock::now();
            SampleSimulator(config.sampler)
                .characterizeTrace(stream, total, req.workload.phaseFor(0));
            const double call_ns =
                static_cast<double>(nsBetween(a, Clock::now()));
            t.generateNs += stream.generateNs();
            t.replayNs += call_ns - stream.generateNs();
            t.streamInstructions += static_cast<double>(total);

            t.instructions += static_cast<double>(
                simulatedInstructions(req.workload, config));
            t.samples += static_cast<double>(profiles.size());
            t.distinct += static_cast<double>(distinctProfiles(profiles));
            t.cells += static_cast<double>(profiles.size() *
                                           req.space.size());
            ++t.requests;
        } catch (const std::exception &err) {
            checks.fail("cold_tune " + itemName(r) + ": " + err.what());
        }
    }
    const double phase_s = secondsBetween(phase_start, Clock::now());
    const double cpu_s = selfUsage().cpuSeconds - usage_start.cpuSeconds;
    ledger.write(options.spansOut);

    std::vector<Metric> m = perLayerTemplate();
    const double n = std::max<double>(1.0, static_cast<double>(t.requests));
    const std::map<std::string, double> self = ledger.selfNs();
    auto selfOf = [&self](const char *name) {
        const auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second;
    };
    const double layers_ns = selfOf("svc.keyfor") +
                             selfOf("sim.characterize") +
                             selfOf("sim.grid") + selfOf("core.optimal") +
                             selfOf("core.cluster") + selfOf("core.region");
    setMetric(m, "trace.generate_ns_per_instr",
              t.generateNs / std::max(1.0, t.streamInstructions));
    setMetric(m, "mem.replay_ns_per_instr",
              t.replayNs / std::max(1.0, t.streamInstructions));
    const double characterize_ns = selfOf("sim.characterize");
    setMetric(m, "sim.characterize_ms", characterize_ns / n / 1e6);
    setMetric(m, "sim.warmup_ms", (characterize_ns - t.noWarmupNs) / n / 1e6);
    setMetric(m, "sim.unique_row_share", t.distinct / std::max(1.0, t.samples));
    setMetric(m, "sim.minstr_per_s",
              t.instructions / std::max(1.0, characterize_ns) * 1e3);
    setMetric(m, "sim.grid_ms", selfOf("sim.grid") / n / 1e6);
    setMetric(m, "sim.grid_ns_per_cell",
              selfOf("sim.grid") / std::max(1.0, t.cells));
    setMetric(m, "core.optimal_ms", selfOf("core.optimal") / n / 1e6);
    setMetric(m, "core.cluster_ms", selfOf("core.cluster") / n / 1e6);
    setMetric(m, "core.region_ms", selfOf("core.region") / n / 1e6);
    setMetric(m, "svc.keyfor_us", selfOf("svc.keyfor") / n / 1e3);
    setMetric(m, "svc.overhead_ms", (t.submitNs - layers_ns) / n / 1e6);
    setMetric(m, "svc.grid_hit_share", t.gridHits / n);
    setMetric(m, "svc.analysis_hit_share", t.analysisHits / n);
    setMetric(m, "svc.resume_share", t.resumed / n);
    // Caller plus the service's one pool worker.
    setMetric(m, "exec.busy_share", cpu_s / (phase_s * 2.0));
    setMetric(m, "ledger.coverage_share",
              layers_ns / std::max(1.0, ledger.rootNs()));
    // Traced wall time (the composed requests, spans included) against
    // untraced (the same requests through submit()).
    setMetric(m, "ledger.trace_overhead_share",
              ledger.rootNs() / std::max(1.0, t.submitNs) - 1.0);
    return m;
}

} // namespace

std::vector<Metric>
coldTune(const Options &options, DigestTable &table, Checks &checks)
{
    const std::vector<MixSlot> mix = requestMix(options.tiny);
    if (options.trace)
        return tracedRun(options, mix, table, checks);

    // Set up several times; setup_s is the median, the first one
    // counted from process start.
    std::vector<double> setup_s;
    std::unique_ptr<svc::CharacterizationService> service;
    for (int k = 0; k < kSetupRepeats; ++k) {
        const Clock::time_point start =
            k == 0 ? processStart() : Clock::now();
        service.reset();
        service = setUp(options.seed, k, mix);
        setup_s.push_back(secondsBetween(start, Clock::now()));
    }

    const SystemConfig config = SystemConfig::paperDefault();
    const std::size_t rounds =
        options.tiny ? 1
                     : std::max<std::size_t>(1, static_cast<std::size_t>(
                                                    std::lround(
                                                        options.seconds /
                                                        kRoundSeconds)));
    const std::size_t total = rounds * mix.size();
    // Seed-drawn requests also re-checked against the scalar oracles,
    // between requests (outside the timed calls).
    std::set<std::size_t> reference_picks;
    for (std::size_t k = 0;
         reference_picks.size() < std::min(kReferenceChecks, total); ++k)
        reference_picks.insert(
            mixSeed(options.seed ^ 0x0defacedull, k) % total);

    std::vector<double> latency_ms;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    double instructions = 0.0;
    for (std::size_t i = 0; i < total; ++i) {
        const Request r = makeRequest(options.seed, i, mix);
        checks.attempt();
        const double cpu0 = selfUsage().cpuSeconds;
        const Clock::time_point sent = Clock::now();
        try {
            const svc::TuningResult result = service->submit(r.request);
            const Clock::time_point done = Clock::now();
            cpu_s += selfUsage().cpuSeconds - cpu0;
            latency_ms.push_back(ms(nsBetween(sent, done)));
            wall_s += secondsBetween(sent, done);
            instructions += static_cast<double>(
                simulatedInstructions(r.request.workload, config));

            const ResultDigests digests = digestResult(result);
            checkTable(r, digests, table, checks);
            if (reference_picks.count(i) &&
                !(referenceDigests(config, result) == digests))
                checks.fail("cold_tune " + itemName(r) +
                            ": differs from the reference kernel/analysis");
        } catch (const std::exception &err) {
            checks.fail("cold_tune " + itemName(r) + ": " + err.what());
        }
    }

    const Tail tail = tailOf(latency_ms);
    std::printf("# request_tail_ms is p%.2f of %zu requests; "
                "sim_minstr_per_s %.4g; %zu oracle re-checks; "
                "%zu table digests compared\n",
                tail.percentile, tail.samples,
                instructions / std::max(wall_s, 1e-9) / 1e6,
                reference_picks.size(), table.compared());
    std::vector<Metric> m = endToEndTemplate();
    setMetric(m, "setup_s", median(setup_s));
    setMetric(m, "wall_s", wall_s);
    setMetric(m, "cpu_s", cpu_s);
    setMetric(m, "peak_rss_mb", selfUsage().peakRssMb);
    setMetric(m, "request_p50_ms", tail.p50);
    setMetric(m, "request_tail_ms", tail.tail);
    return m;
}

} // namespace perfbench
