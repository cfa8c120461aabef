#include "sim/sample_simulator.hh"

#include <algorithm>
#include <array>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>

#include "common/hash.hh"
#include "common/logging.hh"
#include "exec/thread_pool.hh"
#include "obs/metrics.hh"
#include "sim/profile_cache.hh"
#include "trace/trace_generator.hh"

namespace mcdvfs
{

namespace
{

std::uint64_t
addCacheConfig(std::uint64_t h, const CacheConfig &cache)
{
    h = fnv1aString(h, cache.name);
    h = fnv1aWordBytes(h, cache.name.size());
    h = fnv1aWordBytes(h, cache.sizeBytes);
    h = fnv1aWordBytes(h, cache.associativity);
    h = fnv1aWordBytes(h, cache.lineBytes);
    h = fnv1aWordBytes(h, cache.latencyCycles);
    return h;
}

/** One warm-up chunk or one sample. */
struct Piece
{
    PhaseSpec spec;
    std::uint64_t seed = 0;
    Count count = 0;
    bool reset = false;   ///< reset caches and DRAM first
    bool record = false;  ///< measure it (else warm-up)
};

/**
 * One sample's DRAM side: zeroes the per-sample counters of the warm
 * hierarchy and DRAM model, classifies each DRAM transaction the
 * hierarchy hands it, and turns the counts into the sample's rates.
 */
class SampleRun
{
  public:
    SampleRun(CacheHierarchy &hierarchy, DramDevice &dram)
        : hierarchy_(hierarchy), dram_(dram)
    {
        hierarchy_.clearStats();
        dram_.clearStats();
    }

    /** The hierarchy's DRAM sink (called from its miss path only). */
    void
    operator()(std::uint64_t addr, bool is_write, bool is_prefetch)
    {
        dram_.access(addr, is_write);
        dramWrites_ += is_write;
        dramPrefetch_ += !is_write & is_prefetch;
        dramReads_ += !is_write & !is_prefetch;
    }

    /**
     * Push @c n memory accesses through one hierarchy Pass.  The L1
     * hit stays in this loop; an L1 miss is one call, which also
     * classifies the DRAM transactions.
     */
    template <class Access>
    void
    replay(const Access *accesses, std::size_t n)
    {
        CacheHierarchy::Pass<SampleRun> pass(hierarchy_, *this);
        for (std::size_t i = 0; i < n; ++i)
            pass.access(address(accesses[i]), isStore(accesses[i]));
    }

    SampleProfile
    profile(Count instructions, Count gpu_kicks,
            const PhaseSpec &spec) const
    {
        const auto &l1 = hierarchy_.l1().stats();
        const auto &dram_stats = dram_.stats();
        const double n = static_cast<double>(instructions);

        SampleProfile profile;
        profile.phaseName = spec.name;
        profile.baseCpi = spec.baseCpi;
        profile.activity = spec.activity;
        profile.mlp = spec.mlp;
        profile.l1Mpki = 1000.0 * static_cast<double>(l1.misses()) / n;
        // L2 demand misses are the reads L2 forwarded to DRAM.
        profile.l2Mpki = 1000.0 * static_cast<double>(dramReads_) / n;
        profile.l2PerInstr = static_cast<double>(l1.misses()) / n;
        profile.dramReadsPerInstr = static_cast<double>(dramReads_) / n;
        profile.dramWritesPerInstr = static_cast<double>(dramWrites_) / n;
        profile.dramPrefetchPerInstr =
            static_cast<double>(dramPrefetch_) / n;
        profile.gpuWorkPerInstr =
            (static_cast<double>(gpu_kicks) / n) * spec.gpuCyclesPerKick;
        profile.gpuActivity = spec.gpuActivity;

        const Count dram_total = dram_stats.accesses();
        if (dram_total > 0) {
            const double dn = static_cast<double>(dram_total);
            profile.rowHitFrac =
                static_cast<double>(dram_stats.rowHits) / dn;
            profile.rowClosedFrac =
                static_cast<double>(dram_stats.rowClosed) / dn;
            profile.rowConflictFrac =
                static_cast<double>(dram_stats.rowConflicts) / dn;
        }
        return profile;
    }

  private:
    /** @name A packed access from TraceGenerator::fill(). */
    ///@{
    static std::uint64_t
    address(std::uint32_t access)
    {
        return access & ~TraceGenerator::kStoreBit;
    }
    static bool
    isStore(std::uint32_t access)
    {
        return access & TraceGenerator::kStoreBit;
    }
    ///@}

    /** @name A load or store read from a TraceSource. */
    ///@{
    static std::uint64_t address(const InstrRecord &r) { return r.addr; }
    static bool isStore(const InstrRecord &r)
    {
        return r.kind == InstrKind::Store;
    }
    ///@}

    CacheHierarchy &hierarchy_;
    DramDevice &dram_;
    Count dramReads_ = 0;
    Count dramWrites_ = 0;
    Count dramPrefetch_ = 0;
};

/** Packed accesses a slot holds: one fill, one replay (8 KB). */
constexpr std::size_t kSlotAccesses = 2048;
/** A fill stops once fewer than this many entries are left. */
constexpr std::size_t kMinFill = 128;
/**
 * Blocks buffered at once.  Eight 8 KB slots, not four 16 KB ones:
 * the same 64 KB, but the helper runs far enough ahead that it
 * sleeps on a full buffer about a fifth as often.
 */
constexpr std::size_t kSlots = 8;
/** Pieces open for filling at once: the replayed one and two ahead. */
constexpr std::size_t kWindow = 3;

/** Process-wide stage ledger of the two-stage characterization. */
struct StageMetrics
{
    obs::Counter fillNs;
    obs::Counter replayNs;
    obs::Counter waitNs;
    obs::Counter helperBlocks;

    StageMetrics()
    {
        obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
        fillNs = reg.counter("sim.characterize.fill_ns");
        replayNs = reg.counter("sim.characterize.replay_ns");
        waitNs = reg.counter("sim.characterize.wait_ns");
        helperBlocks = reg.counter("sim.characterize.helper_blocks");
    }
};

StageMetrics &
stageMetrics()
{
    static StageMetrics metrics;
    return metrics;
}

/**
 * One characterization: fills and a replay over a list of pieces.
 *
 * Each piece is cut into blocks.  A fill runs the piece's generator
 * into a free slot until the slot is nearly full, keeping only the
 * loads and stores (4 bytes each) and the GPU kick count.  A slot of
 * 2048 entries takes about 5k instructions of a typical phase (40%
 * loads and stores), and a whole sample of a phase with few.  The
 * blocks of one piece fill in order, since each continues the
 * generator where the last left off, but any thread may fill the next
 * block of any open piece: the one being replayed or the next two.
 * The replay runs on the calling thread only and takes each piece's
 * blocks in order, so the hierarchy sees exactly the stream of a
 * one-thread loop.
 *
 * A second thread (a pool helper) only fills; the caller replays
 * whenever its next block is ready and fills otherwise.  At most
 * kSlots blocks (64 KB) are live.  A piece ahead of the replay may
 * take a slot only while two are free, so one is always left for the
 * piece being replayed: the replay never waits on a fill that cannot
 * get a slot.
 */
class Stages
{
  public:
    Stages(CacheHierarchy &hierarchy, DramDevice &dram,
           const std::vector<Piece> &pieces)
        : hierarchy_(hierarchy), dram_(dram), pieces_(pieces),
          buffer_(std::make_unique_for_overwrite<std::uint32_t[]>(
              kSlots * kSlotAccesses))
    {
        for (std::size_t i = 0; i < kSlots; ++i)
            free_[i] = i;
    }

    Stages(const Stages &) = delete;
    Stages &operator=(const Stages &) = delete;

    /**
     * Run every piece, with a helper from @c pool when one is free.
     * The first fill that throws ends the run on both threads and is
     * rethrown here.
     */
    void
    run(exec::ThreadPool *pool)
    {
        mark_ = obs::metricsNow();
        if (pool == nullptr) {
            replayAll();
            return;
        }
        // Whichever index the calling thread draws, it replays; a
        // pool worker only fills.  parallelFor accepts work at jobs 0
        // and during drain(), and runs both indices on the caller when
        // no worker takes the helper, so nothing ever waits on a
        // helper that has not started.
        const std::thread::id caller = std::this_thread::get_id();
        pool->parallelFor(0, 2, [this, caller](std::size_t) {
            if (std::this_thread::get_id() == caller)
                replayAll();
            else
                helpFill();
        });
    }

    /** Profiles of the recorded pieces, in order. */
    std::vector<SampleProfile> &profiles() { return profiles_; }

    /**
     * Caller wall time from the end of the piece before each run of
     * warm-up pieces to the end of the run's last piece.
     */
    std::uint64_t warmupNs() const { return warmupNs_; }

  private:
    /** A piece open for filling. */
    struct Open
    {
        std::optional<TraceGenerator> gen;
        Count filled = 0;   ///< instructions in committed blocks
        bool busy = false;  ///< a thread is filling its next block
        /** Filled slots awaiting replay, oldest first. */
        std::array<std::size_t, kSlots> ready{};
        std::size_t readyHead = 0;
        std::size_t readyCount = 0;
    };

    /** What a slot holds. */
    struct Block
    {
        std::size_t piece = 0;
        /** Instructions covered (when claimed: the most it may take). */
        Count instructions = 0;
        TraceGenerator::Fill fill;
    };

    std::uint32_t *slotData(std::size_t slot)
    {
        return buffer_.get() + slot * kSlotAccesses;
    }

    /**
     * Claim a slot for the next block of the lowest open piece that
     * can take one (lock held): not being filled, not fully filled,
     * and a free slot (two, for a piece ahead of the replay).
     */
    bool
    claim(std::size_t &slot)
    {
        const std::size_t end = std::min(next_ + kWindow, pieces_.size());
        for (std::size_t p = next_; p < end; ++p) {
            Open &open = open_[p % kWindow];
            const Count count = pieces_[p].count;
            if (open.busy || open.filled == count ||
                freeCount_ < (p == next_ ? 1u : 2u))
                continue;
            open.busy = true;
            slot = free_[--freeCount_];
            Block &block = blocks_[slot];
            block.piece = p;
            block.instructions = count - open.filled;
            return true;
        }
        return false;
    }

    /**
     * Fill a slot from @c gen with at most block.instructions (the
     * piece's rest) instructions, in steps no longer than the room
     * left, so no step can overflow; stop when fewer than kMinFill
     * entries are left.  Record what the block covers in @c block.
     */
    static void
    fillSlot(TraceGenerator &gen, Block &block, std::uint32_t *out)
    {
        const Count limit = block.instructions;
        Count instructions = 0;
        TraceGenerator::Fill total;
        while (instructions < limit &&
               kSlotAccesses - total.accesses >= kMinFill) {
            const Count step = std::min<Count>(
                limit - instructions, kSlotAccesses - total.accesses);
            const TraceGenerator::Fill f =
                gen.fill(step, out + total.accesses);
            total.accesses += f.accesses;
            total.gpuKicks += f.gpuKicks;
            instructions += step;
        }
        block.instructions = instructions;
        block.fill = total;
    }

    /**
     * Claim, fill and commit one block; false when nothing could be
     * claimed.  The fill runs unlocked: while the piece is busy, the
     * claiming thread owns its generator and the slot.
     */
    bool
    fillOne(std::unique_lock<std::mutex> &lock, std::uint64_t &fill_ns)
    {
        std::size_t slot = 0;
        if (!claim(slot))
            return false;
        Block &block = blocks_[slot];
        Open &open = open_[block.piece % kWindow];
        lock.unlock();
        try {
            const obs::Clock::time_point start = obs::metricsNow();
            if (!open.gen) {
                const Piece &piece = pieces_[block.piece];
                open.gen.emplace(piece.spec, piece.seed);
            }
            fillSlot(*open.gen, block, slotData(slot));
            fill_ns += obs::elapsedNs(start);
        } catch (...) {
            lock.lock();
            failed_ = true;
            changed_.notify_all();
            throw;
        }
        lock.lock();
        open.busy = false;
        open.filled += block.instructions;
        open.ready[(open.readyHead + open.readyCount++) % kSlots] = slot;
        changed_.notify_all();
        return true;
    }

    /** The helper: fill until every piece is replayed. */
    void
    helpFill()
    {
        std::uint64_t fill_ns = 0;
        std::uint64_t blocks = 0;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            while (next_ < pieces_.size() && !failed_) {
                if (fillOne(lock, fill_ns))
                    ++blocks;
                else
                    changed_.wait(lock);
            }
        }
        stageMetrics().fillNs.add(fill_ns);
        stageMetrics().helperBlocks.add(blocks);
    }

    /**
     * The caller: replay each piece's blocks in order; fill while the
     * next one is not ready; wait only while another thread fills it.
     */
    void
    replayAll()
    {
        std::uint64_t fill_ns = 0;
        std::uint64_t replay_ns = 0;
        std::uint64_t wait_ns = 0;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            while (next_ < pieces_.size() && !failed_) {
                Open &open = open_[next_ % kWindow];
                if (open.readyCount > 0) {
                    const std::size_t slot = open.ready[open.readyHead];
                    open.readyHead = (open.readyHead + 1) % kSlots;
                    --open.readyCount;
                    lock.unlock();
                    const obs::Clock::time_point start = obs::metricsNow();
                    const bool last = replay(blocks_[slot], slotData(slot));
                    replay_ns += obs::elapsedNs(start);
                    lock.lock();
                    free_[freeCount_++] = slot;
                    if (last) {
                        // The piece kWindow ahead reuses this record.
                        open.gen.reset();
                        open.filled = 0;
                        open.readyHead = 0;
                        ++next_;
                    }
                    changed_.notify_all();
                } else if (!fillOne(lock, fill_ns)) {
                    const obs::Clock::time_point start = obs::metricsNow();
                    changed_.wait(lock);
                    wait_ns += obs::elapsedNs(start);
                }
            }
        }
        stageMetrics().fillNs.add(fill_ns);
        stageMetrics().replayNs.add(replay_ns);
        stageMetrics().waitNs.add(wait_ns);
    }

    /**
     * Replay one block of the piece at the replay cursor (calling
     * thread only); true when it was the piece's last.
     */
    bool
    replay(const Block &block, const std::uint32_t *accesses)
    {
        const Piece &piece = pieces_[block.piece];
        if (!sample_) {
            if (piece.reset) {
                hierarchy_.reset();
                dram_.reset();
            }
            sample_.emplace(hierarchy_, dram_);
        }
        sample_->replay(accesses, block.fill.accesses);
        replayed_ += block.instructions;
        gpuKicks_ += block.fill.gpuKicks;
        if (replayed_ < piece.count)
            return false;
        if (piece.record)
            profiles_.push_back(
                sample_->profile(piece.count, gpuKicks_, piece.spec));
        sample_.reset();
        replayed_ = 0;
        gpuKicks_ = 0;
        if (!piece.record)
            warmupNs_ += obs::elapsedNs(mark_);
        mark_ = obs::metricsNow();
        return true;
    }

    CacheHierarchy &hierarchy_;
    DramDevice &dram_;
    const std::vector<Piece> &pieces_;
    /** kSlots slots of kSlotAccesses packed accesses, never zeroed. */
    std::unique_ptr<std::uint32_t[]> buffer_;
    /** Written by the slot's claimer, read by the replay after it. */
    std::array<Block, kSlots> blocks_{};

    /** @name Shared between the threads, under mutex_. */
    ///@{
    std::mutex mutex_;
    std::condition_variable changed_;
    std::array<Open, kWindow> open_;
    std::array<std::size_t, kSlots> free_{};
    std::size_t freeCount_ = kSlots;
    std::size_t next_ = 0;  ///< the piece being replayed
    bool failed_ = false;
    ///@}

    /** @name The replay's own state (calling thread only). */
    ///@{
    std::optional<SampleRun> sample_;
    Count replayed_ = 0;
    Count gpuKicks_ = 0;
    std::vector<SampleProfile> profiles_;
    obs::Clock::time_point mark_;  ///< end of the last piece replayed
    std::uint64_t warmupNs_ = 0;
    ///@}
};

/**
 * Append the warm-up chunks of @c warmup instructions, at most
 * @c chunk_max each: chunk w runs phase @c phase_for(w) on seed
 * @c seed_for(w) mixed with w.
 */
template <class PhaseFor, class SeedFor>
void
addWarmup(std::vector<Piece> &pieces, Count warmup, Count chunk_max,
          PhaseFor &&phase_for, SeedFor &&seed_for)
{
    Count remaining = warmup;
    for (std::size_t w = 0; remaining > 0; ++w) {
        const Count chunk = std::min(remaining, chunk_max);
        // Each warm-up chunk gets a fresh stream seed: replaying the
        // same few streams would re-touch the same addresses and
        // leave large working sets cold.
        pieces.push_back(
            {phase_for(w),
             seed_for(w) ^ (0x57a7ab1e0ddba11ull + w * 0x9e3779b97f4a7c15ull),
             chunk, false, false});
        remaining -= chunk;
    }
}

/**
 * Run @c pieces in order through @c hierarchy and @c dram, with a fill
 * helper from @c pool when one is free (nullptr: the calling thread
 * alone); add the warm-up time to @c warmup_ns.
 *
 * @return the profile of every recorded piece, in order
 * @throws FatalError when a piece has no instructions (every rate of
 *         a sample would be 0/0), or the first error of any fill (an
 *         invalid phase), after both threads have stopped
 */
std::vector<SampleProfile>
runPieces(CacheHierarchy &hierarchy, DramDevice &dram,
          exec::ThreadPool *pool, const std::vector<Piece> &pieces,
          std::uint64_t &warmup_ns)
{
    for (const Piece &piece : pieces) {
        if (piece.count == 0)
            fatal("sample simulator: a sample needs at least one "
                  "instruction");
    }
    Stages stages(hierarchy, dram, pieces);
    stages.run(pool);
    warmup_ns += stages.warmupNs();
    return std::move(stages.profiles());
}

} // namespace

std::uint64_t
SampleSimulatorConfig::profileFingerprint() const
{
    std::uint64_t h = fnv1aString(kFnvOffsetBasis, "sampler-config-v1");
    h = addCacheConfig(h, hierarchy.l1);
    h = addCacheConfig(h, hierarchy.l2);
    h = fnv1aWordBytes(h, hierarchy.nextLinePrefetch ? 1 : 0);
    h = fnv1aWordBytes(h, dram.banks);
    h = fnv1aWordBytes(h, dram.rowBytes);
    h = fnv1aWordBytes(h, dram.busBytes);
    h = fnv1aWordBytes(h, dram.lineBytes);
    h = fnv1aWordBytes(h, profileWarmupInstructions);
    return h;
}

SampleSimulator::SampleSimulator(const SampleSimulatorConfig &config)
    : config_(config), hierarchy_(config.hierarchy), dram_(config.dram),
      configKey_(config.profileFingerprint())
{
    if (config_.simInstructionsPerSample == 0)
        fatal("sample simulator: simInstructionsPerSample must be > 0");
}

std::vector<SampleProfile>
SampleSimulator::characterize(const WorkloadProfile &workload)
{
    lastStats_ = CharacterizeStats{};
    return cache_ == nullptr ? characterizeSequential(workload)
                             : characterizeCanonical(workload);
}

std::vector<SampleProfile>
SampleSimulator::characterizeSequential(const WorkloadProfile &workload)
{
    // Warm caches and row buffers by cycling through the first phases
    // without recording, so sample 0 is measured at steady state.
    const std::size_t warm_span =
        std::min<std::size_t>(8, workload.sampleCount());
    std::vector<Piece> pieces;
    addWarmup(
        pieces, config_.warmupInstructions, config_.simInstructionsPerSample,
        [&](std::size_t w) { return workload.phaseFor(w % warm_span); },
        [&](std::size_t w) { return workload.traceSeedFor(w % warm_span); });
    for (std::size_t s = 0; s < workload.sampleCount(); ++s)
        pieces.push_back({workload.phaseFor(s), workload.traceSeedFor(s),
                          config_.simInstructionsPerSample, false, true});
    if (!pieces.empty())
        pieces.front().reset = true;
    return runPieces(hierarchy_, dram_, pool_, pieces, lastStats_.warmupNs);
}

std::vector<SampleProfile>
SampleSimulator::characterizeCanonical(const WorkloadProfile &workload)
{
    const std::size_t samples = workload.sampleCount();
    const Count instructions = config_.simInstructionsPerSample;
    std::vector<SampleProfile> profiles(samples);
    std::vector<ProfileKey> keys(samples);
    // Per sample: the earliest sample measured for its key, or
    // `samples` for a cache hit.
    std::vector<std::size_t> measuredAs(samples, samples);
    std::unordered_map<ProfileKey, std::size_t,
                       exec::CombinedHash<ProfileKey>>
        first;
    std::vector<Piece> pieces;
    for (std::size_t s = 0; s < samples; ++s) {
        const PhaseSpec spec = workload.phaseFor(s);
        const std::uint64_t seed = workload.traceSeedFor(s);
        keys[s] = ProfileKey{spec.fingerprint(), seed, instructions,
                             configKey_};
        if (const auto it = first.find(keys[s]); it != first.end()) {
            measuredAs[s] = it->second;
            continue;
        }
        if (auto hit = cache_->find(keys[s])) {
            ++lastStats_.cacheHits;
            profiles[s] = *hit;
            continue;
        }
        // A miss: reset, run the canonical warm-up over this phase
        // alone (same chunking and seed derivation as the sequential
        // warm-up), then measure.  The profile depends on nothing but
        // the key.
        first.emplace(keys[s], s);
        measuredAs[s] = s;
        const std::size_t begin = pieces.size();
        addWarmup(
            pieces, config_.profileWarmupInstructions, instructions,
            [&](std::size_t) { return spec; },
            [&](std::size_t) { return seed; });
        pieces.push_back({spec, seed, instructions, false, true});
        pieces[begin].reset = true;
    }

    std::vector<SampleProfile> measured =
        runPieces(hierarchy_, dram_, pool_, pieces, lastStats_.warmupNs);
    // Publish in sample order: a repeat of a key measured earlier in
    // this workload looks it up as it would have one sample at a time.
    std::size_t next = 0;
    for (std::size_t s = 0; s < samples; ++s) {
        if (measuredAs[s] == s) {
            ++lastStats_.cacheMisses;
            profiles[s] = std::move(measured[next++]);
            cache_->insert(keys[s],
                           std::make_shared<const SampleProfile>(profiles[s]));
        } else if (measuredAs[s] < samples) {
            if (auto hit = cache_->find(keys[s])) {
                ++lastStats_.cacheHits;
                profiles[s] = *hit;
            } else {
                // Evicted since: canonical profiles are pure functions
                // of the key, so the earlier measurement is the answer.
                ++lastStats_.cacheMisses;
                profiles[s] = profiles[measuredAs[s]];
                cache_->insert(keys[s], std::make_shared<const SampleProfile>(
                                            profiles[s]));
            }
        }
    }
    return profiles;
}

SampleProfile
SampleSimulator::characterizeOne(const PhaseSpec &spec, std::uint64_t seed,
                                 Count instructions)
{
    return std::move(runPieces(hierarchy_, dram_, pool_,
                               {{spec, seed, instructions, true, true}},
                               lastStats_.warmupNs)
                         .front());
}

SampleProfile
SampleSimulator::characterizeTrace(TraceSource &source,
                                   Count instructions,
                                   const PhaseSpec &meta)
{
    if (instructions == 0)
        fatal("sample simulator: a sample needs at least one instruction");
    hierarchy_.reset();
    dram_.reset();
    // The same two stages, on this thread: a source is read in order.
    SampleRun sample(hierarchy_, dram_);
    std::vector<InstrRecord> accesses;
    accesses.reserve(std::min<Count>(instructions, kSlotAccesses));
    Count gpu_kicks = 0;
    for (Count done = 0; done < instructions;) {
        const Count n = std::min<Count>(kSlotAccesses, instructions - done);
        accesses.clear();
        for (Count i = 0; i < n; ++i) {
            const InstrRecord instr = source.next();
            gpu_kicks += instr.kind == InstrKind::GpuKick;
            if (isMemory(instr.kind))
                accesses.push_back(instr);
        }
        sample.replay(accesses.data(), accesses.size());
        done += n;
    }
    return sample.profile(instructions, gpu_kicks, meta);
}

} // namespace mcdvfs
