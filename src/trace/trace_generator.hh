/**
 * @file
 * Deterministic synthetic instruction-stream generation.
 *
 * Given a PhaseSpec and a seed, TraceGenerator emits a stream of
 * InstrRecords whose instruction mix and memory reference pattern match
 * the spec.  The same (spec, seed) pair always produces the same
 * stream, so cache contents and miss classifications are reproducible
 * and — crucially for the characterize-once design — independent of
 * the frequency settings later applied by the timing model.
 *
 * Memory references fall into three footprint tiers at disjoint base
 * addresses: a hot set sized to fit in L1, a warm set sized to fit in
 * L2, and a cold set exceeding L2.  Cold references are a mix of a
 * sequential stream (row-buffer friendly) and uniform-random accesses.
 */

#ifndef MCDVFS_TRACE_TRACE_GENERATOR_HH
#define MCDVFS_TRACE_TRACE_GENERATOR_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/units.hh"
#include "trace/instruction.hh"
#include "trace/phase.hh"
#include "trace/trace_source.hh"

namespace mcdvfs
{

/**
 * Streaming generator of synthetic instructions for one phase.
 *
 * Every path — the virtual next(), generate() and run() — draws from
 * draw(), so all three yield the same stream.  run() is the fast one:
 * it hands each instruction to a consumer inlined into the same loop,
 * so the consumer's test of the kind follows the generator's own kind
 * branch and the two predict together (docs/PERF.md "Characterization
 * loop").
 */
class TraceGenerator : public TraceSource
{
  public:
    /** @name Tier base addresses (disjoint by construction). */
    ///@{
    static constexpr std::uint64_t kHotBase = 0x1000'0000ull;
    static constexpr std::uint64_t kWarmBase = 0x4000'0000ull;
    static constexpr std::uint64_t kColdBase = 0x8000'0000ull;
    ///@}

    /** Access granularity of the synthetic stream (one word). */
    static constexpr std::uint64_t kAccessBytes = 8;

    /**
     * @param spec validated phase specification
     * @param seed deterministic stream seed
     * @throws FatalError when @c spec is inconsistent
     */
    TraceGenerator(const PhaseSpec &spec, std::uint64_t seed);

    /** Produce the next dynamic instruction. */
    InstrRecord next() override { return draw(); }

    /** Append @c n instructions to @c out. */
    void generate(Count n, std::vector<InstrRecord> &out);

    /** Feed the next @c n instructions to @c sink, one call each. */
    template <class Sink>
    void
    run(Count n, Sink &&sink)
    {
        for (Count i = 0; i < n; ++i)
            sink(draw());
    }

    /** The next dynamic instruction (the stream every path shares). */
    InstrRecord
    draw()
    {
        // Cumulative edges in the order load, store, branch, fp, mul,
        // GPU kick; the remainder is integer ALU.  A zero GPU fraction
        // collapses its edge onto the mul edge, so CPU-only phases draw
        // exactly the two-domain stream.
        const double k = rng_.uniform();
        if (k < kindEdge_[0])
            return {InstrKind::Load, nextAddress()};
        if (k < kindEdge_[1])
            return {InstrKind::Store, nextAddress()};
        if (k < kindEdge_[2])
            return {InstrKind::Branch, 0};
        if (k < kindEdge_[3])
            return {InstrKind::FpOp, 0};
        if (k < kindEdge_[4])
            return {InstrKind::IntMul, 0};
        if (k < kindEdge_[5])
            return {InstrKind::GpuKick, 0};
        return {InstrKind::IntAlu, 0};
    }

    /** The phase being generated. */
    const PhaseSpec &spec() const { return spec_; }

  private:
    std::uint64_t
    nextAddress()
    {
        const double tier = rng_.uniform();
        if (tier < spec_.hotFrac)
            return kHotBase + rng_.uniformInt(hotWords_) * kAccessBytes;
        if (tier < warmEdge_)
            return kWarmBase + rng_.uniformInt(warmWords_) * kAccessBytes;
        // Cold tier: sequential stream or uniform random.
        if (rng_.chance(spec_.coldSeqFrac)) {
            const std::uint64_t addr = kColdBase + coldCursor_;
            coldCursor_ += kAccessBytes;
            if (coldCursor_ >= spec_.coldBytes)
                coldCursor_ = 0;
            return addr;
        }
        return kColdBase + rng_.uniformInt(coldWords_) * kAccessBytes;
    }

    PhaseSpec spec_;
    Rng rng_;
    double kindEdge_[6];  ///< cumulative instruction-mix edges
    double warmEdge_;     ///< hotFrac + warmFrac
    UniformBound hotWords_;
    UniformBound warmWords_;
    UniformBound coldWords_;
    std::uint64_t coldCursor_ = 0;  ///< sequential cold-stream offset
};

} // namespace mcdvfs

#endif // MCDVFS_TRACE_TRACE_GENERATOR_HH
