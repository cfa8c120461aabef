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
 * Every path — the virtual next(), generate(), run() and fill() —
 * draws from draw(), so all of them yield the same stream.  run() is
 * the fast one: it hands each instruction to a consumer inlined into
 * the same loop, with the generator state in locals (docs/PERF.md
 * "Characterization loop").  fill() is run() into a compact buffer of
 * memory accesses, the first stage of characterization.
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
    InstrRecord next() override { return draw(rng_, coldCursor_); }

    /** Append @c n instructions to @c out. */
    void generate(Count n, std::vector<InstrRecord> &out);

    /**
     * Feed the next @c n instructions to @c sink, one call each.  The
     * RNG state and the cold cursor are copied into locals for the
     * loop and written back once at the end, so they stay in
     * registers even across calls the sink makes out of line.
     */
    template <class Sink>
    void
    run(Count n, Sink &&sink)
    {
        Rng rng = rng_;
        std::uint64_t cursor = coldCursor_;
        for (Count i = n; i > 0; --i)
            sink(draw(rng, cursor));
        rng_ = rng;
        coldCursor_ = cursor;
    }

    /** Store flag of a packed access; addresses are 8-byte aligned. */
    static constexpr std::uint32_t kStoreBit = 1;

    /** What fill() wrote. */
    struct Fill
    {
        std::size_t accesses = 0;  ///< loads and stores written
        Count gpuKicks = 0;        ///< GPU kicks among the instructions
    };

    /**
     * Generate the next @c n instructions, keeping only the loads and
     * stores: out[i] = addr | (store ? kStoreBit : 0), in stream
     * order.  Every address fits in 32 bits (PhaseSpec::validate keeps
     * each tier below 2^32).  @c out must have room for @c n entries.
     * The write sits behind the draw's own memory-or-not branch: an
     * unconditional write per instruction measured ~5% slower.
     */
    Fill
    fill(Count n, std::uint32_t *out)
    {
        Fill f;
        run(n, [&f, out](const InstrRecord &rec) {
            if (isMemory(rec.kind))
                out[f.accesses++] =
                    static_cast<std::uint32_t>(rec.addr) |
                    (rec.kind == InstrKind::Store ? kStoreBit : 0u);
            else
                f.gpuKicks += rec.kind == InstrKind::GpuKick;
        });
        return f;
    }

    /** The phase being generated. */
    const PhaseSpec &spec() const { return spec_; }

  private:
    /**
     * The next dynamic instruction, advancing @c rng and the cold
     * cursor @c cursor: the stream every path shares.  Forced inline,
     * with nextAddress(), so that the state run() keeps in locals
     * never has its address passed to a call.
     */
    [[gnu::always_inline]] InstrRecord
    draw(Rng &rng, std::uint64_t &cursor) const
    {
        // Cumulative edges in the order load, store, branch, fp, mul,
        // GPU kick; the remainder is integer ALU.  A zero GPU fraction
        // collapses its edge onto the mul edge, so CPU-only phases draw
        // exactly the two-domain stream.  The kind is the first edge
        // above k.  Edges never decrease, so within the memory and the
        // other kinds it is the count of edges at or below k: the one
        // branch on the random k is "memory or not".  (Table lookups,
        // not "Load + bool": the compiler turns that sum back into a
        // branch.)  k is uniform()'s 53-bit draw, compared with integer
        // thresholds, so the branch resolves without a conversion.
        const std::uint64_t k = rng.next() >> 11;
        if (k < kindEdge_[1]) {
            static constexpr InstrKind kMemory[2] = {InstrKind::Load,
                                                     InstrKind::Store};
            return {kMemory[k >= kindEdge_[0]], nextAddress(rng, cursor)};
        }
        static constexpr InstrKind kOthers[5] = {
            InstrKind::Branch, InstrKind::FpOp, InstrKind::IntMul,
            InstrKind::GpuKick, InstrKind::IntAlu};
        const int other = (k >= kindEdge_[2]) + (k >= kindEdge_[3]) +
                          (k >= kindEdge_[4]) + (k >= kindEdge_[5]);
        return {kOthers[other], 0};
    }

    [[gnu::always_inline]] std::uint64_t
    nextAddress(Rng &rng, std::uint64_t &cursor) const
    {
        const std::uint64_t tier = rng.next() >> 11;
        if (tier < hotEdge_)
            return kHotBase + rng.uniformInt(hotWords_) * kAccessBytes;
        if (tier < warmEdge_)
            return kWarmBase + rng.uniformInt(warmWords_) * kAccessBytes;
        // Cold tier: sequential stream or uniform random.
        if (rng.chance(spec_.coldSeqFrac)) {
            const std::uint64_t addr = kColdBase + cursor;
            cursor += kAccessBytes;
            if (cursor >= spec_.coldBytes)
                cursor = 0;
            return addr;
        }
        return kColdBase + rng.uniformInt(coldWords_) * kAccessBytes;
    }

    PhaseSpec spec_;
    Rng rng_;
    /** @name Probabilities as draw thresholds (see threshold()). */
    ///@{
    std::uint64_t kindEdge_[6];  ///< cumulative instruction-mix edges
    std::uint64_t hotEdge_;      ///< hotFrac
    std::uint64_t warmEdge_;     ///< hotFrac + warmFrac
    ///@}
    UniformBound hotWords_;
    UniformBound warmWords_;
    UniformBound coldWords_;
    std::uint64_t coldCursor_ = 0;  ///< sequential cold-stream offset
};

} // namespace mcdvfs

#endif // MCDVFS_TRACE_TRACE_GENERATOR_HH
