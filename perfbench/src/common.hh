/**
 * @file
 * Shared pieces of the repository benchmark: host clocks and resource
 * usage, latency summaries, the span ledger of the traced run, the
 * committed digest table, and the one-line JSON result.
 *
 * Everything here is host time.  Simulated statistics are never
 * measured; they are checked bit for bit through digests.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Nanoseconds between two time points. */
std::int64_t nsBetween(Clock::time_point from, Clock::time_point to);

/** Seconds between two time points. */
double secondsBetween(Clock::time_point from, Clock::time_point to);

/** Time point captured before main() runs (static initialization). */
Clock::time_point processStart();

/** CPUs this process may run on (what `nproc` prints). */
std::size_t cpuCount();

/** User + system CPU seconds and peak resident set of this process. */
struct Usage
{
    double cpuSeconds = 0.0;
    double peakRssMb = 0.0;
};
Usage selfUsage();

/** Median of @c values, interpolated for even counts (0 when empty). */
double median(std::vector<double> values);

/**
 * A latency distribution reduced the way the benchmark reports it:
 * the median and the highest percentile with at least ten samples
 * beyond it (with 20 samples or fewer, where that percentile would not
 * lie above the median, the maximum).
 */
struct Tail
{
    double p50 = 0.0;
    double tail = 0.0;
    /** Percentile the tail value sits at (e.g. 99.75). */
    double percentile = 0.0;
    std::size_t samples = 0;
};
Tail tailOf(std::vector<double> values);

/** Hash of two words (SplitMix64 finalizer over a + b): seeds, digests. */
std::uint64_t mixSeed(std::uint64_t a, std::uint64_t b);

/** FNV-1a over a byte string. */
std::uint64_t digestBytes(const std::string &bytes);

/** 16-digit lower-case hex of a digest. */
std::string hex(std::uint64_t digest);

/**
 * Pass/fail accounting of one run.  Every operation the run attempts
 * counts once; errored and wrong-output operations each count
 * as failed.  Reasons go to stderr as they happen.
 */
class Checks
{
  public:
    void attempt(std::uint64_t n = 1) { attempted_ += n; }
    void fail(const std::string &reason);
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    double failedShare() const;

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/**
 * Committed digests of the default seed (perfbench/digests.txt): one
 * "<workload> <item> <hex>" line per checked output.  Lookups of items
 * the table does not hold are skipped, so non-default seeds and longer
 * runs check what they can.  With a record path set, every observed
 * digest is collected and written out instead of compared.
 */
class DigestTable
{
  public:
    /** Load @c path (an empty path disables table checks). */
    void load(const std::string &path);
    /** Compare (or record) one digest; a mismatch fails @c checks. */
    void check(const std::string &workload, const std::string &item,
               std::uint64_t digest, Checks &checks);
    /** Record instead of compare; write() saves what was seen. */
    void recordTo(const std::string &path) { recordPath_ = path; }
    void write() const;
    std::size_t compared() const { return compared_; }

  private:
    std::map<std::string, std::string> expected_;
    std::map<std::string, std::string> recorded_;
    std::string recordPath_;
    std::size_t compared_ = 0;
};

/**
 * Spans of the traced run, kept in memory and written at the end.
 * Each span has a name, a start and end (ns since the ledger's
 * origin), the index of its parent span (-1 for a root) and the id of
 * the request it belongs to.  The ledger times its own bookkeeping so
 * the traced run can report what recording cost.
 */
class Ledger
{
  public:
    struct Span
    {
        std::string name;
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        int parent = -1;
        std::uint64_t request = 0;
    };

    Ledger();

    /** Record a finished span; returns its index (for children). */
    int add(const std::string &name, Clock::time_point start,
            Clock::time_point end, int parent, std::uint64_t request);

    /**
     * Self time per span name: duration minus the union of its
     * children's intervals, summed over all spans of that name (ns).
     */
    std::map<std::string, double> selfNs() const;

    /** Summed duration of every root span (ns). */
    double rootNs() const;

    /** Time spent inside add() (ns). */
    double recorderNs() const { return recorderNs_; }

    /** Write one JSON object per span (JSON lines). */
    void write(const std::string &path) const;

  private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
    double recorderNs_ = 0.0;
};

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    /** Shrunk inputs for the benchmark's own tests. */
    bool tiny = false;
    std::string digests;
    std::string recordDigests;
    std::string spansOut;
    /** Scratch directory inside the checkout (suite working dirs). */
    std::string workDir = ".bench_build/work";
};

/** The seed whose outputs digests.txt pins. */
constexpr std::uint64_t kDefaultSeed = 1;

/** One named metric with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * Print "# name value unit" lines for people, then the final one-line
 * JSON result: correct, attempted, failed and the metrics.
 */
void printResult(const Checks &checks, const std::vector<Metric> &metrics);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
