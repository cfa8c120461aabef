/**
 * @file
 * Unit tests of the benchmark's own measurement code: the tail rule
 * must pick the highest percentile with ten samples beyond it, and the
 * span ledger's self time must exclude the union of a span's children.
 * Exits non-zero if any expectation failed.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "common.hh"

using namespace perfbench;

namespace
{

int failures = 0;

void
expect(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what);
        ++failures;
    }
}

void
tailRule()
{
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(i);
    const Tail t = tailOf(v);
    expect(t.samples == 100, "tail sample count");
    expect(t.tail == 90.0, "ten samples lie beyond the tail value");
    expect(t.percentile == 90.0, "tail percentile of 100 samples is p90");
    expect(t.p50 == 50.5, "median of an even count is the middle mean");
    const Tail small = tailOf({3.0, 1.0, 2.0});
    expect(small.tail == 3.0 && small.percentile == 100.0,
           "under 21 samples the tail is the maximum");
    expect(small.p50 == 2.0, "median of an odd count is the middle value");
}

void
ledgerSelfTime()
{
    Ledger ledger;
    const Clock::time_point t0 = Clock::now();
    auto at = [t0](int ms) { return t0 + std::chrono::milliseconds(ms); };
    const int root = ledger.add("request", at(0), at(10), -1, 1);
    ledger.add("a", at(1), at(4), root, 1);
    ledger.add("b", at(3), at(6), root, 1);  // overlaps a
    const std::map<std::string, double> self = ledger.selfNs();
    expect(self.at("request") == 5e6, "root self time excludes the union");
    expect(self.at("a") == 3e6 && self.at("b") == 3e6, "leaf self time");
    expect(ledger.rootNs() == 10e6, "root duration");
}

} // namespace

int
main()
{
    tailRule();
    ledgerSelfTime();
    if (failures == 0)
        std::printf("perfbench_tests: all passed\n");
    return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
