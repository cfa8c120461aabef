/**
 * @file
 * ThreadPool tests: futures, exception propagation, parallelFor
 * coverage, nesting, a many-small-tasks stress run, and the default
 * sizing rule.
 */

#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <vector>

#include "exec/thread_pool.hh"

namespace mcdvfs
{
namespace
{

TEST(ThreadPool, SubmitReturnsResultsThroughFutures)
{
    exec::ThreadPool pool(4);
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 64; ++i)
        futures.push_back(pool.submit([i] { return i * i; }));
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
}

TEST(ThreadPool, ZeroWorkersRunsInline)
{
    exec::ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 0u);
    auto future = pool.submit([] { return 42; });
    EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture)
{
    exec::ThreadPool pool(2);
    auto future = pool.submit(
        []() -> int { throw std::runtime_error("task failed"); });
    EXPECT_THROW(future.get(), std::runtime_error);

    // The worker that ran the throwing task must still be alive.
    EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce)
{
    exec::ThreadPool pool(4);
    constexpr std::size_t kCount = 10'000;
    std::vector<std::atomic<int>> touched(kCount);
    pool.parallelFor(0, kCount,
                     [&](std::size_t i) { touched[i].fetch_add(1); });
    for (std::size_t i = 0; i < kCount; ++i)
        ASSERT_EQ(touched[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ParallelForRespectsGrainAndOddRanges)
{
    exec::ThreadPool pool(3);
    std::vector<std::atomic<int>> touched(101);
    pool.parallelFor(7, 101,
                     [&](std::size_t i) { touched[i].fetch_add(1); },
                     /*grain=*/13);
    for (std::size_t i = 0; i < touched.size(); ++i)
        ASSERT_EQ(touched[i].load(), i >= 7 ? 1 : 0) << "index " << i;
}

TEST(ThreadPool, ParallelForEmptyRangeIsANoop)
{
    exec::ThreadPool pool(2);
    bool ran = false;
    pool.parallelFor(5, 5, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ThreadPool, ParallelForPropagatesBodyException)
{
    exec::ThreadPool pool(4);
    std::atomic<int> completed{0};
    EXPECT_THROW(
        pool.parallelFor(0, 100,
                         [&](std::size_t i) {
                             if (i == 37)
                                 throw std::runtime_error("bad index");
                             completed.fetch_add(1);
                         }),
        std::runtime_error);
    // The rest of the range still ran to completion.
    EXPECT_EQ(completed.load(), 99);
}

TEST(ThreadPool, NestedParallelForFromWorkerDoesNotDeadlock)
{
    // A task running on the pool's only worker issues a parallelFor on
    // the same pool: the calling thread claims the chunks itself, so
    // this must complete even though no other worker exists.
    exec::ThreadPool pool(1);
    auto future = pool.submit([&pool] {
        std::atomic<int> sum{0};
        pool.parallelFor(0, 100, [&](std::size_t i) {
            sum.fetch_add(static_cast<int>(i));
        });
        return sum.load();
    });
    EXPECT_EQ(future.get(), 4950);
}

TEST(ThreadPool, StressManySmallTasks)
{
    exec::ThreadPool pool(8);
    std::atomic<std::uint64_t> sum{0};
    std::vector<std::future<void>> futures;
    futures.reserve(2'000);
    for (std::uint64_t i = 0; i < 2'000; ++i)
        futures.push_back(
            pool.submit([&sum, i] { sum.fetch_add(i + 1); }));
    for (auto &future : futures)
        future.get();
    EXPECT_EQ(sum.load(), 2'000ull * 2'001ull / 2ull);
}

TEST(ThreadPool, DefaultThreadsCountsAffinityMask)
{
    // Reads the mask only; the test process keeps its affinity.
    cpu_set_t set;
    CPU_ZERO(&set);
    ASSERT_EQ(sched_getaffinity(0, sizeof(set), &set), 0);
    const std::size_t allowed = static_cast<std::size_t>(CPU_COUNT(&set));
    EXPECT_GE(exec::ThreadPool::defaultThreads(), 1u);
    EXPECT_EQ(exec::ThreadPool::defaultThreads(),
              std::max<std::size_t>(1, allowed));
    EXPECT_EQ(exec::ThreadPool::defaultWorkers(),
              std::max<std::size_t>(1, allowed - 1));
}

} // namespace
} // namespace mcdvfs
