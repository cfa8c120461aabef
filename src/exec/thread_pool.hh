/**
 * @file
 * Fixed-size task-queue thread pool.
 *
 * The pool backs the characterization service and the parallel grid
 * build: submit() runs an arbitrary callable on a worker and returns a
 * std::future carrying its result (or its exception); parallelFor()
 * splits an index range into chunks spread over per-participant
 * work-stealing strips — every participant (workers *and the calling
 * thread*) drains its own contiguous strip from the front, and a
 * participant that runs dry steals the back half of a loaded strip, so
 * skewed chunk costs rebalance instead of serializing behind the
 * slowest participant.
 *
 * The caller participating in parallelFor() is what makes nesting safe:
 * a task already running on a worker may itself call parallelFor()
 * without risking deadlock, because the nested loop makes progress on
 * the calling thread even when every other worker is busy.  A busy
 * worker's strip is simply stolen empty by the others.
 */

#ifndef MCDVFS_EXEC_THREAD_POOL_HH
#define MCDVFS_EXEC_THREAD_POOL_HH

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace mcdvfs
{
namespace exec
{

/** Fixed-size worker pool with a FIFO task queue. */
class ThreadPool
{
  public:
    /**
     * @param threads worker count; 0 means "no workers", in which case
     *        submit() still works (tasks run inline on the submitting
     *        thread) and parallelFor() degrades to a serial loop.
     */
    explicit ThreadPool(std::size_t threads);

    /** Joins all workers; queued tasks run to completion first. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    std::size_t size() const { return workers_.size(); }

    /**
     * CPUs this process may run on: the size of its affinity mask
     * (what `nproc` prints), at least 1.
     */
    static std::size_t defaultThreads();

    /**
     * Workers that, with the calling thread taking part in every
     * parallelFor(), occupy each CPU defaultThreads() counts:
     * defaultThreads() - 1, at least 1.
     */
    static std::size_t defaultWorkers();

    /**
     * Run @c fn on a worker; the returned future carries its result or
     * any exception it threw.
     *
     * @throws FatalError after drain() was called (the pool no longer
     *         accepts new work).
     */
    template <typename F>
    auto
    submit(F &&fn) -> std::future<std::invoke_result_t<std::decay_t<F>>>
    {
        using Result = std::invoke_result_t<std::decay_t<F>>;
        auto task = std::make_shared<std::packaged_task<Result()>>(
            std::forward<F>(fn));
        std::future<Result> future = task->get_future();
        checkAccepting();
        if (workers_.empty()) {
            (*task)();
            noteInlineTask();
            return future;
        }
        enqueue([task] { (*task)(); });
        return future;
    }

    /**
     * Graceful shutdown of the submission side: stop accepting new
     * submit() calls (they throw FatalError from now on), then block
     * until every queued and in-flight task has finished.
     *
     * Tasks already running may still spawn internal work — a nested
     * parallelFor() keeps functioning during and after a drain, since
     * its chunks make progress on the calling thread — so "drained"
     * means the queue is empty AND no worker is mid-task.  Idempotent;
     * safe to call from any thread except a pool worker (a worker
     * draining its own pool would deadlock waiting for itself).
     */
    void drain();

    /** True once drain() was called (no new submit() accepted). */
    bool draining() const;

    /**
     * Apply @c body to every index in [begin, end), spread over the
     * workers in chunks of @c grain consecutive indices.  Blocks until
     * the whole range is done; the calling thread claims chunks too.
     * The first exception thrown by any invocation is rethrown here
     * (the rest of the range still runs to completion).
     */
    void parallelFor(std::size_t begin, std::size_t end,
                     const std::function<void(std::size_t)> &body,
                     std::size_t grain = 1);

  private:
    /** A queued task plus its enqueue time (queue-wait metric). */
    struct QueuedTask
    {
        std::function<void()> fn;
        std::chrono::steady_clock::time_point enqueuedAt;
    };

    void enqueue(std::function<void()> task);
    void runTask(QueuedTask &task);
    void workerLoop();

    /** fatal() when the pool is draining (submit-side gate). */
    void checkAccepting() const;

    /** Account a task that ran inline on the submitting thread. */
    static void noteInlineTask();

    std::vector<std::thread> workers_;
    std::deque<QueuedTask> queue_;
    mutable std::mutex mutex_;
    std::condition_variable available_;
    /** Signalled when the queue empties and the last task finishes. */
    std::condition_variable idle_;
    /** Tasks currently executing on workers. */
    std::size_t activeTasks_ = 0;
    bool stop_ = false;
    bool draining_ = false;
};

} // namespace exec
} // namespace mcdvfs

#endif // MCDVFS_EXEC_THREAD_POOL_HH
