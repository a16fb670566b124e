/**
 * @file
 * SimEngine implementation.
 */

#include "engine/sim_engine.hh"

#include <algorithm>
#include <cstdlib>
#include <exception>

#include "common/logging.hh"
#include "common/parse_num.hh"

namespace arcc
{

namespace
{

/** Sanity cap on the executor count: far above any machine this runs
 *  on, low enough that a mistyped "ARCC_THREADS=40000" cannot OOM the
 *  process spawning stacks. */
constexpr int kMaxThreads = 1024;

/**
 * Thread count from ARCC_THREADS, or 0 when unset / empty.
 *
 * A set-but-invalid value is fatal, not a warning: the variable sizes
 * every engine in the process, and the old atoi() path silently
 * degraded "ARCC_THREADS=8cores" or "-4" to the hardware default --
 * exactly the silent-zero coercion a long-running service cannot
 * afford.  tests/test_engine.cc pins the fatal paths.
 */
int
envThreads()
{
    const char *env = std::getenv("ARCC_THREADS");
    if (!env || *env == '\0')
        return 0;
    const std::uint64_t n = parseU64("ARCC_THREADS", env);
    if (n < 1 || n > kMaxThreads)
        fatal("ARCC_THREADS=%s: need a thread count in [1, %d]", env,
              kMaxThreads);
    return static_cast<int>(n);
}

} // anonymous namespace

struct SimEngine::ShardGroup
{
    const std::function<void(const ShardRange &)> *body;
    /** Shards not yet finished. */
    std::uint64_t remaining;
    /** First exception thrown by a body; once set, the call's queued
     *  shards finish without running. */
    std::exception_ptr error;
};

SimEngine::SimEngine() : SimEngine(Options{}) {}

SimEngine::SimEngine(const Options &options)
{
    int threads = options.threads;
    if (threads == 0)
        threads = envThreads();
    if (threads == 0)
        threads = std::max(1u, std::thread::hardware_concurrency());
    ARCC_ASSERT(threads >= 1);
    // The calling thread is an executor too.
    workers_.reserve(threads - 1);
    for (int i = 1; i < threads; ++i)
        workers_.emplace_back([this] { workerMain(); });
}

SimEngine::~SimEngine()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        // Every forEachShard waits for its own shards, so nothing can
        // still be queued once no call is in flight.
        ARCC_ASSERT(tasks_.empty());
        stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

SimEngine &
SimEngine::global()
{
    static SimEngine engine;
    return engine;
}

void
SimEngine::runShard(std::unique_lock<std::mutex> &lock,
                    const Task &task) const
{
    ShardGroup &group = *task.group;
    std::exception_ptr error;
    if (!group.error) {
        lock.unlock();
        try {
            (*group.body)(task.range);
        } catch (...) {
            error = std::current_exception();
        }
        lock.lock();
    }
    if (error && !group.error)
        group.error = std::move(error);
    // The waiter may destroy the group as soon as the lock drops.
    if (--group.remaining == 0)
        wake_.notify_all();
}

void
SimEngine::workerMain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        wake_.wait(lock, [&] { return stopping_ || !tasks_.empty(); });
        if (tasks_.empty())
            return;
        // Newest first: a nested call's shards run before the outer
        // call's remaining ones.
        const Task task = tasks_.back();
        tasks_.pop_back();
        runShard(lock, task);
    }
}

void
SimEngine::forEachShard(std::uint64_t items, std::uint64_t shardSize,
                        const std::function<void(const ShardRange &)>
                            &body) const
{
    ARCC_ASSERT(shardSize > 0);
    const std::uint64_t shards = shardCount(items, shardSize);
    if (shards == 0)
        return;

    ShardGroup group{&body, shards, nullptr};
    std::unique_lock<std::mutex> lock(mutex_);
    // Queue every shard but the first; the calling thread takes shard
    // 0 immediately (with 1 thread this degenerates to a plain loop in
    // ascending shard order).
    for (std::uint64_t s = 1; s < shards; ++s)
        tasks_.push_back({&group,
                          {s * shardSize,
                           std::min(items, (s + 1) * shardSize), s}});
    if (shards > 1)
        wake_.notify_all();
    runShard(lock, {&group, {0, std::min(items, shardSize), 0}});

    // Work while waiting: run the oldest queued shard (ours or another
    // call's) instead of blocking the executor.
    for (;;) {
        wake_.wait(lock, [&] {
            return group.remaining == 0 || !tasks_.empty();
        });
        if (group.remaining == 0)
            break;
        const Task task = tasks_.front();
        tasks_.pop_front();
        runShard(lock, task);
    }
    lock.unlock();

    if (group.error)
        std::rethrow_exception(group.error);
}

} // namespace arcc
