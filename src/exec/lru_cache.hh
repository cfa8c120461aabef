/**
 * @file
 * The one LRU cache every memoization layer uses.
 *
 * The paper's method characterizes a workload once and reuses the
 * result across every budget and threshold; the caches that serve
 * that reuse — grids (svc::GridCache), finished analyses and resumable
 * checkpoints (svc::AnalysisCache), sample profiles (ProfileCache) —
 * are all instances of this template.
 *
 *  - One mutex guards the whole cache.  It is held for one hash lookup
 *    and one list splice, while the work a hit saves is a grid build
 *    or a sample characterization.
 *  - The index holds the full key, so two keys whose hashes collide
 *    stay distinct entries; the hash only picks a bucket.
 *  - Capacity is global and exact: the cache evicts its least recently
 *    used entry only when it already holds @c capacity entries.
 *  - Values are shared_ptr<const Value>: eviction never invalidates a
 *    value a caller still holds.
 *  - Hits, misses, evictions and inserts count into registry counters
 *    and the resident entries into a gauge, all named
 *    <prefix><counter>; instances sharing a prefix share the metrics.
 */

#ifndef MCDVFS_EXEC_LRU_CACHE_HH
#define MCDVFS_EXEC_LRU_CACHE_HH

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "obs/metrics.hh"

namespace mcdvfs
{
namespace exec
{

/** Hashes a key by its 64-bit combined() digest. */
template <class Key>
struct CombinedHash
{
    std::size_t
    operator()(const Key &key) const
    {
        return static_cast<std::size_t>(key.combined());
    }
};

/** Mutex-guarded LRU cache of shared immutable values. */
template <class Key, class Value, class Hash = CombinedHash<Key>>
class LruCache
{
  public:
    /** Counters over the cache's life, plus the resident entries. */
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        std::size_t entries = 0;
    };

    /**
     * @param capacity maximum resident entries (>= 1)
     * @param metric_prefix registry name stem, separator included
     *        (e.g. "svc.cache." -> "svc.cache.hits")
     * @throws FatalError for a zero capacity
     */
    LruCache(std::size_t capacity, const std::string &metric_prefix)
        : capacity_(capacity)
    {
        if (capacity == 0)
            fatal("cache capacity must be at least 1 (", metric_prefix,
                  "*)");
        obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
        metricHits_ = reg.counter(metric_prefix + "hits");
        metricMisses_ = reg.counter(metric_prefix + "misses");
        metricEvictions_ = reg.counter(metric_prefix + "evictions");
        metricInserts_ = reg.counter(metric_prefix + "inserts");
        metricEntries_ = reg.gauge(metric_prefix + "entries");
    }

    LruCache(const LruCache &) = delete;
    LruCache &operator=(const LruCache &) = delete;

    /** Returns this instance's resident entries to the gauge. */
    ~LruCache()
    {
        metricEntries_.add(-static_cast<std::int64_t>(lru_.size()));
    }

    /**
     * Look up a value, refreshing its LRU position.  Counts a hit or
     * a miss; returns nullptr on miss.
     */
    std::shared_ptr<const Value>
    find(const Key &key)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return counted(touch(key));
    }

    /**
     * The value of the first of @c keys that is resident, refreshed
     * in the LRU order.  The whole walk counts one hit or one miss,
     * however many keys it probes; an empty walk misses.
     */
    std::shared_ptr<const Value>
    findFirst(const std::vector<Key> &keys)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const Key &key : keys) {
            if (const Entry *entry = touch(key))
                return counted(entry);
        }
        return counted(nullptr);
    }

    /**
     * Insert (or refresh) a value, evicting the least recently used
     * entry when the cache is full.
     */
    void
    insert(const Key &key, std::shared_ptr<const Value> value)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        metricInserts_.add(1);
        const auto it = index_.find(key);
        if (it != index_.end()) {
            it->second->second = std::move(value);
            lru_.splice(lru_.begin(), lru_, it->second);
            return;
        }
        if (lru_.size() == capacity_) {
            index_.erase(lru_.back().first);
            lru_.pop_back();
            ++evictions_;
            metricEvictions_.add(1);
            metricEntries_.add(-1);
        }
        lru_.emplace_front(key, std::move(value));
        index_.emplace(key, lru_.begin());
        metricEntries_.add(1);
    }

    /** Drop every entry (counters are kept). */
    void
    clear()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        metricEntries_.add(-static_cast<std::int64_t>(lru_.size()));
        lru_.clear();
        index_.clear();
    }

    Stats
    stats() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return Stats{hits_, misses_, evictions_, lru_.size()};
    }

    std::size_t capacity() const { return capacity_; }

  private:
    using Entry = std::pair<Key, std::shared_ptr<const Value>>;

    /** The entry of @c key moved to the LRU front; null if absent. */
    const Entry *
    touch(const Key &key)
    {
        const auto it = index_.find(key);
        if (it == index_.end())
            return nullptr;
        lru_.splice(lru_.begin(), lru_, it->second);
        return &*it->second;
    }

    /** Count one lookup as a hit or a miss; returns its value. */
    std::shared_ptr<const Value>
    counted(const Entry *entry)
    {
        if (entry == nullptr) {
            ++misses_;
            metricMisses_.add(1);
            return nullptr;
        }
        ++hits_;
        metricHits_.add(1);
        return entry->second;
    }

    const std::size_t capacity_;
    mutable std::mutex mutex_;
    /** Front = most recently used. */
    std::list<Entry> lru_;
    std::unordered_map<Key, typename std::list<Entry>::iterator, Hash>
        index_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;

    obs::Counter metricHits_;
    obs::Counter metricMisses_;
    obs::Counter metricEvictions_;
    obs::Counter metricInserts_;
    obs::Gauge metricEntries_;
};

} // namespace exec
} // namespace mcdvfs

#endif // MCDVFS_EXEC_LRU_CACHE_HH
