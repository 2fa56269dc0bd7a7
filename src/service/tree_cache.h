#ifndef GORDIAN_SERVICE_TREE_CACHE_H_
#define GORDIAN_SERVICE_TREE_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/attribute_set.h"
#include "core/frozen_tree.h"
#include "core/pipeline.h"

namespace gordian {

// Identity of a prefix-tree artifact: the tree is a pure function of the
// table content (fingerprint), the column subset profiled, the sample spec,
// and the attribute order — change any of these and a different tree
// results. Jobs that agree on all of them (e.g. the same table re-profiled
// under different time budgets, priorities, or pruning toggles) can share
// one tree.
struct TreeCacheKey {
  uint64_t fingerprint = 0;
  AttributeSet columns;  // column subset the tree covers (FirstN(d) for all)
  int64_t sample_rows = 0;
  uint64_t sample_seed = 0;
  GordianOptions::AttributeOrder attribute_order =
      GordianOptions::AttributeOrder::kCardinalityDesc;
  uint64_t order_seed = 0;

  friend bool operator==(const TreeCacheKey& a, const TreeCacheKey& b) {
    return a.fingerprint == b.fingerprint && a.columns == b.columns &&
           a.sample_rows == b.sample_rows && a.sample_seed == b.sample_seed &&
           a.attribute_order == b.attribute_order &&
           a.order_seed == b.order_seed;
  }
};

struct TreeCacheKeyHash {
  size_t operator()(const TreeCacheKey& k) const;
};

// Key for a whole-table profiling run under `options`. `num_columns` fills
// the column-subset field with the full set.
TreeCacheKey MakeTreeCacheKey(uint64_t fingerprint, int num_columns,
                              const GordianOptions& options);

// Size-bounded, thread-safe cache of frozen prefix trees, so profiling jobs
// against an unchanged table skip the tree build entirely, and
// appends absorb their delta into the cached tree. Each entry holds one
// FrozenTree; entries are ref-counted (shared_ptr plus an exclusive lease
// bit) and evicted LRU under a byte budget measured by each tree's
// ApproxBytes().
//
// Leases are exclusive: traversal temporarily mutates node reference counts
// (merge sharing), so a tree can serve only one run at a time. A second
// concurrent job for the same key gets a miss ("busy miss") and builds
// privately rather than blocking — trading bytes for latency, the same call
// the request-coalescing layer already makes for identical jobs. A leased
// entry is never evicted; over-budget space is reclaimed from unleased
// entries in LRU order, deferred until release when everything is pinned.
class TreeArtifactCache {
 public:
  static constexpr int64_t kDefaultByteBudget = 256LL << 20;  // 256 MiB

  explicit TreeArtifactCache(int64_t byte_budget = kDefaultByteBudget)
      : byte_budget_(byte_budget) {}

  TreeArtifactCache(const TreeArtifactCache&) = delete;
  TreeArtifactCache& operator=(const TreeArtifactCache&) = delete;

  // Exclusive handle to a cached tree. While alive, the entry cannot be
  // evicted or leased to another run. Movable; releases on destruction.
  class Lease {
   public:
    Lease() = default;
    ~Lease() { Release(); }
    Lease(Lease&& other) noexcept { *this = std::move(other); }
    Lease& operator=(Lease&& other) noexcept {
      if (this != &other) {
        Release();
        cache_ = other.cache_;
        entry_ = std::move(other.entry_);
        other.cache_ = nullptr;
        other.entry_ = nullptr;
      }
      return *this;
    }

    bool valid() const { return entry_ != nullptr; }
    // The cached frozen tree (nullptr for an invalid lease). Hits inject it
    // via ProfileSession::set_shared_frozen_tree, so the run skips the
    // build; appends absorb into it.
    FrozenTree* frozen() const;

    // Drops the lease early (before destruction).
    void Release();

   private:
    friend class TreeArtifactCache;
    struct Entry;
    TreeArtifactCache* cache_ = nullptr;
    std::shared_ptr<Entry> entry_;
  };

  // Returns an exclusive lease over the cached tree for `key` (a hit), or
  // an invalid lease when the key is absent (miss) or its entry is leased
  // by another run (busy miss — the caller builds privately).
  Lease Acquire(const TreeCacheKey& key);

  // Admits a frozen tree under `key` and returns an exclusive lease over
  // it. The entry's size is frozen->ApproxBytes(); a tree larger than the
  // whole budget is not admitted, but the returned lease still owns it, so
  // the inserting job proceeds either way. Replaces any existing (unleased)
  // entry for the key; if the existing entry is leased, the new tree is
  // kept lease-only and not admitted.
  Lease Insert(const TreeCacheKey& key, std::unique_ptr<FrozenTree> frozen);

  // Lease upgrade for appends: re-registers `lease`'s entry under `new_key`
  // (the fingerprint after a delta was absorbed into the leased tree) and
  // re-measures its bytes. The old key's resident slot is unlinked; the
  // entry is re-admitted under the new key when it fits the budget,
  // following Insert's existing-entry discipline (an unleased twin is
  // replaced; a leased twin keeps this entry lease-only).
  //
  // The lease stays valid and exclusive throughout, which is the
  // no-half-absorbed-tree guarantee: while the absorb ran, concurrent
  // Acquires of the old key busy-missed (entry leased); once rekeyed, the
  // old key is simply absent. No reader can ever lease the tree in between.
  void Rekey(Lease& lease, const TreeCacheKey& new_key);

  bool Contains(const TreeCacheKey& key) const;
  void Clear();  // drops all unleased entries

  int64_t byte_budget() const { return byte_budget_; }

  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;       // absent key
    int64_t busy_misses = 0;  // present but leased elsewhere
    int64_t insertions = 0;   // admitted entries
    int64_t rejected = 0;     // built trees not admitted (too big / key busy)
    int64_t rekeys = 0;       // lease upgrades (absorbed appends)
    int64_t evictions = 0;
    int64_t entries = 0;      // resident now
    int64_t bytes = 0;        // resident now: sum of their ApproxBytes()
    int64_t frozen_bytes = 0;  // bytes admitted by Insert/Rekey (lifetime)

    double hit_rate() const {
      int64_t lookups = hits + misses + busy_misses;
      return lookups == 0 ? 0
                          : static_cast<double>(hits) /
                                static_cast<double>(lookups);
    }
  };
  Stats GetStats() const;

 private:
  using EntryPtr = std::shared_ptr<Lease::Entry>;

  void ReleaseEntry(const EntryPtr& entry);
  // Links `entry` in under its key when it fits the budget, replacing an
  // unleased twin; a leased twin keeps it lease-only. Caller holds mu_.
  void Admit(const EntryPtr& entry);
  // Evicts unleased entries, least recently used first, until resident
  // bytes fit the budget. Caller holds mu_.
  void EvictToBudget();

  const int64_t byte_budget_;

  mutable std::mutex mu_;
  std::unordered_map<TreeCacheKey, EntryPtr, TreeCacheKeyHash> entries_;
  // Most recently used at the front; holds the map keys of resident
  // entries. Entries keep an iterator into this list.
  std::list<TreeCacheKey> lru_;
  int64_t resident_bytes_ = 0;
  Stats stats_;
};

// The acquire → run → insert composition every tree-cache-aware caller
// (profiling service, index advisor, benches) shares: leases a cached tree
// when available, runs a ProfileSession over `table` (injecting the frozen
// tree on a hit), and on a miss admits the frozen tree the run built. With
// `cache` null this is exactly FindKeys. `tree_cache_hit`
// (optional) reports whether the run skipped tree building;
// `stage_metrics` (optional) receives the session's per-stage wall/bytes.
KeyDiscoveryResult ProfileWithTreeCache(
    const Table& table, const GordianOptions& options, uint64_t fingerprint,
    TreeArtifactCache* cache, bool* tree_cache_hit = nullptr,
    std::vector<StageMetric>* stage_metrics = nullptr);

}  // namespace gordian

#endif  // GORDIAN_SERVICE_TREE_CACHE_H_
