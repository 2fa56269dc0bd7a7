#include "service/tree_cache.h"

#include <cassert>
#include <utility>

#include "common/hashing.h"

namespace gordian {

size_t TreeCacheKeyHash::operator()(const TreeCacheKey& k) const {
  uint64_t h = Mix64(k.fingerprint);
  h = Mix64(h ^ k.columns.Hash());
  h = Mix64(h ^ static_cast<uint64_t>(k.sample_rows));
  h = Mix64(h ^ k.sample_seed);
  h = Mix64(h ^ static_cast<uint64_t>(k.attribute_order));
  h = Mix64(h ^ k.order_seed);
  return static_cast<size_t>(h);
}

TreeCacheKey MakeTreeCacheKey(uint64_t fingerprint, int num_columns,
                              const GordianOptions& options) {
  TreeCacheKey key;
  key.fingerprint = fingerprint;
  key.columns = AttributeSet::FirstN(num_columns);
  // A sample spec that selects the whole table builds the same tree as no
  // sampling at all; normalizing it widens sharing across budget variants.
  key.sample_rows = options.sample_rows;
  key.sample_seed = options.sample_rows > 0 ? options.sample_seed : 0;
  key.attribute_order = options.attribute_order;
  key.order_seed =
      options.attribute_order == GordianOptions::AttributeOrder::kRandom
          ? options.order_seed
          : 0;
  return key;
}

struct TreeArtifactCache::Lease::Entry {
  TreeCacheKey key;
  std::unique_ptr<FrozenTree> frozen;
  int64_t bytes = 0;
  bool leased = false;
  bool resident = false;  // linked into the map/LRU list
  std::list<TreeCacheKey>::iterator lru_it;
};

FrozenTree* TreeArtifactCache::Lease::frozen() const {
  return entry_ == nullptr ? nullptr : entry_->frozen.get();
}

void TreeArtifactCache::Lease::Release() {
  if (cache_ != nullptr && entry_ != nullptr) {
    cache_->ReleaseEntry(entry_);
  }
  cache_ = nullptr;
  entry_ = nullptr;
}

TreeArtifactCache::Lease TreeArtifactCache::Acquire(const TreeCacheKey& key) {
  Lease lease;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return lease;
  }
  EntryPtr& entry = it->second;
  if (entry->leased) {
    // Exclusive by design: traversal mutates node ref-counts, so a tree in
    // use cannot serve a second run. The caller builds privately.
    ++stats_.busy_misses;
    return lease;
  }
  ++stats_.hits;
  entry->leased = true;
  lru_.splice(lru_.begin(), lru_, entry->lru_it);  // most recently used
  lease.cache_ = this;
  lease.entry_ = entry;
  return lease;
}

TreeArtifactCache::Lease TreeArtifactCache::Insert(
    const TreeCacheKey& key, std::unique_ptr<FrozenTree> frozen) {
  assert(frozen != nullptr);
  auto entry = std::make_shared<Lease::Entry>();
  entry->key = key;
  entry->bytes = frozen->ApproxBytes();
  entry->frozen = std::move(frozen);
  entry->leased = true;

  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.frozen_bytes += entry->bytes;
    Admit(entry);
  }

  Lease lease;
  lease.cache_ = this;
  lease.entry_ = std::move(entry);
  return lease;
}

void TreeArtifactCache::Rekey(Lease& lease, const TreeCacheKey& new_key) {
  if (!lease.valid() || lease.cache_ != this) return;
  EntryPtr entry = lease.entry_;
  std::lock_guard<std::mutex> lock(mu_);
  // Unlink the old key's slot. The entry itself lives on through the lease.
  if (entry->resident) {
    resident_bytes_ -= entry->bytes;
    lru_.erase(entry->lru_it);
    entries_.erase(entry->key);
    entry->resident = false;
  }
  entry->key = new_key;
  entry->bytes = entry->frozen->ApproxBytes();
  stats_.frozen_bytes += entry->bytes;
  ++stats_.rekeys;
  Admit(entry);
}

void TreeArtifactCache::Admit(const EntryPtr& entry) {
  auto it = entries_.find(entry->key);
  bool admit = entry->bytes <= byte_budget_;
  if (it != entries_.end()) {
    if (it->second->leased) {
      // Another run holds the resident twin; keep this tree lease-only.
      admit = false;
    } else if (admit) {
      // Replace the stale resident entry with the fresh one.
      resident_bytes_ -= it->second->bytes;
      lru_.erase(it->second->lru_it);
      it->second->resident = false;
      entries_.erase(it);
      ++stats_.evictions;
    }
  }
  if (!admit) {
    ++stats_.rejected;
    return;
  }
  lru_.push_front(entry->key);
  entry->lru_it = lru_.begin();
  entry->resident = true;
  entries_.emplace(entry->key, entry);
  resident_bytes_ += entry->bytes;
  ++stats_.insertions;
  EvictToBudget();
}

void TreeArtifactCache::ReleaseEntry(const EntryPtr& entry) {
  std::lock_guard<std::mutex> lock(mu_);
  entry->leased = false;
  // Space reclamation deferred while everything was pinned happens now.
  if (entry->resident) EvictToBudget();
}

void TreeArtifactCache::EvictToBudget() {
  auto it = lru_.end();
  while (resident_bytes_ > byte_budget_ && it != lru_.begin()) {
    --it;
    auto found = entries_.find(*it);
    EntryPtr& victim = found->second;
    if (victim->leased) continue;  // pinned; try the next-oldest
    resident_bytes_ -= victim->bytes;
    victim->resident = false;
    entries_.erase(found);
    it = lru_.erase(it);
    ++stats_.evictions;
  }
}

bool TreeArtifactCache::Contains(const TreeCacheKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.count(key) != 0;
}

void TreeArtifactCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    auto found = entries_.find(*it);
    EntryPtr& victim = found->second;
    if (victim->leased) {
      ++it;
      continue;
    }
    resident_bytes_ -= victim->bytes;
    victim->resident = false;
    entries_.erase(found);
    it = lru_.erase(it);
    ++stats_.evictions;
  }
}

TreeArtifactCache::Stats TreeArtifactCache::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.entries = static_cast<int64_t>(entries_.size());
  s.bytes = resident_bytes_;
  return s;
}

KeyDiscoveryResult ProfileWithTreeCache(
    const Table& table, const GordianOptions& options, uint64_t fingerprint,
    TreeArtifactCache* cache, bool* tree_cache_hit,
    std::vector<StageMetric>* stage_metrics) {
  if (tree_cache_hit != nullptr) *tree_cache_hit = false;

  ProfileSession session(options);
  KeyDiscoveryResult result;

  TreeArtifactCache::Lease lease;
  if (cache != nullptr) {
    lease = cache->Acquire(MakeTreeCacheKey(
        fingerprint, table.num_columns(), options));
  }
  if (lease.valid()) {
    if (tree_cache_hit != nullptr) *tree_cache_hit = true;
    session.set_shared_frozen_tree(lease.frozen());
    (void)session.Run(table, &result);
  } else {
    (void)session.Run(table, &result);
    // Any built tree is cacheable: it is a pure function of the key, and
    // traversal (even an aborted one) fully unwinds its temporary node
    // references. That includes the trees of duplicate-entity and
    // cancelled runs — a rerun hits and re-derives no_keys. Runs that never
    // built a tree (null-projection hand-off, cancelled before the build
    // stage) have none to admit.
    std::unique_ptr<FrozenTree> frozen = session.TakeFrozenTree();
    if (cache != nullptr && frozen != nullptr) {
      lease = cache->Insert(
          MakeTreeCacheKey(fingerprint, table.num_columns(), options),
          std::move(frozen));
    }
  }

  if (stage_metrics != nullptr) *stage_metrics = session.stage_metrics();
  return result;
}

}  // namespace gordian
