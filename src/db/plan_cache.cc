#include "db/plan_cache.h"

#include <algorithm>

namespace mppdb {

PlanCache::PlanCache(size_t capacity) : capacity_(std::max<size_t>(capacity, 1)) {}

PlanCache::CompileClaim::~CompileClaim() {
  {
    std::lock_guard<std::mutex> lock(cache_->mu_);
    cache_->compiling_.erase(key_);
  }
  cache_->claim_released_.notify_all();
}

std::shared_ptr<const CachedPlan> PlanCache::Lookup(
    const std::string& key, std::unique_ptr<CompileClaim>* claim) {
  std::unique_lock<std::mutex> lock(mu_);
  if (claim != nullptr) {
    claim_released_.wait(lock, [&] { return compiling_.count(key) == 0; });
  }
  auto it = by_key_.find(key);
  if (it == by_key_.end()) {
    ++stats_.misses;
    if (claim != nullptr) {
      compiling_.insert(key);
      claim->reset(new CompileClaim(this, key));
    }
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++stats_.hits;
  return it->second->plan;
}

void PlanCache::Insert(const std::string& key,
                       std::shared_ptr<const CachedPlan> entry) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_key_.find(key);
  if (it != by_key_.end()) {
    // Racing concurrent misses on the same statement: last plan wins.
    it->second->plan = std::move(entry);
    lru_.splice(lru_.begin(), lru_, it->second);
    ++stats_.insertions;
    return;
  }
  lru_.push_front({key, std::move(entry)});
  by_key_[key] = lru_.begin();
  ++stats_.insertions;
  while (lru_.size() > capacity_) {
    by_key_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

size_t PlanCache::InvalidateTable(const std::string& table_name) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t dropped = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    const auto& names = it->plan->table_names;
    if (std::find(names.begin(), names.end(), table_name) != names.end()) {
      by_key_.erase(it->key);
      it = lru_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  stats_.invalidations += dropped;
  return dropped;
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.invalidations += lru_.size();
  lru_.clear();
  by_key_.clear();
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace mppdb
