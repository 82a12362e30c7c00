#include "core/prompt_cache.hpp"

namespace sww::core {

PromptCache::PromptCache(std::size_t capacity_bytes)
    : capacity_(capacity_bytes) {
  obs::Registry& registry = obs::Registry::Default();
  instruments_.hits = &registry.GetCounter("client.prompt_cache.hits");
  instruments_.misses = &registry.GetCounter("client.prompt_cache.misses");
  instruments_.insertions =
      &registry.GetCounter("client.prompt_cache.insertions");
  instruments_.evictions =
      &registry.GetCounter("client.prompt_cache.evictions");
  instruments_.hit_ratio =
      &registry.GetGauge("client.prompt_cache.hit_ratio");
}

std::optional<std::string> PromptCache::Get(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(path);
  if (it == index_.end()) {
    ++stats_.misses;
    instruments_.misses->Add();
    instruments_.hit_ratio->Set(stats_.HitRate());
    return std::nullopt;
  }
  ++stats_.hits;
  instruments_.hits->Add();
  instruments_.hit_ratio->Set(stats_.HitRate());
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->body;
}

void PromptCache::Put(const std::string& path, std::string body) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (body.size() > capacity_) return;
  InvalidateLocked(path);
  stored_bytes_ += body.size();
  lru_.push_front(Entry{path, std::move(body)});
  index_[path] = lru_.begin();
  ++stats_.insertions;
  instruments_.insertions->Add();
  EvictToFitLocked();
}

void PromptCache::Invalidate(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  InvalidateLocked(path);
}

void PromptCache::InvalidateLocked(const std::string& path) {
  auto it = index_.find(path);
  if (it == index_.end()) return;
  stored_bytes_ -= it->second->body.size();
  lru_.erase(it->second);
  index_.erase(it);
}

void PromptCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  index_.clear();
  stored_bytes_ = 0;
}

void PromptCache::EvictToFitLocked() {
  while (stored_bytes_ > capacity_ && !lru_.empty()) {
    stored_bytes_ -= lru_.back().body.size();
    index_.erase(lru_.back().path);
    lru_.pop_back();
    ++stats_.evictions;
    instruments_.evictions->Add();
  }
}

std::size_t PromptCache::stored_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stored_bytes_;
}

std::size_t PromptCache::entry_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return index_.size();
}

PromptCache::Stats PromptCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace sww::core
