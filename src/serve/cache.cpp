#include "serve/cache.hpp"

namespace mrsc::serve {

std::optional<std::string> ResultCache::get(const std::string& key) {
  std::lock_guard lock(mutex_);
  if (const std::string* value = lru_.get(key)) return *value;
  return std::nullopt;
}

void ResultCache::put(const std::string& key, const std::string& value) {
  std::lock_guard lock(mutex_);
  (void)lru_.put(key, value, value.size());
}

CacheStats ResultCache::stats() const {
  std::lock_guard lock(mutex_);
  return lru_.stats();
}

}  // namespace mrsc::serve
