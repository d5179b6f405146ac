#include "serve/design_cache.hpp"

#include <utility>

namespace mrsc::serve {

namespace {

compile::CompileOptions compile_options(int opt) {
  compile::CompileOptions options;
  options.opt = opt == 1 ? compile::OptLevel::kO1 : compile::OptLevel::kO0;
  return options;
}

}  // namespace

CompiledDesign::CompiledDesign(const std::string& design, int opt)
    : built(std::move(scenario::ScenarioRegistry::global()
                          .resolve(design, compile_options(opt))
                          .design)),
      system(*built.network) {}

std::shared_ptr<const CompiledDesign> DesignCache::get(
    const std::string& design, int opt) {
  const std::string key = "opt=" + std::to_string(opt) + "|" + design;
  {
    std::lock_guard lock(mutex_);
    if (const auto* hit = lru_.get(key)) return *hit;
  }
  auto built = std::make_shared<const CompiledDesign>(design, opt);
  const std::size_t bytes = built->system.footprint_bytes();
  std::lock_guard lock(mutex_);
  // A concurrent miss may have inserted first: put keeps and returns its
  // copy, and this one dies with the job.
  const auto* stored = lru_.put(key, built, bytes);
  return stored != nullptr ? *stored : built;
}

CacheStats DesignCache::stats() const {
  std::lock_guard lock(mutex_);
  return lru_.stats();
}

}  // namespace mrsc::serve
