#include "core/artifacts.hpp"

namespace accu {

InstanceArtifacts::Entry& InstanceArtifacts::find_or_add(const Key& key) {
  const std::lock_guard<std::mutex> lock(mu_);
  return entries_.try_emplace(key).first->second;
}

}  // namespace accu
