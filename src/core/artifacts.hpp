// The per-instance artifact cache — one seam for every value derived from
// an AccuInstance alone (DESIGN.md §10).
//
// Several policies and the resampler need read-only tables that depend on
// nothing but the instance: the ScorePack (core/score.hpp), the MaxDegree
// and PageRank orders (strategies/baselines.hpp), ABM's heapified blank
// seed heap per weight setting (strategies/abm.hpp) and the resample draw
// plan (core/realization.hpp).  Each owner fetches its table here instead
// of keeping a private memo, so a sweep builds every table once per
// instance, not once per worker or per strategy object.
//
// Every copy of an instance shares one cache, exactly as copies share the
// uid, and the cache dies with the last copy.  Entries are built lazily on
// first request; concurrent first requests run the build once and all get
// the same object.  Entries never change after they are built, so readers
// share them without further locking and keep plain (non-owning)
// references; a reference is valid while any copy of the instance lives.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <typeindex>
#include <typeinfo>
#include <utility>

#include "util/error.hpp"

namespace accu {

class InstanceArtifacts {
 public:
  /// Identifies one entry: the artifact's kind (by convention the type
  /// that owns or builds it) and two parameters for artifacts that depend
  /// on more than the instance (ABM's potential weights, as raw bits).
  struct Key {
    std::type_index kind;
    std::uint64_t a = 0;
    std::uint64_t b = 0;

    friend bool operator<(const Key& x, const Key& y) noexcept {
      return std::tie(x.kind, x.a, x.b) < std::tie(y.kind, y.a, y.b);
    }
  };

  /// The entry for `key`, built by `build()` (which returns a T) on first
  /// request.  A build that throws leaves the entry empty, so the next
  /// request builds again.  A build may request other entries (never its
  /// own key).  Hits do not allocate.
  template <class T, class Build>
  const T& get(const Key& key, Build&& build) {
    Entry& entry = find_or_add(key);
    const std::lock_guard<std::mutex> lock(entry.mu);
    if (entry.value == nullptr) {
      entry.value = std::make_shared<const T>(std::forward<Build>(build)());
      entry.type = &typeid(T);
    }
    ACCU_ASSERT_MSG(*entry.type == typeid(T),
                    "InstanceArtifacts: one key requested as two types");
    return *static_cast<const T*>(entry.value.get());
  }

 private:
  struct Entry {
    std::mutex mu;  // held while the entry is built
    std::shared_ptr<const void> value;
    const std::type_info* type = nullptr;
  };

  /// The (possibly still empty) entry for `key`; map nodes never move, so
  /// the reference stays valid for the cache's lifetime.
  Entry& find_or_add(const Key& key);

  std::mutex mu_;  // guards the map's structure, not the entries
  std::map<Key, Entry> entries_;
};

}  // namespace accu
