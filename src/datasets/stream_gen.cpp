#include "datasets/stream_gen.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "core/instance_format.hpp"
#include "graph/graph.hpp"
#include "util/atomic_file.hpp"
#include "util/io_env.hpp"
#include "util/rng.hpp"

namespace accu::datasets {

namespace {

namespace fmt = instance_format;

/// Uniform [0,1) from a raw 64-bit draw — the exact expression
/// util::Rng::uniform uses, so counter-based and sequential draws share one
/// mapping.
double unit(std::uint64_t draw) noexcept {
  return static_cast<double>(draw >> 11) * 0x1.0p-53;
}

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t tag) noexcept {
  std::uint64_t s = seed ^ (tag * 0x9e3779b97f4a7c15ULL);
  return util::splitmix64_next(s);
}

// Independent counter streams derived from the config seed.
constexpr std::uint64_t kTagRows = 0x526f7773ULL;    // per-row topology
constexpr std::uint64_t kTagProbs = 0x50726f62ULL;   // edge priors
constexpr std::uint64_t kTagAccept = 0x41636370ULL;  // acceptance draws

/// One spool record: a normalized undirected edge, lo < hi.  The spool is
/// written in (lo, hi)-ascending order, which makes it simultaneously the
/// endpoints section payload and a scan source that delivers every CSR
/// row's entries in ascending-neighbor order (neighbors v < u arrive in
/// their own lo-blocks, all before block u; neighbors v > u arrive inside
/// block u sorted by hi).
struct Edge {
  std::uint32_t lo, hi;
};
static_assert(sizeof(Edge) == 8, "spool records must pack");

/// Generic {u32,u32} slot entry for the adjacency scatter.
struct Slot {
  std::uint32_t node, edge;
};
static_assert(sizeof(Slot) == 8, "adjacency entries must pack");

/// Repeated sequential reader over the spool (plain buffered reads — the
/// spool is a file this process just wrote; util::IoEnv fault injection
/// covers the write sides).
class SpoolScanner {
 public:
  explicit SpoolScanner(std::string path) : path_(std::move(path)) {}

  /// Invokes fn(lo, hi, edge_index) for every record, in file order.
  template <typename Fn>
  void scan(Fn&& fn) {
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    if (f == nullptr) throw IoError("cannot open edge spool: " + path_);
    std::vector<Edge> buf(1u << 16);
    std::uint32_t e = 0;
    for (;;) {
      const std::size_t got =
          std::fread(buf.data(), sizeof(Edge), buf.size(), f);
      for (std::size_t i = 0; i < got; ++i, ++e) fn(buf[i].lo, buf[i].hi, e);
      if (got < buf.size()) break;
    }
    const bool failed = std::ferror(f) != 0;
    std::fclose(f);
    if (failed) throw IoError("error reading edge spool: " + path_);
    ++scans_;
  }

  [[nodiscard]] std::uint64_t scans() const noexcept { return scans_; }

 private:
  std::string path_;
  std::uint64_t scans_ = 0;
};

/// Greedy row-aligned buckets: consecutive row ranges [r0, r1) whose
/// adjacency span fits `cap` bytes (always at least one row, so a hub row
/// larger than the cap gets a private oversized bucket).
template <typename Fn>
void for_each_row_bucket(const std::vector<std::uint64_t>& offsets,
                         std::uint64_t n, std::uint64_t cap, Fn&& fn) {
  std::uint64_t r0 = 0;
  while (r0 < n) {
    std::uint64_t r1 = r0 + 1;
    while (r1 < n &&
           (offsets[r1 + 1] - offsets[r0]) * sizeof(Slot) <= cap) {
      ++r1;
    }
    fn(r0, r1);
    r0 = r1;
  }
}

/// Best-effort spool removal on every exit path (the spool only exists
/// after its atomic commit; unlinking a missing file is a harmless ENOENT).
struct SpoolGuard {
  std::string path;
  ~SpoolGuard() { util::io_env().unlink(path); }
};

}  // namespace

void StreamGenConfig::validate() const {
  if (num_nodes == 0 || num_nodes >= graph::kInvalidNode) {
    throw InvalidArgument("stream generator: num_nodes out of range");
  }
  if (!std::isfinite(avg_degree) || avg_degree <= 0.0 ||
      avg_degree > 20000.0) {
    throw InvalidArgument("stream generator: avg_degree out of range");
  }
  if (!std::isfinite(alpha) || alpha <= 2.0 || alpha > 8.0) {
    throw InvalidArgument("stream generator: alpha must be in (2, 8]");
  }
  if (cautious_degree_min < 1 || cautious_degree_min > cautious_degree_max) {
    throw InvalidArgument(
        "stream generator: need 1 <= cautious_degree_min <= "
        "cautious_degree_max");
  }
  if (!std::isfinite(threshold_fraction) || threshold_fraction <= 0.0 ||
      threshold_fraction > 1.0) {
    throw InvalidArgument(
        "stream generator: threshold_fraction must be in (0, 1]");
  }
  if (!std::isfinite(fof_benefit) || fof_benefit < 0.0 ||
      !std::isfinite(reckless_friend_benefit) ||
      reckless_friend_benefit < fof_benefit ||
      !std::isfinite(cautious_friend_benefit) ||
      cautious_friend_benefit < fof_benefit) {
    throw InvalidArgument(
        "stream generator: benefits must satisfy B_f >= B_fof >= 0");
  }
}

StreamGenStats generate_instance_stream(const StreamGenConfig& config,
                                        const std::string& path) {
  config.validate();
  const std::uint64_t n = config.num_nodes;
  const double beta = 1.0 / (config.alpha - 1.0);
  const std::uint64_t cap = std::max<std::uint64_t>(config.batch_bytes,
                                                    64ull << 10);

  const std::string spool_path = path + ".spool";
  SpoolGuard guard{spool_path};
  std::vector<std::uint32_t> deg(n, 0);
  std::uint64_t m = 0;

  // --- pass A: row-by-row edge generation into the sorted spool ----------
  //
  // Row u proposes k_u partners with ids above u, where k_u follows a
  // rank-weighted power law (low ids are the heavy head) and partners come
  // from the inverse CDF of the same rank weight restricted to (u, n).
  // Each row consumes its own counter-seeded Rng, so rows are independent
  // of each other and of any batching.
  {
    util::AtomicFileWriter spool;
    spool.open(spool_path);
    const util::CounterRng row_seeds(sub_seed(config.seed, kTagRows));
    const double rate_scale = (config.avg_degree / 2.0) * (1.0 - beta);
    std::vector<std::uint32_t> partners;
    std::vector<Edge> row_buf;
    row_buf.reserve(1u << 15);
    for (std::uint64_t u = 0; u + 1 < n; ++u) {
      util::Rng rng(row_seeds.at(u));
      const double rank = static_cast<double>(u + 1) / static_cast<double>(n);
      double lam = rate_scale * std::pow(rank, -beta);
      if (lam > 10000.0) lam = 10000.0;
      const double whole = std::floor(lam);
      std::uint64_t k = static_cast<std::uint64_t>(whole) +
                        (rng.uniform() < (lam - whole) ? 1 : 0);
      partners.clear();
      const double f_lo = std::pow(rank, 1.0 - beta);
      for (std::uint64_t i = 0; i < k; ++i) {
        const double t = rng.uniform();
        const double x =
            std::pow(f_lo + t * (1.0 - f_lo), 1.0 / (1.0 - beta));
        auto v = static_cast<std::uint64_t>(x * static_cast<double>(n));
        if (v <= u) v = u + 1;
        if (v >= n) v = n - 1;
        partners.push_back(static_cast<std::uint32_t>(v));
      }
      std::sort(partners.begin(), partners.end());
      partners.erase(std::unique(partners.begin(), partners.end()),
                     partners.end());
      for (const std::uint32_t v : partners) {
        row_buf.push_back({static_cast<std::uint32_t>(u), v});
        ++deg[u];
        ++deg[v];
      }
      m += partners.size();
      if (m >= (1ull << 31)) {
        throw InvalidArgument(
            "stream generator: edge count exceeds the 2m uint32 slot space; "
            "lower avg_degree or num_nodes");
      }
      if (row_buf.size() >= (1u << 15)) {
        spool.append(row_buf.data(), row_buf.size() * sizeof(Edge));
        row_buf.clear();
      }
    }
    if (!row_buf.empty()) {
      spool.append(row_buf.data(), row_buf.size() * sizeof(Edge));
    }
    spool.commit();
  }

  std::vector<std::uint64_t> offsets(n + 1, 0);
  for (std::uint64_t u = 0; u < n; ++u) offsets[u + 1] = offsets[u] + deg[u];

  SpoolScanner scanner(spool_path);

  // --- selection pass: cautious users, streaming ---------------------------
  //
  // Greedy by ascending id over the degree-window pool, skipping any node
  // adjacent to an already-selected one — the deterministic streaming
  // analogue of datasets.hpp's randomized protocol.  One scan suffices
  // because the spool is lo-major: when node u's decision is due, every
  // edge (v, u) with v < u has already been seen, so `blocked` is complete.
  const std::size_t words = (static_cast<std::size_t>(n) + 63) / 64;
  std::vector<std::uint64_t> cautious_bits(words, 0);
  std::uint32_t selected = 0;
  {
    std::vector<std::uint64_t> blocked(words, 0);
    std::uint64_t next_row = 0;
    const auto decide_through = [&](std::uint64_t upto) {
      for (; next_row < upto; ++next_row) {
        const std::uint64_t u = next_row;
        if (selected >= config.num_cautious) continue;
        if (deg[u] < config.cautious_degree_min ||
            deg[u] > config.cautious_degree_max) {
          continue;
        }
        if ((blocked[u >> 6] >> (u & 63)) & 1u) continue;
        cautious_bits[u >> 6] |= 1ull << (u & 63);
        ++selected;
      }
    };
    scanner.scan([&](std::uint32_t lo, std::uint32_t hi, std::uint32_t) {
      decide_through(static_cast<std::uint64_t>(lo) + 1);
      if ((cautious_bits[lo >> 6] >> (lo & 63)) & 1u) {
        blocked[hi >> 6] |= 1ull << (hi & 63);
      }
    });
    decide_through(n);
  }
  const auto is_cautious = [&](std::uint64_t u) {
    return ((cautious_bits[u >> 6] >> (u & 63)) & 1u) != 0;
  };
  const auto theta_of = [&](std::uint64_t u) -> std::uint32_t {
    const auto t = static_cast<std::uint32_t>(
        std::llround(config.threshold_fraction * static_cast<double>(deg[u])));
    return t < 1 ? 1u : t;
  };

  // --- emit the binary format ---------------------------------------------
  BinaryInstanceWriter w;
  w.open(path, n, m, 0);

  w.begin_section(fmt::kOffsets);
  w.write(offsets.data(), (n + 1) * 8);
  w.end_section();

  // Adjacency: scatter passes into row-aligned buckets.  Within a bucket a
  // per-row append cursor suffices because the lo-major scan delivers each
  // row's entries in ascending-neighbor order (see Edge above).
  {
    w.begin_section(fmt::kAdjacency);
    std::vector<Slot> bucket;
    std::vector<std::uint32_t> cur;
    for_each_row_bucket(offsets, n, cap,
                        [&](std::uint64_t r0, std::uint64_t r1) {
      const std::uint64_t base = offsets[r0];
      const std::uint64_t span = offsets[r1] - base;
      bucket.resize(static_cast<std::size_t>(span));
      cur.assign(static_cast<std::size_t>(r1 - r0), 0);
      scanner.scan([&](std::uint32_t lo, std::uint32_t hi, std::uint32_t e) {
        if (lo >= r0 && lo < r1) {
          bucket[static_cast<std::size_t>(offsets[lo] - base +
                                          cur[lo - r0]++)] = {hi, e};
        }
        if (hi >= r0 && hi < r1) {
          bucket[static_cast<std::size_t>(offsets[hi] - base +
                                          cur[hi - r0]++)] = {lo, e};
        }
      });
      w.write(bucket.data(), static_cast<std::size_t>(span) * sizeof(Slot));
    });
    w.end_section();
  }

  // Endpoints: the spool *is* the section payload.
  {
    w.begin_section(fmt::kEndpoints);
    std::vector<Edge> ebuf;
    ebuf.reserve(1u << 16);
    scanner.scan([&](std::uint32_t lo, std::uint32_t hi, std::uint32_t) {
      ebuf.push_back({lo, hi});
      if (ebuf.size() == (1u << 16)) {
        w.write(ebuf.data(), ebuf.size() * sizeof(Edge));
        ebuf.clear();
      }
    });
    if (!ebuf.empty()) w.write(ebuf.data(), ebuf.size() * sizeof(Edge));
    w.end_section();
  }

  // Edge priors: pure counter stream in EdgeId order.
  const util::CounterRng prob_rng(sub_seed(config.seed, kTagProbs));
  constexpr std::size_t kChunk = 1u << 16;
  {
    w.begin_section(fmt::kProbs);
    std::vector<double> dbuf(kChunk);
    for (std::uint64_t e0 = 0; e0 < m; e0 += kChunk) {
      const std::size_t len =
          static_cast<std::size_t>(std::min<std::uint64_t>(kChunk, m - e0));
      for (std::size_t i = 0; i < len; ++i) {
        dbuf[i] = unit(prob_rng.at(e0 + i));
      }
      w.write(dbuf.data(), len * 8);
    }
    w.end_section();
  }

  w.begin_section(fmt::kCautious);
  if (!cautious_bits.empty()) {
    w.write(cautious_bits.data(), cautious_bits.size() * 8);
  }
  w.end_section();

  // Per-node columns, streamed in fixed-size chunks.
  const auto node_column_f64 = [&](std::uint32_t id, auto&& value_of) {
    w.begin_section(id);
    std::vector<double> dbuf(kChunk);
    for (std::uint64_t u0 = 0; u0 < n; u0 += kChunk) {
      const std::size_t len =
          static_cast<std::size_t>(std::min<std::uint64_t>(kChunk, n - u0));
      for (std::size_t i = 0; i < len; ++i) dbuf[i] = value_of(u0 + i);
      w.write(dbuf.data(), len * 8);
    }
    w.end_section();
  };
  const util::CounterRng accept_rng(sub_seed(config.seed, kTagAccept));
  node_column_f64(fmt::kAccept,
                  [&](std::uint64_t u) { return unit(accept_rng.at(u)); });
  {
    w.begin_section(fmt::kTheta);
    std::vector<std::uint32_t> ubuf(kChunk);
    for (std::uint64_t u0 = 0; u0 < n; u0 += kChunk) {
      const std::size_t len =
          static_cast<std::size_t>(std::min<std::uint64_t>(kChunk, n - u0));
      for (std::size_t i = 0; i < len; ++i) {
        const std::uint64_t u = u0 + i;
        ubuf[i] = is_cautious(u) ? theta_of(u) : 1u;
      }
      w.write(ubuf.data(), len * 4);
    }
    w.end_section();
  }
  node_column_f64(fmt::kFriendBenefit, [&](std::uint64_t u) {
    return is_cautious(u) ? config.cautious_friend_benefit
                          : config.reckless_friend_benefit;
  });
  node_column_f64(fmt::kFofBenefit,
                  [&](std::uint64_t) { return config.fof_benefit; });

  w.commit();

  StreamGenStats stats;
  stats.num_nodes = n;
  stats.num_edges = m;
  stats.num_cautious = selected;
  stats.spool_scans = scanner.scans();
  return stats;
}

}  // namespace accu::datasets
