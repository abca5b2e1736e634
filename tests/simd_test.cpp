// The SIMD seam's determinism contract (core/score_simd.hpp) — ISSUE 9.
//
//   * ScoreSimdTest     — every kernel table the build carries (portable
//     scalar + whatever the host CPU supports) produces bit-identical
//     doubles and packed words on random rows, including unaligned ranges
//     and tails; ISA parsing/selection semantics.
//   * ScoreSimdBatchTest — score_batch under every forced ISA and under
//     arbitrary range chunking is bit-identical to itself and to the
//     scalar reference potential.
//   * ScoreResampleTest — the draw-plan fast Realization::resample is
//     draw-for-draw identical to resample_reference: same bits, same RNG
//     end state, under every forced ISA, across population mixes including
//     deterministic (p ∈ {0,1}) edges and coins and the generalized
//     cautious model.
//
// Suite names deliberately start with "Score" so tools/ci.sh's engine-gate
// and forced-ISA stages (-R 'Engine|Score|...') pick them up.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <vector>

#include "core/realization.hpp"
#include "core/score.hpp"
#include "core/score_simd.hpp"
#include "core/strategies/abm.hpp"
#include "graph/generators.hpp"

namespace accu {
namespace {

/// Forces one ISA for the test's scope, restoring auto selection after.
class IsaGuard {
 public:
  explicit IsaGuard(simd::Isa isa) { simd::select_isa(isa); }
  ~IsaGuard() { simd::select_auto(); }
};

std::vector<simd::Isa> supported_isas() {
  std::vector<simd::Isa> isas = {simd::Isa::kScalar};
  if (simd::isa_supported(simd::Isa::kAvx2)) isas.push_back(simd::Isa::kAvx2);
  if (simd::isa_supported(simd::Isa::kNeon)) isas.push_back(simd::Isa::kNeon);
  return isas;
}

// ---------------------------------------------------------------------------
// Kernel-level cross-ISA identity
// ---------------------------------------------------------------------------

TEST(ScoreSimdTest, RowKernelsBitIdenticalAcrossIsas) {
  util::Rng rng(91);
  const std::uint32_t n_slots = 300;
  const NodeId n_nodes = 64;
  std::vector<double> values(n_slots);
  std::vector<NodeId> nodes(n_slots);
  std::vector<double> table(n_nodes);
  for (auto& v : values) v = rng.uniform(0.0, 3.0);
  for (auto& v : nodes) v = static_cast<NodeId>(rng.index(n_nodes));
  for (auto& v : table) v = rng.bernoulli(0.7) ? rng.uniform() : 0.0;

  simd::select_isa(simd::Isa::kScalar);
  const simd::ScoreKernels scalar = simd::kernels();
  for (const simd::Isa isa : supported_isas()) {
    IsaGuard guard(isa);
    const simd::ScoreKernels& k = simd::kernels();
    EXPECT_EQ(k.id, isa);
    // Every (s0, s1) alignment class: full vector bodies, odd tails,
    // ranges shorter than one vector, empty ranges.
    for (const std::uint32_t s0 : {0u, 1u, 2u, 3u, 4u, 7u, 64u}) {
      for (const std::uint32_t s1 :
           {s0, s0 + 1, s0 + 3, s0 + 4, s0 + 5, s0 + 17, n_slots}) {
        ASSERT_EQ(k.row_gather_mul(values.data(), nodes.data(), table.data(),
                                   s0, s1),
                  scalar.row_gather_mul(values.data(), nodes.data(),
                                        table.data(), s0, s1))
            << simd::isa_name(isa) << " gather [" << s0 << "," << s1 << ")";
      }
    }
  }
}

TEST(ScoreSimdTest, BernoulliPackBitIdenticalAcrossIsas) {
  util::Rng rng(92);
  for (const std::size_t n : {0ull, 1ull, 63ull, 64ull, 65ull, 200ull,
                              640ull, 777ull}) {
    std::vector<std::uint64_t> raw(n), thr(n);
    rng.fill_raw(raw.data(), n);
    for (auto& t : thr) {
      t = util::Rng::bernoulli_threshold(0.001 + 0.998 * rng.uniform());
    }
    const std::size_t words = (n + 63) / 64;
    std::vector<std::uint64_t> ref(words, 0xdeadbeefULL);
    simd::select_isa(simd::Isa::kScalar);
    simd::kernels().bernoulli_pack(raw.data(), thr.data(), n, ref.data());
    for (std::size_t i = 0; i < n; ++i) {  // definitionally correct bits
      ASSERT_EQ((ref[i >> 6] >> (i & 63)) & 1u, (raw[i] >> 11) < thr[i] ? 1u : 0u);
    }
    for (const simd::Isa isa : supported_isas()) {
      IsaGuard guard(isa);
      std::vector<std::uint64_t> out(words, 0xdeadbeefULL);
      simd::kernels().bernoulli_pack(raw.data(), thr.data(), n, out.data());
      ASSERT_EQ(out, ref) << simd::isa_name(isa) << " n=" << n;
    }
  }
  simd::select_auto();
}

TEST(ScoreSimdTest, ParseSelectAndNames) {
  EXPECT_EQ(simd::parse_isa("auto"), std::nullopt);
  EXPECT_EQ(simd::parse_isa("scalar"), simd::Isa::kScalar);
  // Foreign ISA names must parse on every platform (descriptors travel);
  // support is a select-time question.
  EXPECT_EQ(simd::parse_isa("avx2"), simd::Isa::kAvx2);
  EXPECT_EQ(simd::parse_isa("neon"), simd::Isa::kNeon);
  EXPECT_THROW((void)simd::parse_isa("sse9"), InvalidArgument);
  EXPECT_THROW((void)simd::parse_isa(""), InvalidArgument);

  EXPECT_TRUE(simd::isa_supported(simd::Isa::kScalar));
  for (const simd::Isa isa :
       {simd::Isa::kScalar, simd::Isa::kAvx2, simd::Isa::kNeon}) {
    if (simd::isa_supported(isa)) {
      simd::select_isa(isa);
      EXPECT_EQ(simd::active_isa(), isa);
    } else {
      EXPECT_THROW(simd::select_isa(isa), InvalidArgument);
    }
  }
  simd::select(std::nullopt);
  if (std::getenv("ACCU_SIMD") == nullptr) {
    EXPECT_EQ(simd::active_isa(), simd::best_isa());
  }
  EXPECT_TRUE(simd::isa_supported(simd::active_isa()));
  EXPECT_STREQ(simd::isa_name(simd::Isa::kScalar), "scalar");
  EXPECT_STREQ(simd::isa_name(simd::Isa::kAvx2), "avx2");
  EXPECT_STREQ(simd::isa_name(simd::Isa::kNeon), "neon");
}

// ---------------------------------------------------------------------------
// score_batch: forced-ISA + chunking identity
// ---------------------------------------------------------------------------

AccuInstance make_mixed_instance(std::uint64_t seed, NodeId n,
                                 std::size_t max_cautious, double q1) {
  util::Rng rng(seed);
  graph::GraphBuilder b = graph::holme_kim(n, 4, 0.35, rng);
  b.assign_uniform_probs(rng);
  const Graph g = b.build();
  std::vector<UserClass> classes(n, UserClass::kReckless);
  std::vector<std::uint32_t> thresholds(n, 1);
  std::vector<NodeId> cautious;
  for (NodeId v = 0; v < n && cautious.size() < max_cautious; ++v) {
    if (g.degree(v) < 3) continue;
    bool adjacent = false;
    for (const NodeId x : cautious) adjacent |= g.has_edge(v, x);
    if (adjacent) continue;
    classes[v] = UserClass::kCautious;
    thresholds[v] = 2;
    cautious.push_back(v);
  }
  std::vector<double> q(n);
  for (auto& x : q) x = rng.uniform();
  BenefitModel benefits = BenefitModel::paper_default(classes);
  if (q1 > 0.0) {
    GeneralizedCautiousParams params{std::vector<double>(n, q1),
                                     std::vector<double>(n, 1.0)};
    return AccuInstance(g, classes, q, thresholds, std::move(benefits),
                        std::move(params));
  }
  return AccuInstance(g, classes, q, thresholds, std::move(benefits));
}

TEST(ScoreSimdBatchTest, ForcedIsaAndChunkingBitIdentical) {
  const AccuInstance instance = make_mixed_instance(7, 90, 8, 0.0);
  const NodeId n = instance.num_nodes();
  ScorePack pack;
  pack.build(instance);
  const PotentialWeights weights{0.5, 0.5};

  // Evolve a view a few requests in so masks/gaps are non-trivial.
  util::Rng rng(8);
  const Realization truth = Realization::sample(instance, rng);
  AttackerView view(instance);
  for (NodeId t = 0; t < 12; ++t) {
    if (t % 3 == 0) {
      view.record_rejection(t);
    } else {
      view.record_acceptance(t, truth);
    }
  }

  simd::select_isa(simd::Isa::kScalar);
  std::vector<double> ref(n);
  score_batch(pack, view, weights, 0, n, ref.data());

  // The scalar potential is the same doubles (sanity anchor).
  AbmStrategy::Config config;
  config.weights = weights;
  config.incremental = false;
  const AbmStrategy scalar(config);
  for (NodeId u = 0; u < n; ++u) {
    if (view.is_requested(u)) continue;
    ASSERT_EQ(ref[u], scalar.potential(view, u)) << "node " << u;
  }

  for (const simd::Isa isa : supported_isas()) {
    IsaGuard guard(isa);
    std::vector<double> full(n);
    score_batch(pack, view, weights, 0, n, full.data());
    ASSERT_EQ(full, ref) << simd::isa_name(isa);

    // Arbitrary chunking through the split prepare/ranged API.
    ScoreBatchScratch scratch;
    score_batch_prepare(pack, view, weights.indirect > 0.0, scratch);
    std::vector<double> chunked(n, -1.0);
    const NodeId bounds[] = {0, 7, 8, 31, 32, 33, 64, n};
    for (std::size_t c = 0; c + 1 < std::size(bounds); ++c) {
      score_batch_ranged(pack, view, weights, scratch, bounds[c],
                         bounds[c + 1], chunked.data() + bounds[c]);
    }
    ASSERT_EQ(chunked, ref) << simd::isa_name(isa) << " chunked";
  }
}

// ---------------------------------------------------------------------------
// Fast resample vs the reference draw loop
// ---------------------------------------------------------------------------

/// A small instance exercising every draw-plan case: drawn edges,
/// deterministic present/absent edges, reckless q ∈ {0, drawn, 1}, cautious
/// users with deterministic and (optionally) drawn regime coins.
AccuInstance make_plan_stress_instance(double q1, double q2) {
  graph::GraphBuilder b(8);
  b.add_edge(0, 1, 0.5);
  b.add_edge(1, 2, 1.0);   // deterministic present — no draw
  b.add_edge(2, 3, 0.0);   // deterministic absent — no draw
  b.add_edge(3, 4, 0.25);
  b.add_edge(4, 5, 0.75);
  b.add_edge(5, 6, 1.0);
  b.add_edge(6, 7, 0.01);
  b.add_edge(0, 7, 0.99);
  const Graph g = b.build();
  std::vector<UserClass> classes(8, UserClass::kReckless);
  classes[2] = UserClass::kCautious;
  classes[5] = UserClass::kCautious;
  std::vector<std::uint32_t> thresholds(8, 1);
  thresholds[2] = 2;
  thresholds[5] = 1;
  std::vector<double> q = {0.3, 0.0, 0.5, 1.0, 0.8, 0.5, 0.0, 1.0};
  BenefitModel benefits = BenefitModel::paper_default(classes);
  if (q1 > 0.0 || q2 < 1.0) {
    GeneralizedCautiousParams params{std::vector<double>(8, q1),
                                     std::vector<double>(8, q2)};
    return AccuInstance(g, classes, q, thresholds, std::move(benefits),
                        std::move(params));
  }
  return AccuInstance(g, classes, q, thresholds, std::move(benefits));
}

void expect_same_realization(const Realization& a, const Realization& b,
                             const AccuInstance& instance, const char* what) {
  ASSERT_EQ(a.num_edges(), b.num_edges());
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    ASSERT_EQ(a.edge_present(e), b.edge_present(e)) << what << " edge " << e;
  }
  for (NodeId u = 0; u < a.num_nodes(); ++u) {
    ASSERT_EQ(a.reckless_accepts(u), b.reckless_accepts(u)) << what << " " << u;
    ASSERT_EQ(a.cautious_below_accepts(u), b.cautious_below_accepts(u))
        << what << " " << u;
    ASSERT_EQ(a.cautious_above_accepts(u), b.cautious_above_accepts(u))
        << what << " " << u;
  }
  (void)instance;
}

void check_resample_matches_reference(const AccuInstance& instance,
                                      const char* what) {
  for (const simd::Isa isa : supported_isas()) {
    IsaGuard guard(isa);
    util::Rng fast_rng(1234);
    util::Rng ref_rng(1234);
    Realization fast = Realization::certain(instance);
    Realization ref = Realization::certain(instance);
    for (int round = 0; round < 5; ++round) {
      fast.resample(instance, fast_rng);
      ref.resample_reference(instance, ref_rng);
      expect_same_realization(fast, ref, instance, what);
      // Draw-for-draw: both generators must be in the same state.
      ASSERT_EQ(fast_rng(), ref_rng()) << what << " rng state, round " << round;
    }
  }
}

TEST(ScoreResampleTest, PlanStressDeterministicModel) {
  check_resample_matches_reference(make_plan_stress_instance(0.0, 1.0),
                                   "stress-deterministic");
}

TEST(ScoreResampleTest, PlanStressGeneralizedDrawnCoins) {
  check_resample_matches_reference(make_plan_stress_instance(0.35, 0.9),
                                   "stress-generalized");
}

TEST(ScoreResampleTest, PopulationMixesMatchReference) {
  check_resample_matches_reference(make_mixed_instance(21, 120, 0, 0.0),
                                   "all-reckless");
  check_resample_matches_reference(make_mixed_instance(22, 120, 10, 0.0),
                                   "sparse-cautious");
  check_resample_matches_reference(make_mixed_instance(23, 120, 10, 0.4),
                                   "generalized");
}

TEST(ScoreResampleTest, PlanRebuildsWhenInstanceChanges) {
  const AccuInstance first = make_mixed_instance(31, 60, 5, 0.0);
  const AccuInstance second = make_mixed_instance(32, 80, 8, 0.3);
  util::Rng fast_rng(9);
  util::Rng ref_rng(9);
  Realization fast = Realization::certain(first);
  Realization ref = Realization::certain(first);
  // Alternate instances through one pooled realization (the workspace
  // pattern when a sweep moves to the next cell).
  for (int round = 0; round < 4; ++round) {
    const AccuInstance& inst = (round % 2 == 0) ? first : second;
    fast.resample(inst, fast_rng);
    ref.resample_reference(inst, ref_rng);
    expect_same_realization(fast, ref, inst, "alternating");
    ASSERT_EQ(fast_rng(), ref_rng());
  }
}

}  // namespace
}  // namespace accu
