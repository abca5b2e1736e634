// Google-Benchmark microbenchmarks for the hot paths: potential evaluation,
// observation updates, realization sampling, PageRank, generators, and a
// full ABM attack.  These are engineering benchmarks (not paper figures);
// they guard the complexity claims in DESIGN.md §7.
//
// Besides the google-benchmark suite, the binary has a second mode:
//
//   micro_core --json [path]
//
// runs the sweep-cell workload twice — once allocating everything fresh per
// cell (the pre-engine behaviour) and once through a reused SimWorkspace +
// persistent strategy (what run_experiment does per worker since PR 3) —
// counting every operator-new call via the replaced global allocator — then
// times every hot kernel of the simulation stack (realization sampling,
// observation update, scalar potential, batched rescore, full ABM round,
// isolated deferred-revelation drain), re-times the score_simd kernels
// under every ISA table the host supports, and writes the numbers as JSON
// (default BENCH_micro_core.json).  The repo-root BENCH_micro_core.json is
// the committed per-PR snapshot of these numbers; tools/ci.sh gates pooled
// allocs/cell against bench/micro_core_allocs.baseline and the rest of the
// keys against the committed snapshot via tools/accu_bench_diff, so
// neither the O(1)-allocations-per-cell property nor a kernel speedup can
// silently regress.

// GCC cannot see that the replaced operator new below is malloc-backed and
// flags every inlined new/delete pair as mismatched; the pairing is correct
// by construction (new -> malloc, delete -> free), so silence the false
// positive for this TU.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/score_simd.hpp"
#include "core/strategies/abm.hpp"
#include "core/strategies/baselines.hpp"
#include "datasets/datasets.hpp"
#include "graph/generators.hpp"
#include "graph/pagerank.hpp"

// ---------------------------------------------------------------------------
// Allocation counting: replace the global allocator with a malloc-backed one
// that counts every allocation.  The relaxed atomic adds ~1ns per call, far
// below the noise floor of anything measured here.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};

void* counted_alloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_alloc_aligned(std::size_t size, std::size_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     size == 0 ? 1 : size) != 0) {
    return nullptr;
  }
  return p;
}
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_alloc_aligned(size, static_cast<std::size_t>(align)))
    return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = counted_alloc_aligned(size, static_cast<std::size_t>(align)))
    return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_alloc_aligned(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_alloc_aligned(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace accu;

const AccuInstance& twitter_instance() {
  static const AccuInstance instance = [] {
    util::Rng rng(7);
    datasets::DatasetConfig config;
    config.scale = 0.03;  // ~2.4k nodes, mean degree ~44
    return datasets::make_dataset("twitter", config, rng);
  }();
  return instance;
}

void BM_RealizationSample(benchmark::State& state) {
  const AccuInstance& instance = twitter_instance();
  util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Realization::sample(instance, rng));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      instance.graph().num_edges());
}
BENCHMARK(BM_RealizationSample);

void BM_PotentialEvaluation(benchmark::State& state) {
  const AccuInstance& instance = twitter_instance();
  const AttackerView view(instance);
  const AbmStrategy abm(0.5, 0.5);
  NodeId u = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(abm.potential(view, u));
    u = (u + 1) % instance.num_nodes();
  }
}
BENCHMARK(BM_PotentialEvaluation);

void BM_ObservationUpdate(benchmark::State& state) {
  const AccuInstance& instance = twitter_instance();
  util::Rng rng(2);
  const Realization truth = Realization::sample(instance, rng);
  for (auto _ : state) {
    state.PauseTiming();
    AttackerView view(instance);
    state.ResumeTiming();
    for (NodeId v = 0; v < 64; ++v) view.record_acceptance(v, truth);
    benchmark::DoNotOptimize(view.current_benefit());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_ObservationUpdate);

void BM_BatchedRescore(benchmark::State& state) {
  // The flat full-population rescore (core/score.hpp) that BatchedABM and
  // lookahead ranking run per round, through the pooled prepare + ranged
  // path the strategies actually use; items = candidates scored.
  const AccuInstance& instance = twitter_instance();
  const AttackerView view(instance);
  ScorePack pack;
  pack.build(instance);
  const PotentialWeights weights{0.5, 0.5};
  ScoreBatchScratch scratch;
  std::vector<double> scores(instance.num_nodes());
  for (auto _ : state) {
    score_batch_all(pack, view, weights, scratch, nullptr, scores.data());
    benchmark::DoNotOptimize(scores.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          instance.num_nodes());
}
BENCHMARK(BM_BatchedRescore);

void BM_SimulateAbm(benchmark::State& state) {
  const AccuInstance& instance = twitter_instance();
  util::Rng rng(3);
  const Realization truth = Realization::sample(instance, rng);
  const auto budget = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    AbmStrategy abm(0.5, 0.5);
    util::Rng srng(4);
    benchmark::DoNotOptimize(
        simulate(instance, truth, abm, budget, srng).total_benefit);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          budget);
}
BENCHMARK(BM_SimulateAbm)->Arg(50)->Arg(200);

void BM_SimulateAbmPooled(benchmark::State& state) {
  // The workspace path run_experiment uses per worker: persistent strategy,
  // pooled view/truth/trace, zero steady-state allocations.
  const AccuInstance& instance = twitter_instance();
  util::Rng rng(3);
  const Realization truth = Realization::sample(instance, rng);
  const auto budget = static_cast<std::uint32_t>(state.range(0));
  SimWorkspace ws;
  AbmStrategy abm(0.5, 0.5);
  SimulationResult out;
  for (auto _ : state) {
    util::Rng srng(4);
    AttackerView& view = ws.reset_view(instance);
    simulate_into(instance, truth, abm, budget, srng, view, ws, out);
    benchmark::DoNotOptimize(out.total_benefit);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          budget);
}
BENCHMARK(BM_SimulateAbmPooled)->Arg(50)->Arg(200);

void BM_SimulateAbmReference(benchmark::State& state) {
  const AccuInstance& instance = twitter_instance();
  util::Rng rng(3);
  const Realization truth = Realization::sample(instance, rng);
  const auto budget = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    AbmStrategy::Config config;
    config.weights = {0.5, 0.5};
    config.incremental = false;
    AbmStrategy abm(config);
    util::Rng srng(4);
    benchmark::DoNotOptimize(
        simulate(instance, truth, abm, budget, srng).total_benefit);
  }
}
BENCHMARK(BM_SimulateAbmReference)->Arg(50);

void BM_SimulateRandom(benchmark::State& state) {
  const AccuInstance& instance = twitter_instance();
  util::Rng rng(5);
  const Realization truth = Realization::sample(instance, rng);
  for (auto _ : state) {
    RandomStrategy random;
    util::Rng srng(6);
    benchmark::DoNotOptimize(
        simulate(instance, truth, random, 200, srng).total_benefit);
  }
}
BENCHMARK(BM_SimulateRandom);

void BM_PageRank(benchmark::State& state) {
  const AccuInstance& instance = twitter_instance();
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::pagerank(instance.graph()));
  }
}
BENCHMARK(BM_PageRank);

void BM_GenerateFacebookLike(benchmark::State& state) {
  for (auto _ : state) {
    util::Rng rng(8);
    benchmark::DoNotOptimize(
        datasets::make_topology("facebook", 0.25, rng).num_edges());
  }
}
BENCHMARK(BM_GenerateFacebookLike);

void BM_GenerateDblpLike(benchmark::State& state) {
  for (auto _ : state) {
    util::Rng rng(9);
    benchmark::DoNotOptimize(
        datasets::make_topology("dblp", 0.01, rng).num_edges());
  }
}
BENCHMARK(BM_GenerateDblpLike);

void BM_CsrBuild(benchmark::State& state) {
  util::Rng rng(10);
  const graph::GraphBuilder builder =
      graph::barabasi_albert(5000, 10, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(builder.build().num_edges());
  }
}
BENCHMARK(BM_CsrBuild);

// ---------------------------------------------------------------------------
// --json mode: the sweep-cell workload, fresh vs pooled, with alloc counts.
// ---------------------------------------------------------------------------

struct CellWorkloadResult {
  double cells_per_sec = 0.0;
  double allocs_per_cell = 0.0;
};

/// One sweep cell, old-style: every object constructed from scratch —
/// exactly what run_experiment did per (sample, run, strategy) before the
/// workspace refactor.
double run_cell_fresh(const AccuInstance& instance, std::uint64_t cell,
                      std::uint32_t budget) {
  util::Rng truth_rng(cell + 1);
  const Realization truth = Realization::sample(instance, truth_rng);
  AbmStrategy abm(0.5, 0.5);
  util::Rng srng(cell + 101);
  return simulate(instance, truth, abm, budget, srng).total_benefit;
}

CellWorkloadResult measure_fresh(const AccuInstance& instance,
                                 std::uint64_t cells, std::uint32_t budget) {
  double sink = 0.0;
  for (std::uint64_t c = 0; c < 8; ++c) {  // warmup (cache parity)
    sink += run_cell_fresh(instance, c, budget);
  }
  const std::uint64_t allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t c = 0; c < cells; ++c) {
    sink += run_cell_fresh(instance, c, budget);
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  const std::uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  benchmark::DoNotOptimize(sink);
  return {static_cast<double>(cells) / elapsed.count(),
          static_cast<double>(allocs) / static_cast<double>(cells)};
}

CellWorkloadResult measure_pooled(const AccuInstance& instance,
                                  std::uint64_t cells, std::uint32_t budget) {
  SimWorkspace ws;
  AbmStrategy abm(0.5, 0.5);
  SimulationResult out;
  double sink = 0.0;
  auto run_cell = [&](std::uint64_t cell) {
    util::Rng truth_rng(cell + 1);
    const Realization& truth = ws.sample_truth(instance, truth_rng);
    util::Rng srng(cell + 101);
    AttackerView& view = ws.reset_view(instance);
    simulate_into(instance, truth, abm, budget, srng, view, ws, out);
    return out.total_benefit;
  };
  for (std::uint64_t c = 0; c < 8; ++c) {  // warmup: grow the pools
    sink += run_cell(c);
  }
  const std::uint64_t allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t c = 0; c < cells; ++c) {
    sink += run_cell(c);
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  const std::uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  benchmark::DoNotOptimize(sink);
  return {static_cast<double>(cells) / elapsed.count(),
          static_cast<double>(allocs) / static_cast<double>(cells)};
}

/// Wall-clock of `iters` calls to `body`, after `warmup` unmeasured calls.
template <typename F>
double measure_seconds(std::uint64_t warmup, std::uint64_t iters, F&& body) {
  for (std::uint64_t i = 0; i < warmup; ++i) body(i);
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) body(i);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

/// Per-op nanoseconds for every hot kernel of the simulation stack, on the
/// same twitter-0.03 instance as the cell workload.  These are the numbers
/// the per-PR BENCH_micro_core.json snapshots track over time
/// (tools/accu_bench_diff compares a fresh run against the committed
/// snapshot in CI).
struct KernelTimings {
  double realization_sample_ns = 0.0;   // per pooled full resample
  double observation_update_ns = 0.0;   // per accepted request folded in
  double potential_scalar_ns = 0.0;     // per scalar potential() call
  double batched_rescore_ns = 0.0;      // per candidate, prepare + ranged
  double abm_round_ns = 0.0;            // per round of a pooled ABM attack
  double deferred_delivery_ns = 0.0;    // per delivered revelation (drain
                                        // only, delayed:5 queue of 64)
};

/// Pooled full-population rescore (prepare + ranged through reused
/// scratch — the exact path BatchedABM / lookahead ranking run per round).
/// Returns ns per candidate scored.
double measure_rescore_ns(const AccuInstance& instance) {
  const NodeId n = instance.num_nodes();
  const AttackerView view(instance);
  ScorePack pack;
  pack.build(instance);
  const PotentialWeights weights{0.5, 0.5};
  ScoreBatchScratch scratch;
  std::vector<double> scores(n);
  const std::uint64_t iters = 400;
  const double s = measure_seconds(8, iters, [&](std::uint64_t) {
    score_batch_all(pack, view, weights, scratch, nullptr, scores.data());
    benchmark::DoNotOptimize(scores.data());
    benchmark::ClobberMemory();
  });
  return s * 1e9 / static_cast<double>(iters * n);
}

/// Pooled realization resample (the sweep truth path).  Returns ns per
/// full resample call.
double measure_resample_ns(const AccuInstance& instance) {
  util::Rng rng(11);
  Realization truth = Realization::sample(instance, rng);
  const std::uint64_t iters = 200;
  const double s = measure_seconds(
      8, iters, [&](std::uint64_t) { truth.resample(instance, rng); });
  return s * 1e9 / static_cast<double>(iters);
}

KernelTimings measure_kernels(const AccuInstance& instance) {
  KernelTimings t;
  const NodeId n = instance.num_nodes();

  t.realization_sample_ns = measure_resample_ns(instance);
  {  // Observation update: 64 acceptances folded into a reused view.
    util::Rng rng(12);
    const Realization truth = Realization::sample(instance, rng);
    AttackerView view(instance);
    const std::uint64_t iters = 100;
    double sink = 0.0;
    const double s = measure_seconds(4, iters, [&](std::uint64_t) {
      view.reset(instance);
      for (NodeId v = 0; v < 64; ++v) view.record_acceptance(v, truth);
      sink += view.current_benefit();
    });
    benchmark::DoNotOptimize(sink);
    t.observation_update_ns = s * 1e9 / static_cast<double>(iters * 64);
  }
  {  // Scalar potential (the reference kernel) on a fresh view.
    const AttackerView view(instance);
    const AbmStrategy abm(0.5, 0.5);
    const std::uint64_t iters = 400000;
    double sink = 0.0;
    const double s = measure_seconds(1000, iters, [&](std::uint64_t i) {
      sink += abm.potential(view, static_cast<NodeId>(i % n));
    });
    benchmark::DoNotOptimize(sink);
    t.potential_scalar_ns = s * 1e9 / static_cast<double>(iters);
  }
  t.batched_rescore_ns = measure_rescore_ns(instance);
  {  // Full ABM round through the pooled engine path.
    util::Rng rng(13);
    const Realization truth = Realization::sample(instance, rng);
    const std::uint32_t budget = 50;
    SimWorkspace ws;
    AbmStrategy abm(0.5, 0.5);
    SimulationResult out;
    const std::uint64_t iters = 50;
    double sink = 0.0;
    const double s = measure_seconds(4, iters, [&](std::uint64_t) {
      util::Rng srng(14);
      AttackerView& view = ws.reset_view(instance);
      simulate_into(instance, truth, abm, budget, srng, view, ws, out);
      sink += out.total_benefit;
    });
    benchmark::DoNotOptimize(sink);
    t.abm_round_ns = s * 1e9 / static_cast<double>(iters * budget);
  }
  {  // Isolated deferred-revelation drain (core/feedback.hpp).  Queue 64
     // acceptances under delayed:5, advance the clock past every due round,
     // then time *only* the deliver_next_revelation loop — the setup
     // (reset, arm, record) runs off the clock, so this is the per-delivery
     // cost of landing a queued neighborhood revelation, not the cost of a
     // whole delayed round.
    util::Rng rng(13);
    const Realization truth = Realization::sample(instance, rng);
    const NodeId accepted = 64;
    AttackerView view(instance);
    AttackerView::AcceptanceEffects effects;
    const std::uint64_t warmup = 4;
    const std::uint64_t iters = 200;
    double drain_seconds = 0.0;
    for (std::uint64_t i = 0; i < warmup + iters; ++i) {
      view.reset(instance);
      view.arm_feedback(FeedbackModel{FeedbackKind::kDelayed, 5});
      for (NodeId v = 0; v < accepted; ++v) {
        view.set_feedback_round(v);
        view.record_acceptance(v, truth, effects);
      }
      view.set_feedback_round(accepted + 5);
      const auto start = std::chrono::steady_clock::now();
      while (view.has_due_revelation()) {
        benchmark::DoNotOptimize(view.deliver_next_revelation(truth, effects));
      }
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      if (i >= warmup) drain_seconds += elapsed.count();
    }
    t.deferred_delivery_ns =
        drain_seconds * 1e9 / static_cast<double>(iters * accepted);
  }
  return t;
}

// ---------------------------------------------------------------------------
// Per-ISA kernel timings: the two raw score_simd kernels plus the two
// composite paths built on them, re-measured under each supported kernel
// table.  All tables are bit-identical by contract (score_simd.hpp), so
// these rows differ only in speed.
// ---------------------------------------------------------------------------

struct IsaKernelTimings {
  const char* isa = "";
  double row_gather_mul_ns = 0.0;     // per slot, 4096-slot synthetic row
  double bernoulli_pack_ns = 0.0;     // per draw, 32768-draw batch
  double batched_rescore_ns = 0.0;    // per candidate (prepare + ranged)
  double realization_sample_ns = 0.0; // per pooled full resample
};

IsaKernelTimings measure_isa_kernels(const AccuInstance& instance,
                                     simd::Isa isa) {
  simd::select_isa(isa);
  const simd::ScoreKernels& k = simd::kernels();
  IsaKernelTimings t;
  t.isa = simd::isa_name(isa);

  const std::uint32_t slots = 4096;
  util::Rng rng(21);
  std::vector<double> values(slots);
  std::vector<double> table(slots);
  std::vector<NodeId> nodes(slots);
  for (std::uint32_t s = 0; s < slots; ++s) {
    values[s] = static_cast<double>(rng() >> 11) * 0x1p-53;
    table[s] = static_cast<double>(rng() >> 11) * 0x1p-53;
    nodes[s] = static_cast<NodeId>(rng() % slots);
  }
  {
    double sink = 0.0;
    const std::uint64_t iters = 20000;
    const double s = measure_seconds(500, iters, [&](std::uint64_t) {
      sink += k.row_gather_mul(values.data(), nodes.data(), table.data(), 0,
                               slots);
    });
    benchmark::DoNotOptimize(sink);
    t.row_gather_mul_ns = s * 1e9 / static_cast<double>(iters * slots);
  }
  {
    const std::size_t draws = 32768;
    std::vector<std::uint64_t> raw(draws);
    std::vector<std::uint64_t> thr(draws);
    std::vector<std::uint64_t> out((draws + 63) / 64);
    for (std::size_t i = 0; i < draws; ++i) {
      raw[i] = rng();
      thr[i] = rng() >> 11;
    }
    const std::uint64_t iters = 4000;
    const double s = measure_seconds(100, iters, [&](std::uint64_t) {
      k.bernoulli_pack(raw.data(), thr.data(), draws, out.data());
      benchmark::DoNotOptimize(out.data());
      benchmark::ClobberMemory();
    });
    t.bernoulli_pack_ns = s * 1e9 / static_cast<double>(iters * draws);
  }
  t.batched_rescore_ns = measure_rescore_ns(instance);
  t.realization_sample_ns = measure_resample_ns(instance);
  return t;
}

void append_fmt(std::string& out, const char* fmt, ...) {
  char line[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(line, sizeof line, fmt, args);
  va_end(args);
  out += line;
}

int run_json_mode(const char* path) {
  const AccuInstance& instance = twitter_instance();
  const std::uint64_t cells = 64;
  const std::uint32_t budget = 50;
  const CellWorkloadResult fresh = measure_fresh(instance, cells, budget);
  const CellWorkloadResult pooled = measure_pooled(instance, cells, budget);
  const double reduction =
      fresh.allocs_per_cell /
      (pooled.allocs_per_cell > 0.0 ? pooled.allocs_per_cell : 1.0);

  // Headline kernels run under the automatic (best supported) table — the
  // same one run_experiment picks by default.
  simd::select_auto();
  const KernelTimings kernels = measure_kernels(instance);
  const char* active = simd::isa_name(simd::active_isa());

  // Then each supported table in turn, scalar first (the oracle row).
  std::vector<IsaKernelTimings> per_isa;
  for (simd::Isa isa :
       {simd::Isa::kScalar, simd::Isa::kAvx2, simd::Isa::kNeon}) {
    if (simd::isa_supported(isa)) {
      per_isa.push_back(measure_isa_kernels(instance, isa));
    }
  }
  simd::select_auto();

  std::string json;
  json += "{\n";
  json += "  \"workload\": \"twitter-0.03 ABM sweep cell\",\n";
  append_fmt(json, "  \"cells\": %llu,\n",
             static_cast<unsigned long long>(cells));
  append_fmt(json, "  \"budget\": %u,\n", budget);
  append_fmt(json, "  \"fresh_cells_per_sec\": %.1f,\n", fresh.cells_per_sec);
  append_fmt(json, "  \"fresh_allocs_per_cell\": %.2f,\n",
             fresh.allocs_per_cell);
  append_fmt(json, "  \"pooled_cells_per_sec\": %.1f,\n",
             pooled.cells_per_sec);
  append_fmt(json, "  \"pooled_allocs_per_cell\": %.2f,\n",
             pooled.allocs_per_cell);
  append_fmt(json, "  \"alloc_reduction_factor\": %.1f,\n", reduction);
  json += "  \"kernels\": {\n";
  append_fmt(json, "    \"realization_sample_ns\": %.1f,\n",
             kernels.realization_sample_ns);
  append_fmt(json, "    \"observation_update_ns\": %.1f,\n",
             kernels.observation_update_ns);
  append_fmt(json, "    \"potential_scalar_ns\": %.1f,\n",
             kernels.potential_scalar_ns);
  append_fmt(json, "    \"batched_rescore_ns_per_candidate\": %.2f,\n",
             kernels.batched_rescore_ns);
  append_fmt(json, "    \"abm_round_ns\": %.1f,\n", kernels.abm_round_ns);
  append_fmt(json, "    \"deferred_delivery_ns\": %.1f\n",
             kernels.deferred_delivery_ns);
  json += "  },\n";
  json += "  \"simd\": {\n";
  append_fmt(json, "    \"active\": \"%s\",\n", active);
  for (std::size_t i = 0; i < per_isa.size(); ++i) {
    const IsaKernelTimings& t = per_isa[i];
    append_fmt(json, "    \"%s\": {\n", t.isa);
    append_fmt(json, "      \"row_gather_mul_ns\": %.3f,\n",
               t.row_gather_mul_ns);
    append_fmt(json, "      \"bernoulli_pack_ns\": %.3f,\n",
               t.bernoulli_pack_ns);
    append_fmt(json, "      \"batched_rescore_ns_per_candidate\": %.2f,\n",
               t.batched_rescore_ns);
    append_fmt(json, "      \"realization_sample_ns\": %.1f\n",
               t.realization_sample_ns);
    json += (i + 1 < per_isa.size()) ? "    },\n" : "    }\n";
  }
  json += "  }\n";
  json += "}\n";

  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "micro_core: cannot write %s\n", path);
    return 1;
  }
  std::fputs(json.c_str(), out);
  std::fclose(out);
  std::fputs(json.c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      const char* path =
          i + 1 < argc ? argv[i + 1] : "BENCH_micro_core.json";
      return run_json_mode(path);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
