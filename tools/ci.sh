#!/usr/bin/env bash
# CI entry point: build + test three configurations, plus an engine gate.
#
#   1. plain RelWithDebInfo             — the configuration users run
#   2. Debug with ACCU_SANITIZE=ON      — AddressSanitizer + UBSan
#   3. engine gate                      — the engine-equivalence suite under
#      ASan + the micro_core allocations-per-cell ceiling
#   4. shard round-trip                 — a sweep split into three shard
#      processes (one SIGKILLed mid-run and resumed) merged with `accu merge`
#      must reproduce the unsharded report byte-for-byte, and the merged
#      checkpoint must equal the unsharded one-thread sweep's checkpoint
#      (the merge copies CRC-verified blocks as they are)
#   5. pack round-trip                  — `accu pack` converts a generated
#      instance to the binary .accui format; the mmap-loaded sweep report
#      must match the text-path report byte-for-byte, the unpack leg must
#      reproduce the original text bytes, a truncated pack must be
#      rejected, and an `accu synth` file must load and repack
#      byte-identically through unpack → pack
#   6. serve drill                      — the real `accu serve` daemon is
#      SIGKILLed mid-job, restarted, SIGTERM-drained, and restarted again;
#      the finished report must match the direct sweep byte-for-byte.
#      Run once per durability mode (strict, grouped), plus a
#      batched-feedback pass (the pending-revelation queue and the
#      checkpoint `feedback` header must survive the same abuse)
#   7. Debug with ACCU_SANITIZE=thread  — ThreadSanitizer over the
#      concurrency-heavy suites (experiment pool, cancel tokens, checkpoint
#      appends, cancellation, serve journal/daemon, intra-cell task pool,
#      the per-instance artifact cache's racing first requests)
#   8. forced-ISA dispatch              — the Score suites re-run under
#      every kernel table the host supports (ACCU_SIMD=scalar/avx2/neon),
#      in the plain, ASan, and TSan trees (plus the Abm, Golden and
#      InstanceArtifact suites in plain and ASan): every dispatch tail
#      must be bit-identical and sanitizer-clean, not just the auto pick
#   9. bench trend gate                 — accu_bench_diff compares a fresh
#      `micro_core --json` run against the committed BENCH_micro_core.json
#      so a kernel cannot silently lose its speedup
#  10. -march=native build              — ACCU_NATIVE=ON (tuning flags;
#      results must stay bit-identical, pinned by the same test suite)
#  11. scalar-only build                — ACCU_SCALAR_ONLY=ON compiles the
#      vector TUs out entirely, keeping the portable fallback a
#      first-class build instead of dead code on vector hosts
#  12. perfbench self-test              — `perfbench/run.py --selftest`:
#      traced and untraced benchmark reports are byte-identical, and the
#      timing decorator still forwards adopt_score_pack to the strategy
#
# Every ctest run carries --timeout 300 so a hung test (deadlocked pool,
# cell that never sees its cancel token) fails the stage instead of
# wedging CI.
#
# Usage: tools/ci.sh [jobs]   (default: nproc)

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${1:-$(nproc)}"

echo "=== plain build (RelWithDebInfo) ==="
cmake -B build-ci -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-ci -j "${JOBS}"
ctest --test-dir build-ci --output-on-failure -j "${JOBS}" --timeout 300

echo "=== sanitized build (Debug, address+undefined) ==="
cmake -B build-ci-san -S . -DCMAKE_BUILD_TYPE=Debug -DACCU_SANITIZE=address
cmake --build build-ci-san -j "${JOBS}"
ctest --test-dir build-ci-san --output-on-failure -j "${JOBS}" --timeout 300

echo "=== engine + score-engine equivalence under ASan + allocation budget ==="
# The round-engine refactor and the SoA score engine are pinned two ways:
# the byte-identical-trace property suites (Engine*) and the bit-exact
# score-kernel suites (Score*) re-run under AddressSanitizer (pooling and
# incremental caches must not trade correctness or memory safety for
# speed), and `micro_core --json` must keep pooled sweep cells under the
# recorded allocations-per-cell ceiling (the O(1)-allocations property of
# SimWorkspace).
ctest --test-dir build-ci-san --output-on-failure -j "${JOBS}" --timeout 300 \
  -R 'Engine|Score|Shard|Merge|Serve|IoEnv|GroupCommit|CrashPoint|Feedback|InstanceFormat'
./build-ci/bench/micro_core --json build-ci/BENCH_micro_core.json
ALLOCS="$(sed -n 's/.*"pooled_allocs_per_cell": \([0-9.]*\).*/\1/p' \
  build-ci/BENCH_micro_core.json)"
BASELINE="$(grep -v '^#' bench/micro_core_allocs.baseline | head -1)"
echo "pooled allocs/cell: ${ALLOCS} (ceiling ${BASELINE})"
awk -v a="${ALLOCS}" -v b="${BASELINE}" 'BEGIN { exit !(a <= b) }' || {
  echo "FAIL: pooled allocs/cell ${ALLOCS} exceeds baseline ${BASELINE}" >&2
  exit 1
}

echo "=== bench trend vs committed BENCH_micro_core.json ==="
# Directional per-key comparison of the fresh snapshot against the
# committed one; the generous 2x threshold catches a lost vector path or
# an accidentally quadratic loop, not shared-runner jitter.
./build-ci/tools/accu_bench_diff BENCH_micro_core.json \
  build-ci/BENCH_micro_core.json --threshold=2.0

echo "=== forced-ISA dispatch: Score/Abm/Golden/Artifact suites under every kernel table ==="
# The determinism contract (score_simd.hpp) says every dispatch tail is
# bit-identical; re-run the score/kernel suites, ABM's incremental-vs-
# reference pins, the golden trace digests and the artifact cache (whose
# blank seed heaps are scored by the dispatched kernels) with each
# supported table forced via ACCU_SIMD, in the plain and ASan trees.
ISAS="scalar"
if grep -q avx2 /proc/cpuinfo 2> /dev/null; then ISAS="${ISAS} avx2"; fi
case "$(uname -m)" in aarch64 | arm64) ISAS="${ISAS} neon" ;; esac
for ISA in ${ISAS}; do
  echo "--- ACCU_SIMD=${ISA} (plain + ASan) ---"
  ACCU_SIMD="${ISA}" ctest --test-dir build-ci --output-on-failure \
    -j "${JOBS}" --timeout 300 -R 'Score|Abm|Golden|Artifact'
  ACCU_SIMD="${ISA}" ctest --test-dir build-ci-san --output-on-failure \
    -j "${JOBS}" --timeout 300 -R 'Score|Abm|Golden|Artifact'
done

echo "=== shard → kill → resume → merge round-trip ==="
# End-to-end check of the sharding contract with real processes: three
# shard sweeps (one SIGKILLed mid-run, then resumed from its surviving
# checkpoint bytes) merge into a report byte-identical to the unsharded
# single-process run — only the title line differs.  The merge copies each
# CRC-verified block of the shard files as it is, in task order, so the
# merged checkpoint must also `cmp` equal to the checkpoint the unsharded
# one-thread reference run writes — torn shard included.
RT="build-ci/shard-roundtrip"
rm -rf "${RT}"
mkdir -p "${RT}"
./build-ci/tools/accu generate --dataset=facebook --scale=0.05 \
  --cautious=8 --out="${RT}/net.accu" > /dev/null
SWEEP=(./build-ci/tools/accu compare "--in=${RT}/net.accu" --k=12 --runs=6 \
  --seed=9 --fault-rate=0.2 --retry=exp)
"${SWEEP[@]}" --threads=1 "--resume=${RT}/reference.ckpt" \
  "--report=${RT}/reference.md" > /dev/null
for i in 0 2; do
  "${SWEEP[@]}" "--shard=${i}/3" "--resume=${RT}/shard${i}.ckpt" > /dev/null
done
"${SWEEP[@]}" --shard=1/3 "--resume=${RT}/shard1.ckpt" > /dev/null 2>&1 &
VICTIM=$!
sleep 0.05
kill -9 "${VICTIM}" 2> /dev/null || true
wait "${VICTIM}" 2> /dev/null || true
"${SWEEP[@]}" --shard=1/3 "--resume=${RT}/shard1.ckpt" > /dev/null
./build-ci/tools/accu merge "--out=${RT}/merged.ckpt" \
  "--report=${RT}/merged.md" "${RT}"/shard*.ckpt > /dev/null
diff <(tail -n +2 "${RT}/reference.md") <(tail -n +2 "${RT}/merged.md") || {
  echo "FAIL: merged shard report differs from the unsharded reference" >&2
  exit 1
}
cmp "${RT}/reference.ckpt" "${RT}/merged.ckpt" || {
  echo "FAIL: merged checkpoint differs from the unsharded checkpoint" >&2
  exit 1
}
echo "shard round-trip OK: merged report and checkpoint match the unsharded sweep"

echo "=== binary format: pack → mmap-load → sweep → byte-identical report ==="
# End-to-end check of the .accui contract with the real CLI: the same
# logical instance, loaded once from text and once from the packed binary
# (mmap, zero parse), must drive `accu compare` to byte-identical reports.
# Both runs use the same relative --in path so even the title line (which
# embeds the path) matches — the diff below is over the whole file.  The
# unpack leg re-checks text → binary → text byte-identity at the CLI
# level, and a deliberately truncated pack must be rejected, not loaded.
PK="build-ci/pack-roundtrip"
rm -rf "${PK}"
mkdir -p "${PK}/text" "${PK}/bin"
./build-ci/tools/accu generate --dataset=facebook --scale=0.05 \
  --cautious=8 --seed=4 --out="${PK}/text/net.accu" > /dev/null
./build-ci/tools/accu pack "--in=${PK}/text/net.accu" \
  "--out=${PK}/bin/net.accu" > /dev/null
./build-ci/tools/accu unpack "--in=${PK}/bin/net.accu" \
  "--out=${PK}/unpacked.accu" > /dev/null
cmp "${PK}/text/net.accu" "${PK}/unpacked.accu" || {
  echo "FAIL: text -> pack -> unpack is not byte-identical" >&2
  exit 1
}
ACCU_BIN="$(pwd)/build-ci/tools/accu"
(cd "${PK}/text" && "${ACCU_BIN}" compare --in=net.accu --k=12 --runs=6 \
  --seed=9 --report=report.md > /dev/null)
(cd "${PK}/bin" && "${ACCU_BIN}" compare --in=net.accu --k=12 --runs=6 \
  --seed=9 --report=report.md > /dev/null)
cmp "${PK}/text/report.md" "${PK}/bin/report.md" || {
  echo "FAIL: mmap-loaded sweep report differs from the text-path report" >&2
  exit 1
}
head -c 1000 "${PK}/bin/net.accu" > "${PK}/torn.accui"
if ./build-ci/tools/accu stats "--in=${PK}/torn.accui" > /dev/null 2>&1; then
  echo "FAIL: a truncated .accui file loaded instead of being rejected" >&2
  exit 1
fi
# Synth leg: the out-of-core generator's file must load (`accu stats`)
# and survive unpack → pack byte for byte, which pins stream_gen's CSR
# emission against the in-memory serializer through the real CLI.
./build-ci/tools/accu synth --nodes=3000 --seed=5 \
  "--out=${PK}/synth.accui" > /dev/null
./build-ci/tools/accu stats "--in=${PK}/synth.accui" > /dev/null
./build-ci/tools/accu unpack "--in=${PK}/synth.accui" \
  "--out=${PK}/synth.accu" > /dev/null
./build-ci/tools/accu pack "--in=${PK}/synth.accu" \
  "--out=${PK}/synth-repacked.accui" > /dev/null
cmp "${PK}/synth.accui" "${PK}/synth-repacked.accui" || {
  echo "FAIL: synth -> unpack -> pack is not byte-identical" >&2
  exit 1
}
echo "pack round-trip OK: binary sweep report matches the text path," \
  "synth output repacks byte-identically"

echo "=== serve drill: kill -9 mid-flight, restart, SIGTERM drain, finish ==="
# End-to-end check of the serve contract with the real daemon binary, run
# once per durability mode: a submitted compare job is SIGKILLed
# mid-flight, the restarted daemon adopts the journal and resumes the
# surviving shard checkpoints, a SIGTERM lands mid-run and must drain
# cleanly (exit 0), and a final restart completes the job — whose report
# must match the direct unsharded `accu compare` byte-for-byte below the
# title line.  `grouped` widens the crash window to the open fsync group,
# so passing both modes pins the group-commit recovery contract with real
# processes, not just the in-process CrashPoint enumeration.
SV="build-ci/serve-drill"
rm -rf "${SV}"
mkdir -p "${SV}"
./build-ci/tools/accu generate --dataset=facebook --scale=0.03 \
  --cautious=8 --out="${SV}/net.accu" > /dev/null
./build-ci/tools/accu compare "--in=${SV}/net.accu" --k=8 --runs=6000 \
  --seed=11 --threads=1 "--report=${SV}/reference.md" > /dev/null
for MODE in strict grouped; do
  ROOT="${SV}/root-${MODE}"
  ./build-ci/tools/accu serve submit "--root=${ROOT}" --kind=compare \
    "--in=${SV}/net.accu" --k=8 --runs=6000 --seed=11 \
    "--durability=${MODE}" --group-cells=64 --group-ms=50 \
    --name=drill > /dev/null
  SERVE=(./build-ci/tools/accu serve run "--root=${ROOT}" --workers=3 \
    --poll-ms=10 --crash-budget=9 --exit-when-idle)
  "${SERVE[@]}" > /dev/null 2>&1 &
  DAEMON=$!
  sleep 0.35
  kill -9 "${DAEMON}" 2> /dev/null || true
  wait "${DAEMON}" 2> /dev/null || true
  "${SERVE[@]}" > /dev/null 2>&1 &
  DAEMON=$!
  sleep 0.25
  kill -TERM "${DAEMON}" 2> /dev/null || true
  DRAIN=0
  wait "${DAEMON}" || DRAIN=$?
  if [ "${DRAIN}" -ne 0 ]; then
    echo "FAIL(${MODE}): SIGTERM drain exited ${DRAIN} instead of 0" >&2
    exit 1
  fi
  "${SERVE[@]}" > /dev/null
  ./build-ci/tools/accu serve status "--root=${ROOT}"
  diff <(tail -n +2 "${SV}/reference.md") \
    <(tail -n +2 "${ROOT}/jobs/job0001/report.md") || {
    echo "FAIL(${MODE}): serve report differs from the direct sweep" >&2
    exit 1
  }
  echo "serve drill (${MODE}) OK: survived kill -9 and drained cleanly"
done

echo "=== serve drill: batched feedback survives kill -9 resume ==="
# A non-full feedback model (DESIGN.md §15) adds a pending-revelation
# queue to every simulation and a `feedback` header line to shard
# checkpoints (part of the resume fingerprint); this pass pins that a
# restricted-feedback job recovers from kill -9 to the same report
# bytes as the direct restricted-feedback sweep.
./build-ci/tools/accu compare "--in=${SV}/net.accu" --k=8 --runs=6000 \
  --seed=11 --threads=1 --feedback=batched --feedback-delay=4 \
  "--report=${SV}/reference-batched.md" > /dev/null
ROOT="${SV}/root-feedback"
./build-ci/tools/accu serve submit "--root=${ROOT}" --kind=compare \
  "--in=${SV}/net.accu" --k=8 --runs=6000 --seed=11 \
  --feedback=batched --feedback-delay=4 --durability=grouped \
  --group-cells=64 --group-ms=50 --name=drill > /dev/null
SERVE=(./build-ci/tools/accu serve run "--root=${ROOT}" --workers=3 \
  --poll-ms=10 --crash-budget=9 --exit-when-idle)
"${SERVE[@]}" > /dev/null 2>&1 &
DAEMON=$!
sleep 0.35
kill -9 "${DAEMON}" 2> /dev/null || true
wait "${DAEMON}" 2> /dev/null || true
"${SERVE[@]}" > /dev/null
./build-ci/tools/accu serve status "--root=${ROOT}"
diff <(tail -n +2 "${SV}/reference-batched.md") \
  <(tail -n +2 "${ROOT}/jobs/job0001/report.md") || {
  echo "FAIL(feedback): batched-feedback serve report differs from direct" >&2
  exit 1
}
echo "serve drill (batched feedback) OK: queue state survived kill -9"

echo "=== sanitized build (Debug, thread) ==="
cmake -B build-ci-tsan -S . -DCMAKE_BUILD_TYPE=Debug -DACCU_SANITIZE=thread
cmake --build build-ci-tsan -j "${JOBS}"
ctest --test-dir build-ci-tsan --output-on-failure -j "${JOBS}" --timeout 300 \
  -R 'Experiment|Checkpoint|Fault|Resilience|Backoff|Cancel|Crc|AtomicFile|DurableAppender|Serve|IoEnv|GroupCommit|CrashPoint|Feedback|InstanceFormat|Artifact'
# The intra-cell task pool and chunked rescore under TSan, per kernel
# table: the pool's claim/join protocol and the const-scratch sharing of
# score_batch_ranged must be race-free under every dispatch tail.
for ISA in ${ISAS}; do
  echo "--- ACCU_SIMD=${ISA} (TSan) ---"
  ACCU_SIMD="${ISA}" ctest --test-dir build-ci-tsan --output-on-failure \
    -j "${JOBS}" --timeout 300 -R 'Score'
done

echo "=== -march=native build (RelWithDebInfo, ACCU_NATIVE) ==="
# Tuning flags only: -ffp-contract=off is global, so the tuned build must
# pass the same bit-exactness suites as the portable one, including the
# golden trace digests of the SoA-scored strategies (every ISA, intra-cell
# widths 1 and 4), the generated-instance digest pins of the graph
# builder, generators and dataset factory, and PageRank's pull-vs-push
# bit-identity check.
cmake -B build-ci-native -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DACCU_NATIVE=ON
cmake --build build-ci-native -j "${JOBS}"
ctest --test-dir build-ci-native --output-on-failure -j "${JOBS}" \
  --timeout 300 \
  -R 'Score|Engine|Experiment|Realization|Abm|Lookahead|Golden|Batched|Parallel|Graph|Generator|Dataset|PageRank'

echo "=== scalar-only build (RelWithDebInfo, ACCU_SCALAR_ONLY) ==="
# The portable fallback as its own build: vector TUs compiled out, scalar
# the only dispatch tail.  The full suite must pass — results are
# bit-identical to the vector builds by the determinism contract.
cmake -B build-ci-scalar -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DACCU_SCALAR_ONLY=ON
cmake --build build-ci-scalar -j "${JOBS}"
ctest --test-dir build-ci-scalar --output-on-failure -j "${JOBS}" \
  --timeout 300

echo "=== perfbench self-test ==="
# About a second once built: the benchmark's probes must change nothing.
python3 perfbench/run.py --selftest

echo "=== CI OK ==="
