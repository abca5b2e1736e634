#!/usr/bin/env python3
"""The benchmark command: builds the driver, runs one workload, prints metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a source tree.  The driver and the library are built
from source into $CARGO_TARGET_DIR (default .bench_build); inputs, spans and
scratch files go to .bench_work.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; its metrics are the
end_to_end metrics of BENCHMARK.json with --trace 0 and its per_layer
metrics with --trace 1.  The line before it holds every metric the driver
measured.  README.md describes the workloads and metrics.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
# One driver run must end well inside the 180 s a benchmark run may take.
DRIVER_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 840


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run(cmd, timeout, stdout=sys.stderr):
    """Runs cmd in its own process group; kills the whole group on timeout,
    so forked serve workers never outlive the benchmark.  Tool output goes
    to stderr unless `stdout` says otherwise: the result line stays last."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True,
                            stdout=stdout, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{cmd[0]} timed out after {timeout} s")
    return proc.returncode, out


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no library sources under {ROOT / 'src'}")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") \
        / "perfbench"
    if not (build_dir / "CMakeCache.txt").is_file():
        code, _ = run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                       "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
        if code != 0:
            raise RuntimeError("cmake configure failed")
    code, _ = run(["cmake", "--build", str(build_dir), "--target",
                   "perfbench_driver", "-j", "4"], BUILD_TIMEOUT_S)
    if code != 0:
        raise RuntimeError("build failed")
    return build_dir / "perfbench_driver"


def synth_file(driver, seed):
    """The load-synth-250k input for `seed`, generated once per seed before
    the timed process; inputs of other seeds are removed (167 MB each)."""
    path = WORK / f"synth-{seed}.accui"
    if path.is_file():
        return path
    for old in WORK.glob("synth-*.accui*"):
        old.unlink()
    partial = path.with_suffix(".accui.partial")
    code, _ = run([str(driver), "--gen-synth", str(partial), "--seed",
                   str(seed)], DRIVER_TIMEOUT_S)
    if code != 0:
        raise RuntimeError("synth generation failed")
    partial.rename(path)
    return path


def flag_host(line):
    """Results from different hosts are not comparable: the first run's
    host stamp is kept and any other host is flagged."""
    stamp = line[len("host: "):]
    first = WORK / "host.json"
    if not first.is_file():
        first.write_text(stamp + "\n")
    elif first.read_text().strip() != stamp.strip():
        print(f"host: differs from the first run's host "
              f"{first.read_text().strip()}; results are not comparable",
              flush=True)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    WORK.mkdir(exist_ok=True)
    driver = build()
    if args.selftest:
        code, _ = run([str(driver), "--selftest", "--work",
                       str(WORK / "selftest")], DRIVER_TIMEOUT_S, sys.stdout)
        return code

    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(WORK / args.workload)]
    if args.workload == "load-synth-250k":
        cmd += ["--synth", str(synth_file(driver, args.seed))]
    code, out = run(cmd, DRIVER_TIMEOUT_S, subprocess.PIPE)
    lines = out.splitlines()
    if code != 0 or not lines:
        raise RuntimeError(f"driver exited {code}")
    for line in lines[:-1]:
        print(line, flush=True)
        if line.startswith("host: "):
            flag_host(line)
    result = json.loads(lines[-1])
    print("all metrics: " + json.dumps(result["metrics"]), flush=True)
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            raise RuntimeError(f"driver did not report {m['name']} "
                               f"in {m['unit']}")
        metrics[m["name"]] = got
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}),
          flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError) as e:
        log(str(e))
        sys.exit(1)
