#!/usr/bin/env python3
"""Repository benchmark: build the perfbench program, run one workload, and
print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
`perfbench/` (the simulator library plus the measuring program) into
`.bench_build/`; later runs rebuild incrementally. The last line of standard
output is one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`: with `--trace 0` the end-to-end metrics of BENCHMARK.json, with
`--trace 1` its per-layer metrics. The line before it, `provenance {...}`,
records how the numbers were measured. NOTES.md explains the workloads and
the metrics. Malformed arguments exit 2; a build or run failure exits 1.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
PINS = HERE / "digests.json"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open(ROOT / "BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def parse_args(spec):
    p = argparse.ArgumentParser(description="Run one benchmark workload.")
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if args.seed < 0 or not 0 <= args.seconds <= 3600:
        p.error("--seed must be >= 0 and --seconds in [0, 3600]")
    return args


def build():
    """Configure once, then build incrementally; compiler output to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return BUILD / "perfbench"


def source_fingerprint():
    """sha256 over the sources the binary is built from (the checkout may
    not be a git repository, so the commit alone cannot identify them)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():  # do not let git search above the checkout
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def quantiles(values):
    """Deciles and quartiles of one run's repetitions."""
    if len(values) < 2:
        return {"p10": values[0], "q1": values[0], "median": values[0],
                "q3": values[0], "p90": values[0], "n": 1}
    d = statistics.quantiles(values, n=10, method="inclusive")
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"p10": d[0], "q1": q1, "median": q2, "q3": q3, "p90": d[8], "n": len(values)}


def main():
    spec = load_spec()
    args = parse_args(spec)
    binary = build()

    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds:g}", f"--trace={args.trace}"]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=args.seconds * 2 + 100)
    except subprocess.TimeoutExpired:
        fail("perfbench timed out")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail(f"perfbench exited {proc.returncode}")
    run = json.loads(proc.stdout.strip().splitlines()[-1])

    correct = run["repro_failed"] == 0
    attempted, failed = run["attempted"], run["failed"]
    with open(PINS) as f:
        pins = json.load(f)
    pinned = pins["digests"].get(args.workload)
    if args.trace == 0 and args.seed == pins["seed"] and pinned is not None:
        attempted += 1
        if run["digest"] != pinned:
            failed += 1
            correct = False
            run["failures"].append(f"digest {run['digest']} != pinned {pinned}")

    samples = {k: run[k] for k in ("wall_s", "run_cpu_s", "setup_s", "events_per_s")}
    stats = {k: quantiles(v) for k, v in samples.items()}
    if args.trace == 0:
        # The fast decile of the repetitions: the shared host alternates
        # between fast and slow phases lasting seconds, so a run's median
        # says more about the neighbours than about the program (NOTES.md).
        # Set-up is the median of every repetition's set-up.
        values = {
            "wall_s": stats["wall_s"]["p10"],
            "events_per_s": stats["events_per_s"]["p90"],
            "setup_s": stats["setup_s"]["median"],
            "peak_rss_mb": run["peak_rss_mb"],
            "worst_offset_ticks": max(run["worst_offsets"]),
            "pass_rate": 1.0 - failed / attempted,
        }
        wanted = spec["end_to_end"]
    else:
        values = run["layers"]
        wanted = spec["per_layer"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail("metrics not produced: " + ", ".join(missing))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    for f in run["failures"]:
        print(f"failure: {f}")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {run['reps']} reps over "
          f"{run['sub_seeds']} sub-seeds in {time.monotonic() - t0:.1f} s, "
          f"{run['events']} events/rep, digest {run['digest']}, "
          f"fail_rate={failed / attempted:.3g} ({failed}/{attempted} checks failed)")
    provenance = {
        "commit": git_commit(),
        "source_sha256": source_fingerprint(),
        "build_type": run["build_type"],
        "compiler": run["compiler"],
        "nproc": os.cpu_count(),
        "host": platform.node(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "reps": run["reps"],
        "digest": run["digest"],
        "samples": stats,
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
